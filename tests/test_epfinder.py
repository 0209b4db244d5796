"""Exceptional point search against the two-level closed form."""

import re
from dataclasses import replace

import numpy as np
import pytest

import levelcross.eigensolve as es
from levelcross import epfinder
from levelcross.eigensolve import (
    BiorthogonalityError,
    RootConvergenceError,
    SolverError,
    eigenvalues_batch,
    solve_spectrum_batch,
)
from levelcross.epfinder import (
    MAX_REFINE_ITER,
    PROBE_MAX_DOUBLINGS,
    PROBE_SCALE,
    SCAN_POINTS,
    EPReport,
    coalescence_gap,
    find_ep,
    probe_norm_blowup,
)
from levelcross.expressions import parse_expr
from levelcross.model import (
    CouplingSpec,
    LevelSpec,
    Scenario,
    ScenarioError,
    SweepGrid,
    Tunable,
    build_hamiltonian_batch,
    with_profile,
)
from levelcross.presets import preset
from levelcross.twolevel import ep_condition_2level
from test_eigensolve import reference_roots

TUNE_G2 = Tunable("gamma_half", 1)
BOX = ((0.3, 1.0), (0.4, 0.8))


def two_level_constant():
    return with_profile(preset("fig1"), "constant")


@pytest.fixture
def eigen_calls(monkeypatch):
    """Batch sizes of the eigenvalues_batch calls find_ep makes."""
    calls = []

    def counting(h):
        calls.append(len(h))
        return eigenvalues_batch(h)

    monkeypatch.setattr("levelcross.epfinder.eigenvalues_batch", counting)
    return calls


def test_gap_zero_at_analytic_coalescence():
    sc = two_level_constant()
    gap = coalescence_gap(sc, 2.0 / 3.0, tunable=TUNE_G2, value=0.6)
    assert gap < 1e-10


def test_gap_diagonal_matrix():
    sc = Scenario(
        label="diag",
        levels=(
            LevelSpec(parse_expr("a"), 0.1),
            LevelSpec(parse_expr("1"), 0.2),
            LevelSpec(parse_expr("2 + a"), 0.3),
        ),
        coupling=CouplingSpec(0.0, "constant", ()),
        sweep=SweepGrid(0.0, 1.0, 11),
    )
    eps = np.array([0.3 - 0.1j, 1.0 - 0.2j, 2.3 - 0.3j])
    iu, ju = np.triu_indices(3, 1)
    want = np.abs(eps[iu] - eps[ju]).min()
    assert coalescence_gap(sc, 0.3) == pytest.approx(want, rel=1e-14)


def test_gap_far_from_crossing_is_first_order_detuning():
    # second-order repulsion 2 w^2 / |eps1 - eps2| is the whole error
    sc = two_level_constant()
    gap = coalescence_gap(sc, 0.0, tunable=TUNE_G2, value=0.5999)
    detuning = abs((1.0 - 0.0) - 1j * (0.5 - 0.5999))
    assert abs(gap - detuning) < 2.5 * abs(sc.coupling.omega) ** 2 / detuning
    assert gap != pytest.approx(detuning, abs=1e-6)


def test_find_ep_constant_profile_hits_the_closed_form():
    sc = two_level_constant()
    report = find_ep(sc, TUNE_G2, BOX)
    assert report.converged
    assert report.gap < 1e-8
    assert report.pair == (0, 1)
    # two coalescence points share the box, (2/3, 0.6) and (2/3, 0.4);
    # the scan ties on gap and the centre rule picks the 0.6 one
    sols = ep_condition_2level(sc.levels[0], sc.levels[1], sc.coupling.omega)
    a_star, t_star = max(sols, key=lambda s: s[1])
    assert report.location[0] == pytest.approx(a_star, abs=1e-4)
    assert report.location[1] == pytest.approx(t_star, abs=1e-4)
    assert report.norm_blowup > 10.0


def test_find_ep_complex_coupling_shifts_the_crossing():
    sc = with_profile(preset("fig2"), "constant")
    report = find_ep(sc, TUNE_G2, BOX)
    sols = ep_condition_2level(sc.levels[0], sc.levels[1], sc.coupling.omega)
    assert report.converged
    dist = min(np.hypot(report.location[0] - a, report.location[1] - t) for a, t in sols)
    assert dist < 1e-4
    # the coalescence sits off the energy-crossing point for complex w
    assert abs(report.location[0] - 2.0 / 3.0) == pytest.approx(1.0 / 15.0, abs=1e-4)


def test_find_ep_gaussian_profile_matches_its_own_closed_form():
    sc = preset("fig2")
    report = find_ep(sc, TUNE_G2, BOX)
    sols = ep_condition_2level(
        sc.levels[0], sc.levels[1], sc.coupling.omega, profile="gaussian"
    )
    assert report.converged
    dist = min(np.hypot(report.location[0] - a, report.location[1] - t) for a, t in sols)
    assert dist < 1e-4


@pytest.mark.parametrize("sc", [two_level_constant(), preset("fig2")], ids=["fig1", "fig2"])
def test_newton_converges_in_a_few_batched_calls(sc, eigen_calls):
    report = find_ep(sc, TUNE_G2, BOX)
    assert report.converged and report.gap == 0.0
    assert eigen_calls[0] == SCAN_POINTS**2
    assert 1 <= len(eigen_calls) - 1 <= 10


@pytest.mark.parametrize("pid", ["fig4", "fig9"])
def test_four_level_search_lands_on_a_lapack_coalescence(pid):
    sc, tune = preset(pid), Tunable("gamma_half", 3)
    report = find_ep(sc, tune, BOX)
    assert report.converged
    a, t = report.location
    values = np.linalg.eigvals(build_hamiltonian_batch(sc, [a], tunable=tune, value=t)[0])
    iu, ju = np.triu_indices(4, 1)
    assert np.abs(values[iu] - values[ju]).min() < 1e-5


def test_singular_jacobian_reports_the_scan_point(eigen_calls):
    # no level moves with a, so dg/da is exactly 0 and Newton stops at once
    sc = Scenario(
        label="flat",
        levels=(LevelSpec(parse_expr("1"), 0.1), LevelSpec(parse_expr("1.5"), 0.2)),
        coupling=CouplingSpec(0.0, "constant", ()),
        sweep=SweepGrid(0.0, 1.0, 11),
    )
    report = find_ep(sc, TUNE_G2, ((0.0, 1.0), (0.0, 0.4)))
    assert eigen_calls == [SCAN_POINTS**2, 3]
    assert not report.converged
    assert report.location[0] == 0.5
    assert report.gap == pytest.approx(np.hypot(0.5, report.location[1] - 0.1), rel=1e-12)


def test_find_ep_empty_box_reports_not_converged():
    sc = two_level_constant()
    report = find_ep(sc, TUNE_G2, ((0.0, 0.3), (0.4, 0.8)))
    assert not report.converged
    assert report.gap > 1e-4
    assert 0.0 <= report.location[0] <= 0.3
    assert 0.4 <= report.location[1] <= 0.8


def test_empty_box_stops_once_newton_settles(eigen_calls):
    # the closest approach lies on the a = 0.3 edge: the first Newton step
    # leaves the gap within STALL_RTOL, so the search ends there
    sc = two_level_constant()
    report = find_ep(sc, TUNE_G2, ((0.0, 0.3), (0.4, 0.8)))
    assert eigen_calls == [SCAN_POINTS**2, 3, 3]
    assert not report.converged
    assert report.location[0] == 0.3
    assert report.gap == pytest.approx(np.sqrt(0.3125), rel=1e-5)


def test_stall_stop_spares_a_search_that_wanders_before_converging(monkeypatch):
    # from the scan cell the gap rises and falls for several steps
    # before Newton closes in on this EP
    gaps = []  # the scan's best gap, then the gap at each Newton point

    def recording(h):
        values = eigenvalues_batch(h)
        gap = np.abs(epfinder._closest_pair(values)[0])
        gaps.append(gap.min() if len(h) == SCAN_POINTS**2 else gap[0])
        return values

    monkeypatch.setattr("levelcross.epfinder.eigenvalues_batch", recording)
    sc, tune = preset("fig4"), Tunable("gamma_half", 0)
    report = find_ep(sc, tune, BOX)
    assert report.converged
    assert max(gaps[1:]) > gaps[0]
    assert len(gaps) - 1 <= MAX_REFINE_ITER
    a, t = report.location
    values = np.linalg.eigvals(build_hamiltonian_batch(sc, [a], tunable=tune, value=t)[0])
    iu, ju = np.triu_indices(4, 1)
    assert np.abs(values[iu] - values[ju]).min() < 1e-5


def test_degenerate_box_rejected():
    sc = two_level_constant()
    with pytest.raises(ScenarioError, match="degenerate"):
        find_ep(sc, TUNE_G2, ((0.5, 0.5), (0.4, 0.8)))
    with pytest.raises(ScenarioError, match="finite"):
        find_ep(sc, TUNE_G2, ((0.3, np.inf), (0.4, 0.8)))
    with pytest.raises(ScenarioError, match="span must be finite"):
        find_ep(sc, TUNE_G2, ((-1e308, 1e308), (0.4, 0.8)))


@pytest.mark.parametrize(
    "search",
    [lambda sc: coalescence_gap(sc, 0.5), lambda sc: find_ep(sc, Tunable("gamma_half", 0), BOX)],
    ids=["coalescence_gap", "find_ep"],
)
def test_one_level_is_rejected(search):
    sc = two_level_constant()
    one = replace(sc, levels=sc.levels[:1], coupling=replace(sc.coupling, active_pairs=()))
    with pytest.raises(ScenarioError, match="at least two levels"):
        search(one)


def test_norm_blowup_grows_toward_the_coalescence():
    sc = two_level_constant()
    report = find_ep(sc, TUNE_G2, BOX)
    h0 = (1e-4 * 0.7, 1e-4 * 0.4)
    seq = [
        probe_norm_blowup(sc, TUNE_G2, report.location, (h0[0] / 2**k, h0[1] / 2**k))
        for k in range(4)
    ]
    assert all(lo < hi for lo, hi in zip(seq, seq[1:]))


def test_probe_failure_names_the_probe_point(monkeypatch):
    def explode(h):
        raise BiorthogonalityError(0, 1.058e-08)

    monkeypatch.setattr("levelcross.epfinder.solve_spectrum_batch", explode)
    with pytest.raises(
        SolverError, match=r"probe point \(a, value\)=\(0\.5625, 0\.6\): bilinear overlap"
    ):
        probe_norm_blowup(two_level_constant(), TUNE_G2, (0.5, 0.6), (0.0625, 0.25))


def test_newton_failure_names_the_search_point(monkeypatch):
    # the second eigenvalue call is Newton's first step: the point and its
    # two forward neighbours; its third matrix fails
    stacks = []

    def fail_second_call(h):
        stacks.append(h)
        if len(stacks) == 2:
            raise RootConvergenceError(2, 1.0)
        return eigenvalues_batch(h)

    monkeypatch.setattr("levelcross.epfinder.eigenvalues_batch", fail_second_call)
    sc = two_level_constant()
    with pytest.raises(SolverError) as info:
        find_ep(sc, TUNE_G2, BOX)
    found = re.fullmatch(
        r"eigensolver failed at search point \(a, value\)=\((\S+), (\S+)\): "
        r"root iteration did not converge \(batch index 2, residual 1\.000e\+00\)",
        str(info.value),
    )
    xa, xt = float(found.group(1)), float(found.group(2))
    h = build_hamiltonian_batch(sc, [xa], tunable=TUNE_G2, value=xt)
    assert np.array_equal(h[0], stacks[1][2])
    assert len(stacks[1]) == 3


def test_coalescence_gap_failure_names_the_point(monkeypatch):
    def explode(h):
        raise RootConvergenceError(0, 1.0)

    monkeypatch.setattr("levelcross.epfinder.eigenvalues_batch", explode)
    with pytest.raises(SolverError, match=r"at point \(a, value\)=\(0\.3, nan\): root"):
        coalescence_gap(two_level_constant(), 0.3)
    with pytest.raises(SolverError, match=r"at point \(a, value\)=\(0\.5, 0\.6\): root"):
        coalescence_gap(two_level_constant(), 0.5, tunable=TUNE_G2, value=0.6)


def per_probe_norm_blowup(scenario, tunable, location, offsets):
    """The loop probe_norm_blowup replaced, kept as its oracle: each probe
    solved alone, doubling its own offset until its spectrum is clean."""
    xa, xt = location
    ha, ht = offsets
    worst = 0.0
    for da, dt in ((ha, 0.0), (-ha, 0.0), (0.0, ht), (0.0, -ht)):
        for _ in range(PROBE_MAX_DOUBLINGS):
            h = build_hamiltonian_batch(scenario, [xa + da], tunable=tunable, value=xt + dt)
            try:
                spectrum = epfinder.solve_spectrum_batch(h)
            except SolverError as err:
                raise SolverError(f"probe point (a, value)=({xa + da!r}, {xt + dt!r})") from err
            if not spectrum.defective.any():
                worst = max(worst, float(spectrum.norm_a.max()))
                break
            da, dt = 2.0 * da, 2.0 * dt
    return worst


FIG5_BOX = ((0.5, 0.9), (0.4, 0.8))
SEARCHES = {
    "fig1_constant": (two_level_constant(), 1, BOX),
    "fig1_gaussian": (with_profile(preset("fig1"), "gaussian"), 1, BOX),
    "fig2": (preset("fig2"), 1, BOX),
    "fig4": (preset("fig4"), 3, BOX),
    "fig9": (preset("fig9"), 3, BOX),
    "fig5": (preset("fig5"), 3, FIG5_BOX),
    "fig4_level1": (preset("fig4"), 1, BOX),
    "empty_box": (two_level_constant(), 1, ((0.0, 0.3), (0.4, 0.8))),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_batched_probes_equal_the_per_probe_loop(name, monkeypatch):
    sc, level, box = SEARCHES[name]
    tune = Tunable("gamma_half", level)
    located = []

    def keep_location(scenario, tunable, location, offsets):
        located.append((location, offsets))
        return probe_norm_blowup(scenario, tunable, location, offsets)

    monkeypatch.setattr("levelcross.epfinder.probe_norm_blowup", keep_location)
    if name != "fig5":
        report = find_ep(sc, tune, box)
        assert report.norm_blowup == per_probe_norm_blowup(sc, tune, *located[0])
        assert located[0][1] == tuple(PROBE_SCALE * (hi - lo) for lo, hi in box)
        return
    # on fig5 a stub fails the probe (a, t + ht), third of the four, and
    # solves every other matrix as a clean diagonal: both paths meet that
    # failure by construction and name the same probe point
    def fail_one_probe(h):
        (xa, xt), (_, ht) = located[0]
        failing = build_hamiltonian_batch(sc, [xa], tunable=tune, value=xt + ht)[0]
        hit = np.flatnonzero((h == failing).all(axis=(1, 2)))
        if hit.size:
            raise BiorthogonalityError(int(hit[0]), 1.058e-08)
        return solve_spectrum_batch(np.diag(np.arange(1.0, h.shape[1] + 1)) + 0j * h)

    monkeypatch.setattr("levelcross.epfinder.solve_spectrum_batch", fail_one_probe)
    with pytest.raises(SolverError) as batched:
        find_ep(sc, tune, box)
    with pytest.raises(SolverError) as per_probe:
        per_probe_norm_blowup(sc, tune, *located[0])
    (xa, xt), (_, ht) = located[0]
    point = f"probe point (a, value)=({xa!r}, {xt + ht!r})"
    assert str(per_probe.value) == point
    assert str(batched.value) == (
        f"eigensolver failed at {point}: bilinear overlap 1.058e-08 for "
        "well-separated eigenpairs (batch index 2)"
    )


def test_batched_probes_double_only_the_defective_ones(monkeypatch):
    # a stub marks spectra within 6e-4 of the location's H defective: the
    # a probes (|dH| = 1e-3) are clean at once, the t probes (|dH| = ht)
    # after three doublings, and the largest A_i is a doubled t probe's
    sc = two_level_constant()
    location, offsets = (0.6667, 0.59), (1e-3, 1e-4)
    h0 = build_hamiltonian_batch(sc, [location[0]], tunable=TUNE_G2, value=location[1])[0]
    sizes = []

    def near_is_defective(h):
        sizes.append(len(h))
        spectrum = solve_spectrum_batch(h)
        close = np.abs(h - h0).max(axis=(1, 2)) < 6e-4
        return replace(spectrum, defective=spectrum.defective | close[:, None])

    monkeypatch.setattr("levelcross.epfinder.solve_spectrum_batch", near_is_defective)
    batched = probe_norm_blowup(sc, TUNE_G2, location, offsets)
    assert sizes == [4, 2, 2, 2]
    sizes.clear()
    assert batched == per_probe_norm_blowup(sc, TUNE_G2, location, offsets)
    doubled = build_hamiltonian_batch(sc, [location[0]], tunable=TUNE_G2, value=0.59 + 8e-4)
    assert batched == solve_spectrum_batch(doubled).norm_a.max()


def test_probes_that_never_come_back_clean_give_zero(monkeypatch):
    # at fig1's EP an offset of 1e-300 doubled 50 times still adds nothing
    sc = two_level_constant()
    location = find_ep(sc, TUNE_G2, BOX).location
    sizes = []

    def counting(h):
        sizes.append(len(h))
        return solve_spectrum_batch(h)

    monkeypatch.setattr("levelcross.epfinder.solve_spectrum_batch", counting)
    assert probe_norm_blowup(sc, TUNE_G2, location, (1e-300, 1e-300)) == 0.0
    assert sizes == [4] * PROBE_MAX_DOUBLINGS
    assert per_probe_norm_blowup(sc, TUNE_G2, location, (1e-300, 1e-300)) == 0.0


def search_outcome(name):
    """The search's report, its floats as bit patterns, or its error message."""
    sc, level, box = SEARCHES[name]
    try:
        report = find_ep(sc, Tunable("gamma_half", level), box)
    except SolverError as err:
        return str(err)
    floats = np.array([*report.location, report.gap, report.norm_blowup])
    return floats.view(np.uint64).tolist(), report.pair, report.converged


def test_searches_keep_their_bits_with_the_full_batch_root_loop(monkeypatch):
    # every root of the five converging searches and of fig5's failing
    # probe, taken from the reference loop instead, changes no bit of a
    # report and no character of the error
    names = ["fig1_constant", "fig1_gaussian", "fig2", "fig4", "fig9", "fig5"]
    want = {name: search_outcome(name) for name in names}
    monkeypatch.setattr(es, "poly_roots_batch", reference_roots)
    assert {name: search_outcome(name) for name in names} == want
    assert isinstance(want["fig5"], str) and want["fig5"].startswith("eigensolver failed at probe")
    assert all(want[name][2] for name in names[:5])


def test_find_ep_is_deterministic():
    sc = preset("fig2")
    assert find_ep(sc, TUNE_G2, BOX) == find_ep(sc, TUNE_G2, BOX)


def test_report_is_plain_data():
    report = EPReport((0.5, 0.5), 1.0, (0, 1), 1.0, False)
    assert report.location == (0.5, 0.5)
    with pytest.raises(AttributeError):
        report.gap = 0.0
