"""Exceptional point search against the two-level closed form."""

import numpy as np
import pytest

from levelcross.eigensolve import BiorthogonalityError, SolverError
from levelcross.epfinder import (
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
    SweepGrid,
    Tunable,
    with_profile,
)
from levelcross.presets import preset
from levelcross.twolevel import ep_condition_2level

TUNE_G2 = Tunable("gamma_half", 1)
BOX = ((0.3, 1.0), (0.4, 0.8))


def two_level_constant():
    return with_profile(preset("fig1"), "constant")


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


def test_find_ep_empty_box_reports_not_converged():
    sc = two_level_constant()
    report = find_ep(sc, TUNE_G2, ((0.0, 0.3), (0.4, 0.8)))
    assert not report.converged
    assert report.gap > 1e-4
    assert 0.0 <= report.location[0] <= 0.3
    assert 0.4 <= report.location[1] <= 0.8


def test_degenerate_box_rejected():
    sc = two_level_constant()
    with pytest.raises(ValueError, match="degenerate"):
        find_ep(sc, TUNE_G2, ((0.5, 0.5), (0.4, 0.8)))
    with pytest.raises(ValueError, match="finite"):
        find_ep(sc, TUNE_G2, ((0.3, np.inf), (0.4, 0.8)))


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


def test_find_ep_is_deterministic():
    sc = preset("fig2")
    assert find_ep(sc, TUNE_G2, BOX) == find_ep(sc, TUNE_G2, BOX)


def test_report_is_plain_data():
    report = EPReport((0.5, 0.5), 1.0, (0, 1), 1.0, False)
    assert report.location == (0.5, 0.5)
    with pytest.raises(AttributeError):
        report.gap = 0.0
