"""Branch tracking and crossing classification on designed scenarios."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from levelcross.eigensolve import (
    BiorthogonalityError,
    RootConvergenceError,
    SolverError,
    eigenvalues_batch,
    solve_spectrum_batch,
)
from levelcross.cli import main
from levelcross.expressions import parse_expr
from levelcross.model import (
    CouplingSpec,
    LevelSpec,
    Scenario,
    SweepGrid,
    Tunable,
    bare_levels,
    build_hamiltonian_batch,
    save_scenario,
)
from levelcross import sweep
from levelcross.presets import PRESET_IDS, preset
from levelcross.sweep import (
    MATCH_TIE_TOL,
    _best_assignment,
    _runs,
    _step_permutations,
    _valleys,
    detect_crossings,
    run_sweep,
)


def scenario(
    exprs,
    half_widths,
    omega=0.0,
    profile="constant",
    pairs=None,
    grid=(0.0, 1.5, 151),
    selfenergy=None,
):
    levels = tuple(
        LevelSpec(energy_expr=parse_expr(e), half_width=g)
        for e, g in zip(exprs, half_widths)
    )
    n = len(levels)
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Scenario(
        label="test",
        levels=levels,
        coupling=CouplingSpec(
            omega=omega,
            profile=profile,
            active_pairs=frozenset(pairs),
            selfenergy=selfenergy or {},
        ),
        sweep=SweepGrid(*grid),
    )


def test_decoupled_branches_follow_levels():
    sc = scenario(["1 - a/2", "a", "7/10"], [0.5, 0.4, 0.3])
    res = run_sweep(sc)
    a = res.a
    # ascending e(0) = (1, 0, 0.7) puts the levels in order 1, 2, 0
    assert [t.start_level for t in res.trajectories] == [1, 2, 0]
    assert [t.branch_id for t in res.trajectories] == [0, 1, 2]
    expected_e = {0: 1 - a / 2, 1: a, 2: np.full_like(a, 0.7)}
    expected_g = {0: 0.5, 1: 0.4, 2: 0.3}
    for t in res.trajectories:
        np.testing.assert_allclose(t.energy, expected_e[t.start_level], atol=1e-10)
        np.testing.assert_allclose(t.gamma_half, expected_g[t.start_level], atol=1e-10)
        assert not t.defective.any()


def test_decoupled_crossing_events():
    sc = scenario(["1 - a/2", "a", "7/10"], [0.5, 0.4, 0.3])
    res = run_sweep(sc)
    events = detect_crossings(res)
    # grid hits the crossings at a=0.6 and a=0.7 exactly; the third
    # crossing at a=2/3 falls between points and its energy difference
    # changes sign, so no event may be reported for it
    assert [e.kind for e in events] == ["true_energy", "true_energy"]
    assert np.allclose([e.a_cr for e in events], [0.6, 0.7], atol=1e-12)
    assert events[0].pair == (1, 2)  # levels 2 and 0: the constant and 1-a/2
    assert events[1].pair == (0, 1)
    assert abs(events[0].max_width_split - 0.2) < 1e-12
    assert abs(events[1].max_width_split - 0.1) < 1e-12
    assert not any(e.exchange_detected for e in events)


def test_grid_point_true_crossing_zero_split():
    sc = scenario(["1 - a", "a"], [0.5, 0.5], grid=(0.0, 1.0, 3))
    res = run_sweep(sc)
    assert not any(t.defective.any() for t in res.trajectories)
    events = detect_crossings(res)
    assert len(events) == 1
    ev = events[0]
    assert ev.kind == "true_energy"
    assert ev.a_cr == 0.5
    assert ev.max_width_split == 0.0
    assert not ev.exchange_detected


def test_true_crossing_records_width_gap():
    sc = scenario(["1 - a", "a"], [0.5, 0.3], grid=(0.0, 1.0, 3))
    events = detect_crossings(run_sweep(sc))
    assert len(events) == 1
    assert events[0].kind == "true_energy"
    assert abs(events[0].max_width_split - 0.2) < 1e-12


def test_avoided_crossing_with_exchange():
    # half-width gap 0.0999 just below the 2|omega| = 0.1 threshold:
    # energies repel, widths cross, unperturbed identities swap
    sc = scenario(
        ["1 - a/2", "a"], [0.5, 0.5999], omega=0.05, grid=(0.0, 1.5, 301)
    )
    res = run_sweep(sc)
    events = detect_crossings(res)
    assert [e.kind for e in events] == ["avoided_energy"]
    ev = events[0]
    assert abs(ev.a_cr - 2.0 / 3.0) < 0.01
    assert 0.0 < ev.max_width_split <= 0.1 + 1e-12
    assert ev.exchange_detected
    assert not any(t.defective.any() for t in res.trajectories)


def test_imaginary_coupling_true_energy_interval():
    # purely imaginary coupling pins the energies together over a whole
    # sub-interval while the widths bifurcate by up to 2|omega|; the
    # 299-point grid steps over both interval-edge degeneracies
    sc = scenario(
        ["1 - a/2", "a"], [0.5, 0.5], omega=0.05j, grid=(0.0, 1.5, 299)
    )
    res = run_sweep(sc)
    events = detect_crossings(res)
    assert [e.kind for e in events] == ["true_energy"]
    ev = events[0]
    assert abs(ev.a_cr - 2.0 / 3.0) < 0.01
    assert 0.09 < ev.max_width_split <= 0.1
    assert not any(t.defective.any() for t in res.trajectories)


def test_grid_point_on_coalescence_is_reported():
    # same system on a 301-point grid: a=0.6 is a grid point and sits
    # exactly on one edge of the pinned interval, where the two states
    # merge into a single defective pair
    sc = scenario(
        ["1 - a/2", "a"], [0.5, 0.5], omega=0.05j, grid=(0.0, 1.5, 301)
    )
    res = run_sweep(sc)
    events = detect_crossings(res)
    assert [e.kind for e in events] == ["coalescence", "true_energy"]
    ev = events[0]
    assert abs(ev.a_cr - 0.6) < 1e-12
    assert ev.pair == (0, 1)
    assert ev.max_width_split == 0.0
    k = np.argmin(np.abs(res.a - 0.6))
    assert all(t.defective[k] for t in res.trajectories)
    first, second = res.trajectories
    assert first.values[k] == second.values[k]


def test_branch_values_cover_the_spectrum():
    sc = scenario(
        ["1 - a/2", "a", "11/10 - a/2"],
        [0.5, 0.4, 0.6],
        omega=0.05 + 0.05j,
        profile="gaussian",
        grid=(0.0, 1.5, 101),
    )
    res = run_sweep(sc)
    h = build_hamiltonian_batch(sc, res.a)
    raw = eigenvalues_batch(h)
    tracked = np.stack([t.values for t in res.trajectories], axis=1)
    order_raw = np.lexsort((raw.imag, raw.real), axis=1)
    order_tracked = np.lexsort((tracked.imag, tracked.real), axis=1)
    rows = np.arange(raw.shape[0])[:, None]
    assert np.array_equal(raw[rows, order_raw], tracked[rows, order_tracked])


def test_block_size_is_invisible(monkeypatch):
    sc = scenario(
        ["1 - a/2", "a"], [0.5, 0.5999], omega=0.05, profile="gaussian",
        grid=(0.0, 1.5, 97),
    )
    whole = run_sweep(sc)
    monkeypatch.setattr("levelcross.eigensolve.SOLVE_BLOCK", 16)  # 7 blocks, not 1
    blocked = run_sweep(sc)
    for tw, tb in zip(whole.trajectories, blocked.trajectories):
        assert np.array_equal(tw.values, tb.values)
        assert np.array_equal(tw.vectors, tb.vectors)
        assert np.array_equal(tw.norm_a, tb.norm_a)
        assert np.all(tw.norm_a >= 1.0 - 1e-12)
        assert np.array_equal(tw.defective, tb.defective)


def twin_fig1():
    """Two identical copies of fig1 that do not couple to each other."""
    fig1 = preset("fig1")
    coupling = replace(fig1.coupling, active_pairs=frozenset({(0, 1), (2, 3)}))
    return replace(fig1, label="twin", levels=fig1.levels * 2, coupling=coupling)


def test_symmetric_twin_holds_exactly_equal_pairs(tmp_path, monkeypatch):
    sc = twin_fig1()
    values = solve_spectrum_batch(build_hamiltonian_batch(sc, sc.sweep.points())).values
    assert values.shape == (2001, 4)
    assert np.array_equal(values[:, 0::2], values[:, 1::2])
    path = tmp_path / "twin.json"
    save_scenario(sc, path)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "1")]) == 0
    monkeypatch.setattr("levelcross.eigensolve.SOLVE_BLOCK", 16)  # 126 blocks, not 1
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "126")]) == 0
    assert (tmp_path / "1" / "trajectories.csv").read_bytes() == (
        tmp_path / "126" / "trajectories.csv"
    ).read_bytes()


def assert_best_assignment_matches_brute_force():
    # reference: scan the permutations in lexicographic order, keep the
    # best score, break near-ties by the smaller tiebreak sum
    rng = np.random.default_rng(83)
    for n, k in [(1, 40), (2, 40), (3, 40), (4, 40), (5, 40), (6, 8), (7, 3), (8, 2)]:
        score = np.round(rng.uniform(size=(k, n, n)), 1)  # rounding makes ties
        tiebreak = np.round(rng.uniform(size=(k, n, n)), 1)
        got = _best_assignment(score, tiebreak)
        assert got.shape == (k, n)
        rows = np.arange(n)
        perms = list(itertools.permutations(range(n)))
        for m in range(k):
            totals = [score[m, rows, list(p)].sum() for p in perms]
            best = max(totals)
            cands = [
                (tiebreak[m, rows, list(p)].sum(), i)
                for i, p in enumerate(perms)
                if totals[i] >= best - MATCH_TIE_TOL
            ]
            assert tuple(got[m]) == perms[min(cands)[1]]


def test_best_assignment_matches_brute_force_per_matrix():
    assert_best_assignment_matches_brute_force()


def test_best_assignment_is_the_same_across_blocks(monkeypatch):
    # 7 scores per block: blocks of 7 and 3 matrices, each with a shorter
    # last block, at n = 1 and 2, and one matrix per block from n = 3 on
    monkeypatch.setattr(sweep, "MATCH_BLOCK", 7)
    assert_best_assignment_matches_brute_force()


def test_best_assignment_memory_is_bounded():
    # gathering all 8! permutations of 100 steps at once peaks at 308 MB
    score = np.random.default_rng(5).uniform(size=(100, 8, 8))
    tracemalloc.start()
    try:
        _best_assignment(score, score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_match_branches_prefers_vector_overlap():
    # the eigenvalues move; only the vectors identify the branches
    h1 = np.diag([0.3 - 0.5j, 0.7 - 0.3j])
    h2 = np.diag([0.7 - 0.5j, 0.3 - 0.3j])
    steps = _step_permutations(solve_spectrum_batch(np.stack([h1, h1, h2])))
    assert steps.tolist() == [[0, 1], [1, 0]]


def test_match_branches_defective_fallback():
    # a step touching a defective point is matched on eigenvalues alone:
    # the vectors below would swap the branches, proximity must not. h_near
    # enters through eigenvalues_batch because its full solve trips the
    # biorthogonality check (overlap 1.17e-8 at gap 6.3e-5): a known
    # near-EP accuracy fault of the eigensolver, not of the matcher
    h_ep = np.array([[2.0 / 3.0 - 0.5j, 0.05], [0.05, 2.0 / 3.0 - 0.6j]])
    h_near = h_ep + np.diag([1e-8, -1e-8])
    ep = solve_spectrum_batch(h_ep[None])
    assert ep.defective.all()
    batch = replace(
        ep,
        values=eigenvalues_batch(np.stack([h_ep, h_near])),
        vectors=np.stack([np.eye(2), np.eye(2)[::-1]]).astype(complex),
        defective=np.concatenate([ep.defective, [[False, False]]]),
    )
    assert _step_permutations(batch).tolist() == [[0, 1]]
    regular = replace(batch, defective=np.zeros_like(batch.defective))
    assert _step_permutations(regular).tolist() == [[1, 0]]


def test_solver_error_names_the_grid_point(monkeypatch):
    sc = scenario(["1 - a/2", "a"], [0.5, 0.5], grid=(0.0, 1.5, 151))

    def explode(h):
        raise RootConvergenceError(3, 1.0)

    monkeypatch.setattr("levelcross.sweep.solve_spectrum_batch", explode)
    with pytest.raises(SolverError, match="grid point a=0.03"):
        run_sweep(sc)


def test_biorthogonality_error_names_the_grid_point(monkeypatch):
    sc = scenario(["1 - a/2", "a"], [0.5, 0.5], grid=(0.0, 1.5, 151))

    def explode(h):
        raise BiorthogonalityError(3, 1.168e-08)

    monkeypatch.setattr("levelcross.sweep.solve_spectrum_batch", explode)
    with pytest.raises(SolverError, match=r"grid point a=0\.03: bilinear overlap 1\.168e-08"):
        run_sweep(sc)


def overflow_window():
    """Level 1 peaks at 1e160 around a = 0.7: the root iteration fails on
    grid points 4513 to 4819 of 10^4, with residual inf on 4520 to 4813,
    where the characteristic polynomial overflows at the roots."""
    return scenario(["1e160/(1 + 2e9*(a - 0.7)^2)", "a"], [0.5, 0.5], grid=(0.0, 1.5, 10**4))


STUB_OVERLAPS = {879: 1.0e-08, 882: 1.1e-08, 1092: 1.168e-08}


def fail_at_stub_points(monkeypatch):
    """A fig1-like sweep over [-0.5, 2] whose solver fails the check at
    grid points 879, 882 and 1092, each block naming its worst point."""
    sc = scenario(["1 - a/2", "a"], [0.5, 0.5], omega=0.05, grid=(-0.5, 2.0, 2001))
    overlaps = {sc.sweep.points()[k]: v for k, v in STUB_OVERLAPS.items()}

    def stub(h):  # h[:, 1, 1].real is the grid point a
        found = [(overlaps[a], k) for k, a in enumerate(h[:, 1, 1].real) if a in overlaps]
        if found:
            raise BiorthogonalityError(max(found)[1], max(found)[0])
        return solve_spectrum_batch(h)

    monkeypatch.setattr("levelcross.sweep.solve_spectrum_batch", stub)
    return sc


@pytest.mark.parametrize("block", [None, 256, 16])
@pytest.mark.parametrize("case", ["overflow window", "stub overlaps"])
def test_failure_message_does_not_depend_on_blocks(monkeypatch, case, block):
    # the message one solve of the whole grid gives; with 256-row blocks
    # the window fails in blocks 17 and 18, where the first inf residual
    # counts, and the stub in blocks 3 and 4, where block 4 holds the worst
    if case == "overflow window":
        sc, want = overflow_window(), (
            "eigensolver failed at grid point a=0.6780678067806781: root iteration did not "
            "converge (batch index 4520, residual inf)"
        )
    else:
        sc, want = fail_at_stub_points(monkeypatch), (
            "eigensolver failed at grid point a=0.865: bilinear overlap 1.168e-08 for "
            "well-separated eigenpairs (batch index 1092)"
        )
    if block:
        monkeypatch.setattr("levelcross.eigensolve.SOLVE_BLOCK", block)
    with pytest.raises(SolverError) as info:
        run_sweep(sc)
    assert str(info.value) == want


def test_tunable_override_reaches_branches():
    # a tuned sweep is a sweep of the scenario with the level replaced
    sc = scenario(["1 - a/2", "a"], [0.5, 0.4], grid=(0.0, 1.5, 151))
    tuned = replace(sc, levels=(sc.levels[0], replace(sc.levels[1], half_width=0.7)))
    res = run_sweep(tuned)
    override = build_hamiltonian_batch(sc, res.a, tunable=Tunable("gamma_half", 1), value=0.7)
    assert build_hamiltonian_batch(tuned, res.a).tobytes() == override.tobytes()
    t = res.by_start_level(1)
    np.testing.assert_allclose(t.gamma_half, 0.7, atol=1e-10)
    assert abs(res.bare[-1, 1].imag + 0.7) < 1e-15


def test_grid_refinement_keeps_branches():
    # near-critical avoided crossing: the vector mixing zone is a few
    # thousandths of a wide, so both grids must resolve it before the
    # tracked branches can be compared point by point
    coarse = scenario(
        ["1 - a/2", "a"], [0.5, 0.5999], omega=0.05, profile="gaussian",
        grid=(0.0, 1.5, 1001),
    )
    fine = scenario(
        ["1 - a/2", "a"], [0.5, 0.5999], omega=0.05, profile="gaussian",
        grid=(0.0, 1.5, 2001),
    )
    rc, rf = run_sweep(coarse), run_sweep(fine)
    np.testing.assert_allclose(rc.a, rf.a[::2], atol=1e-14)
    for tc, tf in zip(rc.trajectories, rf.trajectories):
        assert tc.start_level == tf.start_level
        np.testing.assert_allclose(tc.energy, tf.energy[::2], atol=1e-9)
        np.testing.assert_allclose(tc.gamma_half, tf.gamma_half[::2], atol=1e-9)


@pytest.mark.parametrize("block", [1, 3, 16])
def test_one_assembly_per_sweep(monkeypatch, block):
    monkeypatch.setattr("levelcross.eigensolve.SOLVE_BLOCK", block)  # 151, 51 or 10 blocks, not 1
    calls = []

    def counting(sc, a, **kwargs):
        calls.append(len(a))
        return build_hamiltonian_batch(sc, a, **kwargs)

    monkeypatch.setattr("levelcross.sweep.build_hamiltonian_batch", counting)
    sc = scenario(["1 - a/2", "a"], [0.5, 0.4], omega=0.05, grid=(0.0, 1.5, 151))
    run_sweep(sc)
    assert calls == [151]


def coupling_free_diagonal(sc, a, tunable=None, value=None):
    """The bare energies as the diagonal of H with couplings and
    selfenergies switched off."""
    free = CouplingSpec(omega=0.0, profile="constant", active_pairs=(), selfenergy={})
    h = build_hamiltonian_batch(replace(sc, coupling=free), a, tunable=tunable, value=value)
    return np.diagonal(h, axis1=1, axis2=2)


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_bare_matches_the_coupling_free_diagonal(pid):
    sc = preset(pid)
    sc = replace(sc, sweep=SweepGrid(sc.sweep.a_min, sc.sweep.a_max, 101))
    res = run_sweep(sc)
    assert res.bare.tobytes() == coupling_free_diagonal(sc, res.a).tobytes()


@pytest.mark.parametrize("kind", ["gamma_half", "energy_offset"])
@pytest.mark.parametrize("per_point", [False, True])
def test_bare_matches_the_coupling_free_diagonal_under_a_tunable(kind, per_point):
    sc = preset("fig7")  # the preset with a selfenergy
    sc = replace(sc, sweep=SweepGrid(sc.sweep.a_min, sc.sweep.a_max, 101))
    tunable = Tunable(kind, 3)
    value = np.linspace(0.2, 0.7, 101) if per_point else 0.3
    a = sc.sweep.points()
    want = coupling_free_diagonal(sc, a, tunable, value)
    assert bare_levels(sc, a, tunable=tunable, value=value).tobytes() == want.tobytes()


def test_by_start_level_lookup():
    sc = scenario(["1 - a/2", "a"], [0.5, 0.4], grid=(0.0, 1.5, 11))
    res = run_sweep(sc)
    assert res.by_start_level(0).start_level == 0
    with pytest.raises(KeyError):
        res.by_start_level(5)


# ---------------------------------------------------------------------------
# whole-array crossing scan against the per-point loops


def reference_runs(mask):
    out = []
    k = 0
    m = mask.shape[0]
    while k < m:
        if mask[k]:
            start = k
            while k + 1 < m and mask[k + 1]:
                k += 1
            out.append((start, k))
        k += 1
    return out


def reference_valleys(depth, tol):
    out = []
    m = depth.shape[0]
    for k in range(1, m - 1):
        if not (depth[k] < depth[k - 1] and depth[k] < depth[k + 1]):
            continue
        if depth[k] <= tol:
            continue
        lo = k
        while lo > 0 and depth[lo - 1] >= depth[lo]:
            lo -= 1
        hi = k
        while hi < m - 1 and depth[hi + 1] >= depth[hi]:
            hi += 1
        out.append((k, lo, hi))
    return out


def scan_inputs():
    """Seeded arrays with plateaus, monotone stretches, nan entries and
    lengths from 1 up."""
    rng = np.random.default_rng(20121)
    arrays = [
        np.array([0.5]),
        np.array([0.5, 0.2]),
        np.array([0.5, 0.2, 0.5]),
        np.array([0.2, 0.2, 0.2]),
        np.array([0.5, np.nan, 0.5]),
        np.arange(40.0),
        np.arange(40.0)[::-1].copy(),
        np.full(25, 0.3),
    ]
    for _ in range(300):
        m = int(rng.integers(1, 60))
        depth = rng.integers(0, 5, size=m) * 0.25     # coarse levels: many plateaus
        if rng.random() < 0.5:
            depth = depth + rng.random(m) * 1e-3
        if rng.random() < 0.3:
            depth[rng.random(m) < 0.1] = np.nan
        arrays.append(depth)
    return arrays


def test_runs_match_the_per_point_loop():
    rng = np.random.default_rng(7)
    masks = [np.zeros(m, dtype=bool) for m in (1, 2, 3, 17)]
    masks += [np.ones(m, dtype=bool) for m in (1, 2, 3, 17)]
    masks += [rng.random(int(rng.integers(1, 60))) < p for p in np.linspace(0, 1, 200)]
    masks += [depth < 0.5 for depth in scan_inputs()]
    for mask in masks:
        assert _runs(mask) == reference_runs(mask)


def test_valleys_match_the_per_point_walk():
    for depth in scan_inputs():
        for tol in (-1.0, 0.0, 0.25, 0.6, 2.0):
            assert _valleys(depth, tol) == reference_valleys(depth, tol)


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_detect_crossings_matches_the_per_point_scan(pid, monkeypatch):
    sc = preset(pid)
    res = run_sweep(replace(sc, sweep=SweepGrid(sc.sweep.a_min, sc.sweep.a_max, 2001)))
    events = detect_crossings(res)
    monkeypatch.setattr("levelcross.sweep._runs", reference_runs)
    monkeypatch.setattr("levelcross.sweep._valleys", reference_valleys)
    assert detect_crossings(res) == events
