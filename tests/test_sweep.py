"""Branch tracking and crossing classification on designed scenarios."""

import itertools
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
from levelcross.expressions import parse_expr
from levelcross.model import (
    CouplingSpec,
    LevelSpec,
    Scenario,
    SweepGrid,
    Tunable,
    build_hamiltonian_batch,
)
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
    assert [t.start_level for t in res] == [1, 2, 0]
    assert [t.branch_id for t in res] == [0, 1, 2]
    expected_e = {0: 1 - a / 2, 1: a, 2: np.full_like(a, 0.7)}
    expected_g = {0: 0.5, 1: 0.4, 2: 0.3}
    for t in res:
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
    assert not any(t.defective.any() for t in res)
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
    assert not any(t.defective.any() for t in res)


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
    assert not any(t.defective.any() for t in res)


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
    assert all(t.defective[k] for t in res)
    assert res[0].energy[k] == res[1].energy[k]
    assert res[0].gamma_half[k] == res[1].gamma_half[k]


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
    tracked = np.stack([t.energy - 1j * t.gamma_half for t in res], axis=1)
    order_raw = np.lexsort((raw.imag, raw.real), axis=1)
    order_tracked = np.lexsort((tracked.imag, tracked.real), axis=1)
    rows = np.arange(raw.shape[0])[:, None]
    assert np.array_equal(raw[rows, order_raw], tracked[rows, order_tracked])


def test_worker_count_is_invisible():
    sc = scenario(
        ["1 - a/2", "a"], [0.5, 0.5999], omega=0.05, profile="gaussian",
        grid=(0.0, 1.5, 97),
    )
    res1 = run_sweep(sc, workers=1)
    res4 = run_sweep(sc, workers=4)
    for t1, t4 in zip(res1, res4):
        assert np.array_equal(t1.energy, t4.energy)
        assert np.array_equal(t1.gamma_half, t4.gamma_half)
        assert np.array_equal(t1.vectors, t4.vectors)
        assert np.array_equal(t1.norm_a, t4.norm_a)
        assert np.array_equal(t1.cross_norms, t4.cross_norms)
        assert np.array_equal(t1.defective, t4.defective)


def test_best_assignment_matches_brute_force_per_matrix():
    # reference: scan the permutations in lexicographic order, keep the
    # best score, break near-ties by the smaller tiebreak sum
    rng = np.random.default_rng(83)
    for n in range(1, 6):
        score = np.round(rng.uniform(size=(40, n, n)), 1)  # rounding makes ties
        tiebreak = np.round(rng.uniform(size=(40, n, n)), 1)
        got = _best_assignment(score, tiebreak)
        assert got.shape == (40, n)
        for k in range(40):
            rows = np.arange(n)
            perms = list(itertools.permutations(range(n)))
            totals = [score[k, rows, list(p)].sum() for p in perms]
            best = max(totals)
            cands = [
                (tiebreak[k, rows, list(p)].sum(), i)
                for i, p in enumerate(perms)
                if totals[i] >= best - MATCH_TIE_TOL
            ]
            assert tuple(got[k]) == perms[min(cands)[1]]


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


def test_tunable_override_reaches_branches():
    sc = scenario(["1 - a/2", "a"], [0.5, 0.4], grid=(0.0, 1.5, 151))
    res = run_sweep(sc, tunable=Tunable("gamma_half", 1), value=0.7)
    t = res.by_start_level(1)
    np.testing.assert_allclose(t.gamma_half, 0.7, atol=1e-10)
    assert abs(res.bare[-1, 1].imag + 0.7) < 1e-15


def test_tunable_per_point_array_survives_chunking():
    sc = scenario(["1 - a/2", "a"], [0.5, 0.4], grid=(0.0, 1.5, 151))
    ramp = np.linspace(0.3, 0.7, 151)
    res = run_sweep(sc, tunable=Tunable("gamma_half", 1), value=ramp, workers=3)
    np.testing.assert_allclose(
        res.by_start_level(1).gamma_half, ramp, atol=1e-10
    )


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
    for tc, tf in zip(rc, rf):
        assert tc.start_level == tf.start_level
        np.testing.assert_allclose(tc.energy, tf.energy[::2], atol=1e-9)
        np.testing.assert_allclose(tc.gamma_half, tf.gamma_half[::2], atol=1e-9)


def test_cross_norms_are_branch_ordered():
    sc = scenario(
        ["1 - a/2", "a"], [0.5, 0.5999], omega=0.05, profile="gaussian",
        grid=(0.0, 1.5, 101),
    )
    res = run_sweep(sc)
    for t in res:
        assert np.all(t.cross_norms[:, t.branch_id] == 0.0)
        assert np.all(t.norm_a >= 1.0 - 1e-12)
    t0, t1 = res[0], res[1]
    assert np.array_equal(t0.cross_norms[:, 1], t1.cross_norms[:, 0])


def test_by_start_level_lookup():
    sc = scenario(["1 - a/2", "a"], [0.5, 0.4], grid=(0.0, 1.5, 11))
    res = run_sweep(sc)
    assert res.by_start_level(0).start_level == 0
    with pytest.raises(KeyError):
        res.by_start_level(5)
    assert len(res) == 2
    assert res[0] is res.trajectories[0]


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
