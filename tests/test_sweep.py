"""Branch tracking and crossing classification on designed scenarios."""

import itertools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from levelcross.eigensolve import (
    EPS,
    BiorthogonalityError,
    RootConvergenceError,
    SolverError,
    SpectrumBatch,
    eigenvalues_batch,
    pair_indices,
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
    scenario_from_dict,
)
from levelcross import eigensolve, sweep
from levelcross.presets import PRESET_IDS, preset
from levelcross.sweep import (
    MATCH_BLOCK,
    MATCH_TIE_TOL,
    _best_assignment,
    _runs,
    _step_permutations,
    _valleys,
    detect_crossings,
    run_sweep,
)
from test_eigensolve import star_spec


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
    assert not res.branches.defective.any()
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
    assert not res.branches.defective.any()


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
    assert not res.branches.defective.any()


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
    assert res.branches.defective[k].all()
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
    tracked = res.branches.values
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
    for field in fields(SpectrumBatch):
        name = field.name
        assert np.array_equal(getattr(whole.branches, name), getattr(blocked.branches, name)), name
    assert np.all(whole.branches.norm_a >= 1.0 - 1e-12)


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
    # 7 scores per block: blocks of 7 matrices, with a shorter last block,
    # at n = 1, and one matrix per block from n = 2 on
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


def reference_best_assignment(score, tiebreak):
    """_best_assignment as it was: every permutation of every matrix
    enumerated at once, the totals added row by row from row 0."""
    perms = sweep._permutations(score.shape[-1])
    totals, ties = score[:, 0, perms[:, 0]], tiebreak[:, 0, perms[:, 0]]
    for i in range(1, perms.shape[1]):
        totals = totals + score[:, i, perms[:, i]]
        ties = ties + tiebreak[:, i, perms[:, i]]
    cand = totals >= totals.max(axis=1, keepdims=True) - MATCH_TIE_TOL
    return perms[np.argmin(np.where(cand, ties, np.inf), axis=1)]


def gap_sum_and_margin(s):
    """The two smallest row gaps' sum and the fast path's margin for one
    (n, n) score, rounded as _best_assignment rounds them."""
    n = s.shape[-1]
    top = np.sort(s, axis=1)
    gaps = np.sort(top[:, -1] - top[:, -2])
    size = np.maximum(top[:, -1], -top[:, 0]).sum()
    return gaps[0] + gaps[1], (2 * n * EPS) * size + 2 * MATCH_TIE_TOL


def near_tie(rng, n, centre):
    """An (n, n) score around `centre` whose row maxima form sigma, the
    runners-up of rows 0 and 1 in each other's maximum's column, twice:
    with their gap sum one ulp step above the margin and at or below it.
    The tiebreak prefers sigma with those two rows swapped."""
    sigma = rng.permutation(n)
    s = centre - rng.uniform(0.5, 1.0, size=(n, n))
    s[np.arange(n), sigma] = centre
    tiebreak = np.zeros((n, n))
    tiebreak[[0, 1], sigma[:2]] = 1.0
    margin = gap_sum_and_margin(s)[1]  # the runners-up set below do not move it
    s[0, sigma[1]] = s[1, sigma[0]] = centre - margin / 2
    start_above = gap_sum_and_margin(s)[0] > margin
    toward = np.inf if start_above else -np.inf  # up: smaller gap, down: larger
    while True:
        before = s.copy()
        s[1, sigma[0]] = np.nextafter(s[1, sigma[0]], toward)
        if (gap_sum_and_margin(s)[0] > margin) != start_above:
            above, below = (before, s) if start_above else (s, before)
            return sigma, above, below, tiebreak


@pytest.mark.parametrize("centre", [1.0, -1e6], ids=["overlaps", "fallback_1e6"])
def test_best_assignment_either_side_of_the_fast_path_margin(centre):
    # -1e6 stands for a fallback step's -|lambda_i - lambda_j| between
    # eigenvalues 1e6 apart: there the rounding term of the margin is
    # about 1e4 times MATCH_TIE_TOL. A tiebreak of +inf shows the path
    # taken: the enumeration turns it into the first permutation, the
    # fast path never reads it
    rng = np.random.default_rng(19)
    for n in range(2, 9):
        sigma, above, below, tiebreak = near_tie(rng, n, centre)
        gaps_above, margin = gap_sum_and_margin(above)
        assert gaps_above > margin >= gap_sum_and_margin(below)[0]
        blind = np.full((1, n, n), np.inf)
        for s, path in ((above, sigma), (below, np.arange(n))):
            want = reference_best_assignment(s[None], tiebreak[None])
            assert np.array_equal(_best_assignment(s[None], tiebreak[None]), want)
            assert np.array_equal(want[0], sigma)
            assert np.array_equal(_best_assignment(s[None], blind)[0], path)


def test_fast_path_margin_needs_its_rounding_term():
    # two gaps of one ulp of 4e6 sum to 9.3e-10, far above 2 MATCH_TIE_TOL,
    # yet the enumerated totals round the runner-up onto sigma's total and
    # the tiebreak picks the runner-up: the margin's n eps A term (1.6e-8
    # and more here) sends these steps to the enumeration
    rng = np.random.default_rng(23)
    for n in range(3, 9):
        sigma = np.arange(n)[::-1].copy()
        centre = -4e6
        s = centre - rng.uniform(0.5, 1.0, size=(n, n))
        s[np.arange(n), sigma] = centre
        s[0, sigma[1]] = s[1, sigma[0]] = np.nextafter(centre, -np.inf)
        tiebreak = np.zeros((n, n))
        tiebreak[[0, 1], sigma[:2]] = 1.0
        gaps, margin = gap_sum_and_margin(s)
        assert 2 * MATCH_TIE_TOL < gaps <= margin
        want = reference_best_assignment(s[None], tiebreak[None])
        assert not np.array_equal(want[0], sigma)
        assert np.array_equal(_best_assignment(s[None], tiebreak[None]), want)


def clean_steps(rng, n, k):
    """k near-permutation overlap matrices: 0.6 at a random permutation,
    noise in [0, 0.4) everywhere."""
    score = 0.4 * rng.uniform(size=(k, n, n))
    sigma = np.array([rng.permutation(n) for _ in range(k)])
    score[np.arange(k)[:, None], np.arange(n), sigma] += 0.6
    return score


@pytest.mark.parametrize("n", [6, 7, 8])
def test_best_assignment_matches_linear_sum_assignment(n):
    # scipy's Hungarian solver, an independent oracle for the matcher
    score = clean_steps(np.random.default_rng(60 + n), n, 2000)
    got = _best_assignment(score, score)
    for step, want in zip(score, got):
        rows, cols = linear_sum_assignment(step, maximize=True)
        assert np.array_equal(cols, want)


def test_clean_steps_skip_the_enumeration():
    # one enumeration block gathers MATCH_BLOCK scores (8 MB); 2000 clean
    # 8-level steps need none of them
    score = clean_steps(np.random.default_rng(8), 8, 2000)
    sweep._permutations(8)  # the cached 8! table is built once per process, not per call
    tracemalloc.start()
    try:
        _best_assignment(score, score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MATCH_BLOCK * 8 // 2


def test_best_assignment_matches_the_full_enumeration_on_random_stacks():
    # scores over many magnitudes and both signs, some rows with tiny gaps:
    # fast and enumerated matrices in one stack
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        score = rng.normal(size=(400, n, n)) * 10.0 ** rng.integers(-6, 7, size=(400, 1, 1))
        rows = np.arange(400)[:, None]
        top = score.max(axis=2)
        score[rows, np.arange(n), rng.permuted(np.tile(np.arange(n), (400, 1)), axis=1)] = (
            top + np.abs(top) * 10.0 ** rng.uniform(-17, -10, size=(400, n))
        )
        tiebreak = rng.uniform(size=(400, n, n))
        want = reference_best_assignment(score, tiebreak)
        assert np.array_equal(_best_assignment(score, tiebreak), want)


def sized(case, steps):
    """A preset, the twin or a star scenario on a steps-point grid."""
    if case.startswith("star"):
        return scenario_from_dict(star_spec(int(case[4:]), steps))
    sc = twin_fig1() if case == "twin" else preset(case)
    return replace(sc, sweep=SweepGrid(sc.sweep.a_min, sc.sweep.a_max, steps))


@pytest.mark.parametrize(
    "case",
    [*PRESET_IDS, "star2", "star3", "star4", "star5", "star6"],
)
def test_matcher_decisions_match_the_full_enumeration(case, monkeypatch):
    # every _best_assignment call of a sweep and its crossing scan: the
    # step permutations, the start levels and the end levels
    best = sweep._best_assignment
    calls = []

    def recorded(score, tiebreak):
        calls.append((score, tiebreak, best(score, tiebreak)))
        return calls[-1][2]

    monkeypatch.setattr("levelcross.sweep._best_assignment", recorded)
    # star6 fails its biorthogonality check at 2001 points (test_solver_faults.py)
    sizes = (101,) if case == "star6" else (101, 2001) if case.startswith("star") else (101, 2001, 10_000)
    for steps in sizes:
        calls.clear()
        detect_crossings(run_sweep(sized(case, steps)))
        # the steps in blocks of SOLVE_BLOCK, then the start and end levels
        *blocks, start, end = [len(score) for score, _, _ in calls]
        assert len(blocks) == -(-(steps - 1) // eigensolve.SOLVE_BLOCK)
        assert max(blocks) <= eigensolve.SOLVE_BLOCK and sum(blocks) == steps - 1
        assert (start, end) == (1, 1)
        for score, tiebreak, got in calls:
            assert np.array_equal(got, reference_best_assignment(score, tiebreak))


@pytest.mark.parametrize(
    "case, steps",
    [
        ("fig4", 10_000),
        ("fig5", 10_000),
        ("two_cross_two", 10_000),
        ("twin", 2001),
        *((f"star{n}", 2001) for n in range(2, 6)),
    ],
)
def test_step_permutations_do_not_depend_on_the_block(case, steps, monkeypatch):
    sc = sized(case, steps)
    batch = solve_spectrum_batch(build_hamiltonian_batch(sc, sc.sweep.points()))
    got = []
    for block in (16, 4096, steps):  # 625 or 125 blocks, 3 or 1, and 1
        monkeypatch.setattr("levelcross.eigensolve.SOLVE_BLOCK", block)
        got.append(_step_permutations(batch))
    assert got[0].shape == (steps - 1, batch.values.shape[1])
    for perms in got[1:]:
        assert perms.dtype == got[0].dtype and np.array_equal(perms, got[0])


def test_step_block_edges_on_fallback_steps(monkeypatch):
    # fig3 with a constant coupling profile has its EP at a = 0.6, grid
    # point 1200 of 3001, so steps 1199 and 1200 fall back to eigenvalue
    # distance. Two more pairs of levels cross, one inside each step,
    # where distance swaps them and the overlaps do not: the fallback
    # decides both steps. A block edge is put before, between and after
    # the two steps.
    sc = scenario(
        ["1 - a/2", "a", "2 + (a - 0.59975)", "2 - (a - 0.59975)",
         "3 + (a - 0.60025)", "3 - (a - 0.60025)"],
        [0.5, 0.5, 0.3, 0.3, 0.2, 0.2],
        omega=0.05j, pairs=[(0, 1)], grid=(0.0, 1.5, 3001),
    )
    batch = solve_spectrum_batch(build_hamiltonian_batch(sc, sc.sweep.points()))
    any_def = batch.defective.any(axis=1)
    assert np.flatnonzero(any_def[:-1] | any_def[1:]).tolist() == [1199, 1200]
    whole = _step_permutations(batch)
    by_overlap = _step_permutations(replace(batch, defective=np.zeros_like(batch.defective)))
    assert np.flatnonzero((whole != by_overlap).any(axis=1)).tolist() == [1199, 1200]
    for block in (1199, 1200, 1201):
        monkeypatch.setattr("levelcross.eigensolve.SOLVE_BLOCK", block)
        assert np.array_equal(_step_permutations(batch), whole), block


def test_step_tables_memory_is_bounded():
    # a 4-level spectrum of random unit vectors, not solved: the tables of
    # the whole sweep at once took 64 MB at 10^5 points, blocks take one
    # block's worth at any length, beside the (m-1, n) result
    rng = np.random.default_rng(11)

    def peak(m):
        vectors = rng.normal(size=(m, 4, 4)) + 1j * rng.normal(size=(m, 4, 4))
        vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
        batch = SpectrumBatch(
            values=rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4)),
            vectors=vectors,
            defective=np.zeros((m, 4), dtype=bool),
            norm_a=np.ones((m, 4)),
            residual=np.zeros(m),
        )
        tracemalloc.start()
        try:
            _step_permutations(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10**5) <= 1.5 * peak(2 * eigensolve.SOLVE_BLOCK)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_per_order_tables_refuse_writes(n):
    # each table is cached once per order and shared by every caller
    for table in (*pair_indices(n), sweep._permutations(n)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


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


def reference_follow(start, steps):
    """The per-point loop that _follow replaces."""
    idx = np.empty((len(steps) + 1, len(start)), dtype=int)
    idx[0] = start
    for t in range(1, len(idx)):
        idx[t] = steps[t - 1][idx[t - 1]]
    return idx


@pytest.mark.parametrize("pid", [*PRESET_IDS, "twin"])
def test_branch_indices_match_the_per_point_loop(pid, monkeypatch):
    sc = twin_fig1() if pid == "twin" else preset(pid)
    follow = sweep._follow
    calls = []

    def recorded(start, steps):
        calls.append((start, steps, follow(start, steps)))
        return calls[-1][2]

    monkeypatch.setattr("levelcross.sweep._follow", recorded)
    run_sweep(replace(sc, sweep=SweepGrid(sc.sweep.a_min, sc.sweep.a_max, 2001)))
    [(start, steps, got)] = calls
    assert steps.shape == (2000, sc.n)
    assert np.array_equal(got, reference_follow(start, steps))
    # shorter grids, at and around the lengths where the doubling adds a pass
    for m in (1, 2, 3, 1024, 1025):
        head = steps[: m - 1]
        assert np.array_equal(follow(start, head), reference_follow(start, head))


@pytest.mark.parametrize("pid", [*PRESET_IDS, "twin"])
def test_branch_tables_are_the_per_point_gather(pid, monkeypatch):
    sc = twin_fig1() if pid == "twin" else preset(pid)
    step, follow = sweep._step_permutations, sweep._follow
    seen = {}
    monkeypatch.setattr(
        "levelcross.sweep._step_permutations", lambda batch: step(seen.setdefault("batch", batch))
    )
    monkeypatch.setattr(
        "levelcross.sweep._follow", lambda start, steps: seen.setdefault("idx", follow(start, steps))
    )
    result = run_sweep(replace(sc, sweep=SweepGrid(sc.sweep.a_min, sc.sweep.a_max, 2001)))
    batch, idx = seen["batch"], seen["idx"]
    rows = np.arange(2001)
    assert result.branches.residual.tobytes() == batch.residual.tobytes()
    for name in ("values", "vectors", "defective", "norm_a"):
        table = getattr(result.branches, name)
        for b, trajectory in enumerate(result.trajectories):
            want = getattr(batch, name)[rows, idx[:, b]]
            assert table[:, b].tobytes() == want.tobytes(), (name, b)
            assert np.shares_memory(getattr(trajectory, name), table[:, b]), (name, b)
