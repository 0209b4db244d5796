"""Parameter sweeps: solve the spectrum along a grid, stitch eigenpairs
into continuous branches, and classify crossing events.

Branch identity is decided by eigenvector overlap between consecutive
grid points, not by eigenvalue proximity: near a critical parameter the
eigenvalues approach each other and proximity matching would silently
relabel the states. The exception is a grid step touching a defective
point, where overlaps are ill-defined and eigenvalue proximity is the
only sensible objective.

Branches are numbered by the unperturbed levels sorted ascending in
(e_i(a_min), gamma_i/2, i). A SweepResult keeps the solved spectrum once,
its columns in branch order, and each branch's start level: the level
assignment at a_min maximizes the summed eigenvector components, with
eigenvalue proximity to the bare levels breaking ties. At a_max the
exchange criteria assign each branch the bare level its eigenvalue is
nearest to, and compare the two ends.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import eigensolve
from .eigensolve import EPS, SpectrumBatch, pair_indices, solve_at, solve_spectrum_batch
from .model import Scenario, bare_levels, build_hamiltonian_batch

__all__ = [
    "CROSSING_TOL",
    "CrossingReport",
    "SweepResult",
    "Trajectory",
    "detect_crossings",
    "run_sweep",
]

CROSSING_TOL = 1e-6      # |E_i - E_j| below this counts as an energy crossing
MATCH_TIE_TOL = 1e-12    # overlap objectives within this are tied
# scores per (steps, n, n!) gather of the matcher: 8 MB at any n, where one
# gather of a whole 8-level stack takes 2.6 MB per step (5 GB at 2001)
MATCH_BLOCK = 1 << 20


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), lexicographic: made once per n, shared read-only."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    perms.flags.writeable = False
    return perms


def _best_assignment(score: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, n, n) stack, the permutation pi maximizing
    sum_i score[i, pi(i)], enumerated exactly; near-ties (within
    MATCH_TIE_TOL) go to the minimal sum of tiebreak, then to the first
    permutation in lexicographic order. Returns (k, n).

    A matrix whose row maxima lie in n different columns, sigma, takes
    sigma without enumeration when its two smallest row gaps (a row's
    maximum minus its second largest entry) sum to more than the margin
    2 (MATCH_TIE_TOL + n eps A), A = sum_i max_j |score_ij|. That is the
    enumeration's answer. Any other permutation moves at least two rows,
    each losing at least its gap, so its exact total lies at least g, the
    two smallest gaps, below sigma's. An enumerated total adds n terms
    left to right and rounds by at most (n-1) u A / (1 - (n-1) u)
    <= n u A (u = eps/2, n <= 8), so the computed totals differ by more
    than g - n eps A. The candidate test rounds max - MATCH_TIE_TOL by at
    most u (A + MATCH_TIE_TOL), and the gaps, their sum and the margin
    each round by a relative u. With g above the margin, what is left,
    MATCH_TIE_TOL + n eps A, exceeds MATCH_TIE_TOL and all of these
    roundings: sigma is the computed maximum and the only total within
    MATCH_TIE_TOL of it, whatever the (finite) tiebreak. A non-finite
    score makes the margin inf or NaN and sends its matrix to the
    enumeration.

    The other matrices are scored MATCH_BLOCK scores at a time, so memory
    stays bounded at every n and length."""
    k, n = score.shape[0], score.shape[-1]
    perms = _permutations(n)
    best = score.argmax(axis=2)
    fast = np.zeros(k, dtype=bool)  # n = 1 has one permutation
    if n > 1:
        top = np.sort(score, axis=2)
        gaps = top[:, :, -1] - top[:, :, -2]
        gaps.sort(axis=1)
        size = np.maximum(top[:, :, -1], -top[:, :, 0]).sum(axis=1)  # A
        margin = (2 * n * EPS) * size + 2 * MATCH_TIE_TOL
        # n powers of two sum to 2^n - 1 only if no two are equal
        fast = (gaps[:, 0] + gaps[:, 1] > margin) & ((1 << best).sum(axis=1) == (1 << n) - 1)
    slow = (~fast).nonzero()[0]
    step = max(1, MATCH_BLOCK // perms.size)
    for lo in range(0, slow.size, step):
        # the cells (i, perms[p, i]) of each matrix, gathered as (step, n, P):
        # the sum over i, not the contiguous axis, adds row by row from row 0
        rows, i, j = slow[lo : lo + step, None, None], np.arange(n)[:, None], perms.T
        totals = score[rows, i, j].sum(axis=1)
        ties = tiebreak[rows, i, j].sum(axis=1)
        cand = totals >= totals.max(axis=1, keepdims=True) - MATCH_TIE_TOL
        best[rows[:, 0, 0]] = perms[np.argmin(np.where(cand, ties, np.inf), axis=1)]
    return best


def _follow(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(m, n) spectrum indices of n branches that start at spectrum
    indices `start` and move by the (m-1, n) step permutations:
    idx[t] = steps[t-1][idx[t-1]].

    The steps are composed by log-depth doubling: after the pass with
    stride s, row t holds the composition of the last min(t, 2s) steps,
    applied to `start` where they reach row 0."""
    idx = np.concatenate((start[None], steps))
    s = 1
    while s < len(idx):
        idx[s:] = np.take_along_axis(idx[s:], idx[:-s], axis=1)
        s *= 2
    return idx


def _step_permutations(batch: SpectrumBatch) -> np.ndarray:
    """(m-1, n) permutations: step[t][i] is the spectrum index at point
    t+1 that continues spectrum index i at point t.

    Maximizes the summed Hermitian overlap magnitude of the eigenvector
    pairs. A step touching a defective point falls back to eigenvalue
    proximity; eigenvalue distance breaks ties either way.

    The tables are built eigensolve.SOLVE_BLOCK steps at a time, so they
    stay one solve block long at any grid size: steps [lo, hi) read
    points lo..hi. Each step is decided on its own matrices, so the
    result does not depend on the block size.
    """
    m, n = batch.values.shape
    steps = np.empty((m - 1, n), dtype=int)
    for lo in range(0, m - 1, eigensolve.SOLVE_BLOCK):
        hi = lo + eigensolve.SOLVE_BLOCK  # the slices stop at the last step and point
        vectors, values = batch.vectors[lo : hi + 1], batch.values[lo : hi + 1]
        overlap = np.abs(np.einsum("mik,mjk->mij", np.conj(vectors[:-1]), vectors[1:]))
        dist = np.abs(values[:-1, :, None] - values[1:, None, :])
        any_def = batch.defective[lo : hi + 1].any(axis=1)
        fallback = any_def[:-1] | any_def[1:]
        steps[lo:hi] = _best_assignment(np.where(fallback[:, None, None], -dist, overlap), dist)
    return steps


@dataclass(frozen=True)
class Trajectory:
    """One branch of the spectrum followed across the sweep grid: views
    of column branch_id of the SweepResult's tables.

    values holds its complex eigenvalues E - i Gamma/2 at every grid
    point. start_level is the 0-based unperturbed level the branch is
    assigned to at a_min: the assignment with the largest summed
    eigenvector components, eigenvalue proximity breaking ties.
    """

    branch_id: int
    start_level: int
    values: np.ndarray
    vectors: np.ndarray
    norm_a: np.ndarray
    defective: np.ndarray

    @property
    def energy(self) -> np.ndarray:
        return self.values.real

    @property
    def gamma_half(self) -> np.ndarray:
        return -self.values.imag


@dataclass(frozen=True)
class CrossingReport:
    kind: str                      # true_energy | avoided_energy | coalescence
    a_cr: float
    pair: tuple[int, int]          # branch ids
    max_width_split: float         # max |Gamma_i/2 - Gamma_j/2| near the event
    exchange_detected: bool


@dataclass(frozen=True)
class SweepResult:
    """Branch-tracked sweep output.

    branches is the solved spectrum with column b of every per-point
    table holding branch b: branches.values[p, b] is its eigenvalue at
    grid point p and branches.vectors[p, b] its eigenvector. start_level
    (n,) is each branch's level at a_min. bare holds the unperturbed
    complex energies e_i(a) - i gamma_i/2, level-indexed columns;
    crossing classification compares branch endpoints against its last
    row.
    """

    scenario: Scenario
    a: np.ndarray
    branches: SpectrumBatch
    start_level: np.ndarray
    bare: np.ndarray

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """One Trajectory per branch, in branch order, viewing the tables."""
        t = self.branches
        return tuple(
            Trajectory(b, level, t.values[:, b], t.vectors[:, b], t.norm_a[:, b], t.defective[:, b])
            for b, level in enumerate(self.start_level.tolist())
        )

    def by_start_level(self, level: int) -> Trajectory:
        for trajectory in self.trajectories:
            if trajectory.start_level == level:
                return trajectory
        raise KeyError(f"no branch starts at level {level}")


def run_sweep(scenario: Scenario) -> SweepResult:
    """Solve the scenario over its sweep grid and track branches.

    The grid is solved by `solve_at`, in blocks of SOLVE_BLOCK points,
    and its steps are matched by `_step_permutations` in blocks of
    SOLVE_BLOCK steps; the branches then follow the steps left to right.
    The result, and the grid point a failure names, do not depend on
    the block size.
    """
    a = scenario.sweep.points()
    batch = solve_at(
        solve_spectrum_batch,
        build_hamiltonian_batch(scenario, a),
        lambda k: f"grid point a={float(a[k])!r}",
    )

    step_perm = _step_permutations(batch)

    # initial branch labels: levels sorted by (e(a_min), gamma/2, index)
    bare = bare_levels(scenario, a)
    eps0 = bare[0]
    half_widths = -eps0.imag
    level_order = np.lexsort((np.arange(scenario.n), half_widths, eps0.real))
    component = np.abs(batch.vectors[0])                       # (spectrum, level)
    proximity = np.abs(batch.values[0][:, None] - eps0[None, :])
    assign = _best_assignment(component.T[None], proximity.T[None])[0]  # level -> spectrum idx

    idx = _follow(assign[level_order], step_perm)  # (grid point, branch) -> spectrum index
    branches = SpectrumBatch(
        values=np.take_along_axis(batch.values, idx, axis=1),
        vectors=np.take_along_axis(batch.vectors, idx[:, :, None], axis=1),
        defective=np.take_along_axis(batch.defective, idx, axis=1),
        norm_a=np.take_along_axis(batch.norm_a, idx, axis=1),
        residual=batch.residual,
    )
    return SweepResult(scenario, a, branches, start_level=level_order, bare=bare)


# ---------------------------------------------------------------------------
# crossing classification


def _runs(mask: np.ndarray):
    """Maximal runs of True as (start, stop) index pairs, stop inclusive."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1) - 1
    return list(zip(starts.tolist(), stops.tolist()))


def _valleys(depth: np.ndarray, tol: float):
    """Strict three-point local minima k of depth, not at or below tol,
    as (k, lo, hi); the valley [lo, hi] extends outward from k for as
    long as depth does not fall."""
    m = depth.shape[0]
    inner = depth[1:-1]
    minima = 1 + np.flatnonzero((inner < depth[:-2]) & (inner < depth[2:]) & ~(inner <= tol))
    index = np.arange(m)
    # a walk leftward stops at p when depth[p - 1] >= depth[p] fails,
    # a walk rightward at p when depth[p + 1] >= depth[p] fails
    left_stop = np.ones(m, dtype=bool)
    left_stop[1:] = ~(depth[:-1] >= depth[1:])
    right_stop = np.ones(m, dtype=bool)
    right_stop[:-1] = ~(depth[1:] >= depth[:-1])
    lo = np.maximum.accumulate(np.where(left_stop, index, 0))
    hi = np.minimum.accumulate(np.where(right_stop, index, m - 1)[::-1])[::-1]
    return list(zip(minima.tolist(), lo[minima].tolist(), hi[minima].tolist()))


def detect_crossings(result: SweepResult):
    """Classify crossing events between every branch pair.

    true_energy: the energies agree within CROSSING_TOL over a
    sub-interval while the widths bifurcate; a_cr marks the largest
    width split.
    avoided_energy: |E_i - E_j| has a strict three-point local minimum
    above CROSSING_TOL, keeps its sign through the surrounding valley,
    and the width curves intersect inside the valley; a_cr marks the
    minimum.
    coalescence: both branches defective (at/near an exceptional point);
    a_cr marks the smallest eigenvalue gap.
    """
    a = result.a
    values, defective = result.branches.values, result.branches.defective  # (grid point, branch)
    energy, gamma_half = values.real, -values.imag
    # each branch's nearest unperturbed level at a_max, one level per branch
    cost = np.abs(values[-1][:, None] - result.bare[-1][None, :])
    end_levels = _best_assignment(-cost[None], cost[None])[0]
    start_levels = result.start_level
    events = []

    # tolist: Python ints, which CrossingReport.pair keeps for crossings.json
    for i, j in np.transpose(pair_indices(values.shape[1])).tolist():
        de = energy[:, i] - energy[:, j]
        dg = gamma_half[:, i] - gamma_half[:, j]
        gap = np.hypot(de, dg)
        both_def = defective[:, i] & defective[:, j]
        exchanged = bool(
            end_levels[i] == start_levels[j]
            and end_levels[j] == start_levels[i]
            and end_levels[i] != start_levels[i]
        )

        found = []  # (kind, grid index of a_cr, width differences around it)
        for start, stop in _runs(both_def):
            k = start + int(np.argmin(gap[start : stop + 1]))
            if _mutually_closest(values[k], i, j):
                found.append(("coalescence", k, dg[start : stop + 1]))

        abs_de = np.abs(de)
        for start, stop in _runs((abs_de < CROSSING_TOL) & ~both_def):
            k = start + int(np.argmax(np.abs(dg[start : stop + 1])))
            found.append(("true_energy", k, dg[start : stop + 1]))

        for k, lo, hi in _valleys(abs_de, CROSSING_TOL):
            dew, dgw = de[lo : hi + 1], dg[lo : hi + 1]
            if not ((dew > 0).all() or (dew < 0).all()):
                continue  # energy difference changes sign: not avoided
            if not (dgw[:-1] * dgw[1:] <= 0).any():
                continue  # width curves never intersect in the valley
            found.append(("avoided_energy", k, dgw))

        events += [
            CrossingReport(kind, float(a[k]), (i, j), float(np.abs(near).max()), exchanged)
            for kind, k, near in found
        ]

    events.sort(key=lambda e: (e.a_cr, e.pair))
    return events


def _mutually_closest(values, i, j) -> bool:
    """Branches i and j are each other's nearest among the values of one grid point."""
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return int(np.argmin(dist[i])) == j and int(np.argmin(dist[j])) == i
