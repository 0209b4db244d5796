"""Parameter sweeps: solve the spectrum along a grid, stitch eigenpairs
into continuous branches, and classify crossing events.

Branch identity is decided by eigenvector overlap between consecutive
grid points, not by eigenvalue proximity: near a critical parameter the
eigenvalues approach each other and proximity matching would silently
relabel the states. The exception is a grid step touching a defective
point, where overlaps are ill-defined and eigenvalue proximity is the
only sensible objective.

Branches are numbered by the unperturbed levels sorted ascending in
(e_i(a_min), gamma_i/2, i). Each Trajectory records its start level: the
level assignment at a_min maximizes the summed eigenvector components,
with eigenvalue proximity to the bare levels breaking ties. At a_max the
exchange criteria assign each branch the bare level its eigenvalue is
nearest to, and compare the two ends.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .eigensolve import SpectrumBatch, solve_at, solve_spectrum_batch
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
# scores per (steps, n!) array of the matcher: 8 MB at any n, where one
# gather of a whole 8-level stack takes 2.6 MB per step (5 GB at 2001)
MATCH_BLOCK = 1 << 20


@functools.cache
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=int)


def _best_assignment(score: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, n, n) stack, the permutation pi maximizing
    sum_i score[i, pi(i)], enumerated exactly; near-ties (within
    MATCH_TIE_TOL) go to the minimal sum of tiebreak, then to the first
    permutation in lexicographic order. Returns (k, n).

    The stack is scored MATCH_BLOCK scores at a time, so memory stays
    bounded at every n and length."""
    perms = _permutations(score.shape[-1])
    step = max(1, MATCH_BLOCK // len(perms))
    best = []
    for lo in range(0, max(len(score), 1), step):
        s, t = score[lo : lo + step], tiebreak[lo : lo + step]
        totals, ties = s[:, 0, perms[:, 0]], t[:, 0, perms[:, 0]]  # (step, P)
        for i in range(1, perms.shape[1]):  # row by row from 0, as .sum(axis=1) adds
            totals += s[:, i, perms[:, i]]
            ties += t[:, i, perms[:, i]]
        cand = totals >= totals.max(axis=1, keepdims=True) - MATCH_TIE_TOL
        best.append(perms[np.argmin(np.where(cand, ties, np.inf), axis=1)])
    return np.concatenate(best)


def _step_permutations(batch: SpectrumBatch) -> np.ndarray:
    """(m-1, n) permutations: step[t][i] is the spectrum index at point
    t+1 that continues spectrum index i at point t.

    Maximizes the summed Hermitian overlap magnitude of the eigenvector
    pairs. A step touching a defective point falls back to eigenvalue
    proximity; eigenvalue distance breaks ties either way.
    """
    overlap = np.abs(
        np.einsum("mik,mjk->mij", np.conj(batch.vectors[:-1]), batch.vectors[1:])
    )
    dist = np.abs(batch.values[:-1, :, None] - batch.values[1:, None, :])
    any_def = batch.defective.any(axis=1)
    fallback = any_def[:-1] | any_def[1:]
    return _best_assignment(np.where(fallback[:, None, None], -dist, overlap), dist)


@dataclass(frozen=True)
class Trajectory:
    """One branch of the spectrum followed across the sweep grid.

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

    bare holds the unperturbed complex energies e_i(a) - i gamma_i/2,
    level-indexed columns; crossing classification compares branch
    endpoints against its last row.
    """

    scenario: Scenario
    a: np.ndarray
    trajectories: tuple[Trajectory, ...]
    bare: np.ndarray
    residual: np.ndarray

    def by_start_level(self, level: int) -> Trajectory:
        for trajectory in self.trajectories:
            if trajectory.start_level == level:
                return trajectory
        raise KeyError(f"no branch starts at level {level}")


def run_sweep(scenario: Scenario) -> SweepResult:
    """Solve the scenario over its sweep grid and track branches.

    The grid is solved by `solve_at`, in blocks of SOLVE_BLOCK points;
    branch matching is a sequential left-to-right pass. The result, and
    the grid point a failure names, do not depend on the block size.
    """
    a = scenario.sweep.points()
    m, n = a.shape[0], scenario.n
    batch = solve_at(
        solve_spectrum_batch,
        build_hamiltonian_batch(scenario, a),
        lambda k: f"grid point a={float(a[k])!r}",
    )
    rows = np.arange(m)

    step_perm = _step_permutations(batch)

    # initial branch labels: levels sorted by (e(a_min), gamma/2, index)
    bare = bare_levels(scenario, a)
    eps0 = bare[0]
    half_widths = -eps0.imag
    level_order = np.lexsort((np.arange(n), half_widths, eps0.real))
    component = np.abs(batch.vectors[0])                       # (spectrum, level)
    proximity = np.abs(batch.values[0][:, None] - eps0[None, :])
    assign = _best_assignment(component.T[None], proximity.T[None])[0]  # level -> spectrum idx

    idx = np.empty((m, n), dtype=int)
    idx[0] = assign[level_order]
    for t in range(1, m):
        idx[t] = step_perm[t - 1][idx[t - 1]]

    trajectories = []
    for b in range(n):
        seq = idx[:, b]
        trajectories.append(
            Trajectory(
                branch_id=b,
                start_level=int(level_order[b]),
                values=batch.values[rows, seq],
                vectors=batch.vectors[rows, seq],
                norm_a=batch.norm_a[rows, seq],
                defective=batch.defective[rows, seq],
            )
        )
    return SweepResult(
        scenario=scenario,
        a=a,
        trajectories=tuple(trajectories),
        bare=bare,
        residual=batch.residual,
    )


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


def _end_levels(result: SweepResult) -> np.ndarray:
    """Branch -> nearest unperturbed level assignment at a_max."""
    eps_end = result.bare[-1]
    ends = np.array([t.values[-1] for t in result.trajectories])
    cost = np.abs(ends[:, None] - eps_end[None, :])
    return _best_assignment(-cost[None], cost[None])[0]


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
    trajectories = result.trajectories
    n = len(trajectories)
    start_levels = np.array([t.start_level for t in trajectories])
    end_levels = _end_levels(result)
    events = []

    for i in range(n):
        for j in range(i + 1, n):
            ti, tj = trajectories[i], trajectories[j]
            de = ti.energy - tj.energy
            dg = ti.gamma_half - tj.gamma_half
            gap = np.hypot(de, dg)
            both_def = ti.defective & tj.defective
            exchanged = bool(
                end_levels[i] == start_levels[j]
                and end_levels[j] == start_levels[i]
                and end_levels[i] != start_levels[i]
            )

            found = []  # (kind, grid index of a_cr, width differences around it)
            for start, stop in _runs(both_def):
                k = start + int(np.argmin(gap[start : stop + 1]))
                if _mutually_closest(trajectories, i, j, k):
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


def _mutually_closest(trajectories, i, j, k) -> bool:
    values = np.array([t.values[k] for t in trajectories])
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return int(np.argmin(dist[i])) == j and int(np.argmin(dist[j])) == i
