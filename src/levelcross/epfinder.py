"""Numeric exceptional point search over (a, tunable) rectangles.

Near a two-fold coalescence (EP2) the pair behaves like c +- sqrt(z),
with z linear in the parameter distance, so the gap |lambda_i - lambda_j|
is a cone with no gradient at its tip. Its square g = (lambda_i -
lambda_j)^2 = 4z has no branch point: it is smooth in (a, t) through
the EP, vanishes there to first order, and is the same whichever member
of the pair is called i (Kato 1966; Heiss, J. Phys. A 45 444016, 2012).
So a coarse grid scan picks a start cell, and Newton on the complex g,
two real equations in the two real unknowns (a, t), converges from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolve import eigenvalues_batch, solve_at, solve_spectrum_batch
from .model import Scenario, ScenarioError, Tunable, build_hamiltonian_batch

GAP_TOL = 1e-8            # coalescence detection threshold
SCAN_POINTS = 51          # per axis, endpoints included
SCAN_TIE_RTOL = 1e-6      # scan cells this close to the best gap tie
MAX_REFINE_ITER = 50      # Newton iterations after the scan
STALL_RTOL = 1e-3         # a Newton step that moves the gap by less ends the search
NEWTON_STEP = 1e-7        # forward-difference step as a fraction of the box width
PROBE_SCALE = 1e-4        # probe offset as a fraction of the box width
PROBE_MAX_DOUBLINGS = 50  # outward pushes of a probe that lands on a defective spectrum


@dataclass(frozen=True)
class EPReport:
    """Outcome of a search: best point found, converged or not.

    location is (a*, tunable*); gap the minimal pairwise eigenvalue
    distance there; pair the (sorted-spectrum) indices achieving it;
    norm_blowup the largest biorthogonal norm A_i seen on the four
    probes bracketing the location.
    """

    location: tuple[float, float]
    gap: float
    pair: tuple[int, int]
    norm_blowup: float
    converged: bool


def _closest_pair(values: np.ndarray):
    """lambda_i - lambda_j of the closest pair i < j at each point, with i
    and j; values (m, n) -> three (m,) arrays."""
    iu, ju = np.triu_indices(values.shape[-1], 1)
    diff = values[:, iu] - values[:, ju]
    k = np.argmin(np.abs(diff), axis=1)
    return diff[np.arange(len(k)), k], iu[k], ju[k]


def _solve_points(solve, scenario, tunable, a, value, where):
    """solve(H) at the points (a, value), given as build_hamiltonian_batch
    takes them; a failure names its point as `where` (a, value)=(...)."""
    h = build_hamiltonian_batch(scenario, a, tunable=tunable, value=value)

    def point(k):  # no value (no tunable) reads as nan
        row = np.column_stack(np.broadcast_arrays(a, np.asarray(value, dtype=float)))[k]
        return f"{where} (a, value)={tuple(row.tolist())!r}"

    return solve_at(solve, h, point)


def coalescence_gap(scenario: Scenario, a, tunable=None, value=None) -> float:
    """min over i<j of |lambda_i - lambda_j| at a single parameter point."""
    if scenario.n < 2:
        raise ScenarioError("coalescence gap needs at least two levels")
    values = _solve_points(eigenvalues_batch, scenario, tunable, [a], value, "point")
    return float(abs(_closest_pair(values)[0][0]))


def probe_norm_blowup(
    scenario: Scenario,
    tunable: Tunable,
    location: tuple[float, float],
    offsets: tuple[float, float],
) -> float:
    """Largest A_i over the four probes bracketing `location`.

    One probe per box direction, offset by `offsets` along its axis; the
    probes of a round solve as one batch. A probe landing on a defective
    spectrum is pushed outward (offset doubled) into the next round
    until clean; A_i is unbounded at the coalescence itself, so only
    off-point values mean anything. Returns 0.0 if no probe ever comes
    back clean.
    """
    ha, ht = offsets
    step = np.array([[ha, 0.0], [-ha, 0.0], [0.0, ht], [0.0, -ht]])
    worst = 0.0
    for _ in range(PROBE_MAX_DOUBLINGS):
        points = np.asarray(location, dtype=float) + step
        spectrum = _solve_points(solve_spectrum_batch, scenario, tunable, *points.T, "probe point")
        clean = ~spectrum.defective.any(axis=1)
        worst = float(spectrum.norm_a[clean].max(initial=worst))
        step = 2.0 * step[~clean]
        if not len(step):
            break
    return worst


def find_ep(
    scenario: Scenario, tunable: Tunable, box: tuple[tuple[float, float], tuple[float, float]]
) -> EPReport:
    """Locate a two-fold eigenvalue coalescence inside the box.

    box is ((a_lo, a_hi), (t_lo, t_hi)) with t the tunable's range; a
    side needs finite bounds and span and lo < hi, else ScenarioError.
    Stage one scans an inclusive SCAN_POINTS^2 grid; cells within
    SCAN_TIE_RTOL of the best gap tie, broken by distance to the box
    centre (each axis measured in box widths), then by scan order.
    Stage two runs Newton on g = (lambda_i - lambda_j)^2 of the closest
    pair from the winning cell, at most MAX_REFINE_ITER steps. Each step
    solves the point and its two forward neighbours, NEWTON_STEP box
    widths away along a and t, in one batch, and the new point is
    clipped to the box. A step that changes the gap by less than
    STALL_RTOL of its value ends the search: Newton has settled on a
    point where g is not 0, such as the edge of a box that holds no EP.
    On the way to an EP the gap moves by far more per step.
    Converged means a gap below GAP_TOL was seen; otherwise, or if the
    Jacobian is singular, the best point seen is still reported.
    Deterministic for fixed inputs.
    """
    lo, hi = np.array(box, dtype=float).T
    with np.errstate(over="ignore", invalid="ignore"):  # a span of inf or nan is rejected below
        span = hi - lo
    if not np.isfinite([lo, hi, span]).all():
        raise ScenarioError(f"search box bounds and their span must be finite, got {box!r}")
    if not (hi > lo).all():
        raise ScenarioError(f"degenerate search box: a side is empty, got {box!r}")
    if scenario.n < 2:
        raise ScenarioError("exceptional point search needs at least two levels")

    def closest(points):
        values = _solve_points(eigenvalues_batch, scenario, tunable, *points.T, "search point")
        return _closest_pair(values)

    axes = [np.linspace(lo[k], hi[k], SCAN_POINTS) for k in range(2)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    diff, iu, ju = closest(grid)
    gaps = np.abs(diff)
    ties = gaps <= gaps.min() * (1.0 + SCAN_TIE_RTOL)
    d2 = (((grid - 0.5 * (lo + hi)) / (hi - lo)) ** 2).sum(axis=1)
    start = int(np.argmin(np.where(ties, d2, np.inf)))

    x = grid[start]
    best_x, best_gap, best_pair = x, float(gaps[start]), (iu[start], ju[start])
    step = NEWTON_STEP * (hi - lo)
    prev = best_gap
    for k in range(MAX_REFINE_ITER):
        if best_gap < GAP_TOL:
            break
        step_x = np.where(x + step > hi, -step, step)
        diff, iu, ju = closest(x + np.vstack([np.zeros(2), np.diag(step_x)]))
        gap = float(abs(diff[0]))
        if gap < best_gap:
            best_x, best_gap, best_pair = x, gap, (iu[0], ju[0])
        if k and abs(gap - prev) <= STALL_RTOL * prev:
            break  # a Newton step (pass 0 is the scan cell) left the gap in place
        prev = gap
        g = diff * diff
        slope = (g[1:] - g[0]) / step_x  # dg/da, dg/dt
        try:
            delta = np.linalg.solve(
                np.stack([slope.real, slope.imag]), -np.array([g[0].real, g[0].imag])
            )
        except np.linalg.LinAlgError:
            break
        x = np.clip(x + delta, lo, hi)

    location = tuple(best_x.tolist())
    return EPReport(
        location=location,
        gap=best_gap,
        pair=(int(best_pair[0]), int(best_pair[1])),
        norm_blowup=probe_norm_blowup(
            scenario, tunable, location, tuple((PROBE_SCALE * (hi - lo)).tolist())
        ),
        converged=best_gap < GAP_TOL,
    )
