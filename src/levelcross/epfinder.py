"""Numeric exceptional point search over (a, tunable) rectangles.

The objective is the smallest pairwise eigenvalue distance. Near a
coalescence it behaves like the square root of the parameter distance,
so gradient refinement is hopeless there; a coarse grid scan followed
by Nelder-Mead on the squared gap is robust and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .eigensolve import (
    BiorthogonalityError,
    RootConvergenceError,
    SolverError,
    eigenvalues_batch,
    solve_spectrum_batch,
)
from .model import Scenario, ScenarioError, Tunable, build_hamiltonian_batch

GAP_TOL = 1e-8            # coalescence detection threshold
SCAN_POINTS = 51          # per axis, endpoints included
SCAN_TIE_RTOL = 1e-6      # scan cells this close to the best gap tie
MAX_REFINE_ITER = 400
PROBE_SCALE = 1e-4        # probe offset as a fraction of the box width


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


def _min_gap(values: np.ndarray) -> np.ndarray:
    iu, ju = np.triu_indices(values.shape[-1], 1)
    return np.abs(values[..., iu] - values[..., ju]).min(axis=-1)


def _min_gap_pair(values: np.ndarray) -> tuple[float, tuple[int, int]]:
    iu, ju = np.triu_indices(values.size, 1)
    d = np.abs(values[iu] - values[ju])
    k = int(np.argmin(d))
    return float(d[k]), (int(iu[k]), int(ju[k]))


def coalescence_gap(scenario: Scenario, a, tunable=None, value=None) -> float:
    """min over i<j of |lambda_i - lambda_j| at a single parameter point."""
    if scenario.n < 2:
        raise ScenarioError("coalescence gap needs at least two levels")
    h = build_hamiltonian_batch(scenario, [a], tunable=tunable, value=value)
    return float(_min_gap(eigenvalues_batch(h)[0]))


def probe_norm_blowup(
    scenario: Scenario,
    tunable: Tunable,
    location: tuple[float, float],
    offsets: tuple[float, float],
    max_doublings: int = 50,
) -> float:
    """Largest A_i over the four probes bracketing `location`.

    One probe per box direction, offset by `offsets` along its axis. A
    probe landing on a defective spectrum is pushed outward (offset
    doubled) until clean; A_i is unbounded at the coalescence itself,
    so only off-point values mean anything. Returns 0.0 if no probe
    ever comes back clean.
    """
    xa, xt = location
    ha, ht = offsets
    worst = 0.0
    for da, dt in ((ha, 0.0), (-ha, 0.0), (0.0, ht), (0.0, -ht)):
        for _ in range(max_doublings):
            h = build_hamiltonian_batch(
                scenario, [xa + da], tunable=tunable, value=xt + dt
            )
            try:
                spectrum = solve_spectrum_batch(h)
            except (RootConvergenceError, BiorthogonalityError) as err:
                raise SolverError(
                    f"eigensolver failed at probe point (a, value)="
                    f"({xa + da!r}, {xt + dt!r}): {err}"
                ) from err
            if not spectrum.defective.any():
                worst = max(worst, float(spectrum.norm_a.max()))
                break
            da, dt = 2.0 * da, 2.0 * dt
    return worst


class _GapConverged(Exception):
    pass


def find_ep(
    scenario: Scenario, tunable: Tunable, box: tuple[tuple[float, float], tuple[float, float]]
) -> EPReport:
    """Locate a two-fold eigenvalue coalescence inside the box.

    box is ((a_lo, a_hi), (t_lo, t_hi)) with t the tunable's range.
    Stage one scans an inclusive SCAN_POINTS^2 grid; cells within
    SCAN_TIE_RTOL of the best gap tie, broken by distance to the box
    centre (each axis measured in box widths), then by scan order.
    Stage two runs Nelder-Mead on the squared gap from the winning
    cell, simplex steps one cell wide, coordinates clipped to the box.
    Converged means a gap below GAP_TOL was seen; otherwise the best
    point found is still reported. Deterministic for fixed inputs.
    """
    (a_lo, a_hi), (t_lo, t_hi) = box
    bounds = np.array([a_lo, a_hi, t_lo, t_hi], dtype=float)
    if not np.isfinite(bounds).all():
        raise ValueError("search box must be finite")
    if not (a_hi > a_lo and t_hi > t_lo):
        raise ValueError("degenerate search box: both sides need positive extent")
    if scenario.n < 2:
        raise ScenarioError("exceptional point search needs at least two levels")

    avals = np.linspace(a_lo, a_hi, SCAN_POINTS)
    tvals = np.linspace(t_lo, t_hi, SCAN_POINTS)
    agrid, tgrid = (g.ravel() for g in np.meshgrid(avals, tvals, indexing="ij"))
    h = build_hamiltonian_batch(scenario, agrid, tunable=tunable, value=tgrid)
    gaps = _min_gap(eigenvalues_batch(h))

    ties = gaps <= gaps.min() * (1.0 + SCAN_TIE_RTOL)
    wa, wt = a_hi - a_lo, t_hi - t_lo
    d2 = ((agrid - 0.5 * (a_lo + a_hi)) / wa) ** 2 + (
        (tgrid - 0.5 * (t_lo + t_hi)) / wt
    ) ** 2
    start = int(np.argmin(np.where(ties, d2, np.inf)))

    best = {
        "x": (float(agrid[start]), float(tgrid[start])),
        "gap": float(gaps[start]),
    }

    def objective(x):
        xa = min(max(float(x[0]), a_lo), a_hi)
        xt = min(max(float(x[1]), t_lo), t_hi)
        hx = build_hamiltonian_batch(scenario, [xa], tunable=tunable, value=xt)
        gap = float(_min_gap(eigenvalues_batch(hx)[0]))
        if gap < best["gap"]:
            best["x"], best["gap"] = (xa, xt), gap
            if gap < GAP_TOL:
                raise _GapConverged
        return gap * gap

    if best["gap"] >= GAP_TOL:
        x0 = np.array(best["x"])
        step_a = wa / (SCAN_POINTS - 1)
        step_t = wt / (SCAN_POINTS - 1)
        simplex = np.array([x0, x0.copy(), x0.copy()])
        simplex[1, 0] += -step_a if x0[0] + step_a > a_hi else step_a
        simplex[2, 1] += -step_t if x0[1] + step_t > t_hi else step_t
        try:
            minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={
                    "initial_simplex": simplex,
                    "maxiter": MAX_REFINE_ITER,
                    "maxfev": 10 * MAX_REFINE_ITER,
                    "xatol": 1e-15,
                    "fatol": 0.0,
                },
            )
        except _GapConverged:
            pass

    xa, xt = best["x"]
    hx = build_hamiltonian_batch(scenario, [xa], tunable=tunable, value=xt)
    gap, pair = _min_gap_pair(eigenvalues_batch(hx)[0])
    blowup = probe_norm_blowup(
        scenario, tunable, (xa, xt), (PROBE_SCALE * wa, PROBE_SCALE * wt)
    )
    return EPReport(
        location=(xa, xt),
        gap=gap,
        pair=pair,
        norm_blowup=blowup,
        converged=gap < GAP_TOL,
    )
