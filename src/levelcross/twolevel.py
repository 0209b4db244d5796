"""Closed-form two-level solution and coalescence conditions.

For H = [[eps1, w], [w, eps2]] the eigenvalues are

    lambda_pm = (eps1 + eps2)/2 +- Z,   Z = sqrt((eps1 - eps2)^2 + 4 w^2) / 2

with the principal square root (Re Z >= 0). The pair coalesces exactly
when Z = 0, i.e. eps1 - eps2 = 2 s i w for a sign s; splitting into
real and imaginary parts gives one detuning condition and one
half-width condition per sign branch. This module solves those for the
control parameter a and the tuned half-width of the second level,
assuming the level energies are affine in a.

Branch assignment to physical states is deliberately not done here:
the principal root fixes +-Z, and the sweep matcher owns state labels
across crossings.
"""

from __future__ import annotations

import numpy as np

from .expressions import eval_expr
from .model import LevelSpec

__all__ = [
    "NoEPSolution",
    "two_level_eigenvalues",
    "ep_condition_2level",
]

AFFINE_RTOL = 1e-9
NEWTON_MAX_ITER = 60
NEWTON_RTOL = 1e-14
RESIDUAL_TOL = 1e-10


class NoEPSolution(ValueError):
    """The coalescence conditions have no isolated solution."""


def two_level_eigenvalues(eps1, eps2, omega):
    """Both eigenvalues of the coupled two-level system.

    Accepts scalars or broadcastable arrays; returns (plus, minus)
    branches, plus carrying +Z with Re(Z) >= 0.
    """
    eps1 = np.asarray(eps1, dtype=complex)
    eps2 = np.asarray(eps2, dtype=complex)
    omega = np.asarray(omega, dtype=complex)
    mean = 0.5 * (eps1 + eps2)
    z = 0.5 * np.sqrt((eps1 - eps2) ** 2 + 4.0 * omega ** 2)
    return mean + z, mean - z


def _affine_coefficients(level: LevelSpec) -> tuple[float, float]:
    """Fit e(a) = p + q*a and verify the fit off the nodes."""
    e0 = float(eval_expr(level.energy_expr, 0.0))
    e1 = float(eval_expr(level.energy_expr, 1.0))
    p, q = e0, e1 - e0
    for probe in (0.5, 2.0, -1.3):
        got = float(eval_expr(level.energy_expr, probe))
        want = p + q * probe
        if abs(got - want) > AFFINE_RTOL * (1.0 + abs(want)):
            raise ValueError(
                "energy expressions must be affine in a for the closed-form "
                "coalescence condition; use the numeric finder instead"
            )
    return p, q


def ep_condition_2level(
    level1: LevelSpec,
    level2: LevelSpec,
    omega: complex,
    profile: str = "constant",
) -> list[tuple[float, float]]:
    """Parameter pairs (a*, gamma2_half*) where the two levels coalesce.

    level1's half-width is held fixed; the second level's half-width is
    the tuned unknown, so level2.half_width does not enter. Both sign
    branches of the coalescence condition are returned (deduplicated
    when they coincide, e.g. for omega = 0), sorted by (a*, value).

    constant profile: detuning and half-width conditions are linear.
    gaussian profile: the coupling carries exp(-(e1-e2)^2), so the
    detuning condition becomes d = -2 s Im(w) exp(-d^2); it is solved
    by Newton iteration seeded with the constant-profile solution.
    """
    omega = complex(omega)
    if profile not in ("constant", "gaussian"):
        raise ValueError(f"unsupported profile for the closed form: {profile!r}")
    p1, q1 = _affine_coefficients(level1)
    p2, q2 = _affine_coefficients(level2)
    pd, qd = p1 - p2, q1 - q2

    solutions: list[tuple[float, float]] = []
    failures: list[str] = []
    for s in (1.0, -1.0):
        target = -2.0 * s * omega.imag
        if qd == 0.0:
            failures.append(
                "parallel energy trajectories: the detuning is constant, "
                "no isolated coalescence in a"
            )
            continue
        a = (target - pd) / qd
        factor = 1.0
        if profile == "gaussian":
            converged = False
            for _ in range(NEWTON_MAX_ITER):
                d = pd + qd * a
                factor = float(np.exp(-(d * d)))
                f = d + 2.0 * s * omega.imag * factor
                df = qd * (1.0 - 4.0 * s * omega.imag * d * factor)
                if df == 0.0:
                    break
                step = f / df
                a = a - step
                if abs(step) <= NEWTON_RTOL * (1.0 + abs(a)):
                    converged = True
                    break
            d = pd + qd * a
            factor = float(np.exp(-(d * d)))
            if not converged or abs(d + 2.0 * s * omega.imag * factor) > RESIDUAL_TOL:
                failures.append(
                    f"Newton refinement of the branch s={s:+.0f} did not converge"
                )
                continue
        gamma2_half = level1.half_width + 2.0 * s * omega.real * factor
        solutions.append((float(a), float(gamma2_half)))

    if not solutions:
        raise NoEPSolution("; ".join(failures) or "no coalescence branch solvable")
    return sorted(set(solutions))
