"""Dense spectra of small complex-symmetric matrices (N <= 8).

The route is characteristic polynomial -> simultaneous root iteration
-> null vectors, not QR: it is deterministic, dependency-free, and easy
to check against the two-level closed form. Everything is vectorized
over a leading batch axis so a whole parameter sweep solves in a few
numpy passes. There is no single-matrix API: one matrix is a batch of
length one.

Complex-symmetric structure is exploited throughout: left eigenvectors
are transposes of right eigenvectors, so the natural normalization is
the bilinear one, sum_j v_j^2 = 1. Where that fails (|v.v| tiny against
sum |v_j|^2) the pair sits at or near an exceptional point; it is
flagged defective and left with unit Euclidean length instead.

Root polishing pays special attention to nearly coincident pairs. For
a pair closer than CLUSTER_RTOL the local quadratic model of p decides:
if its discriminant is below the evaluation noise floor the pair is
indistinguishable from a double root in double precision and both
members snap to the model's double root (their gap becomes exactly 0);
otherwise the pair is kept as iterated. Without the snap, every
eigenvalue gap at an exact coalescence would float at the sqrt(eps)
noise level and coalescence could never be detected cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS",
    "ROOT_RTOL",
    "ROOT_MAX_ITER",
    "CLUSTER_RTOL",
    "DEFECTIVE_RTOL",
    "BIORTH_TOL",
    "GAP_GUARD",
    "SolverError",
    "RootConvergenceError",
    "BiorthogonalityError",
    "SpectrumBatch",
    "char_poly_batch",
    "poly_roots_batch",
    "eigenvalues_batch",
    "solve_spectrum_batch",
]

EPS = float(np.finfo(float).eps)
MAX_ORDER = 8

ROOT_RTOL = 1e-13          # per-root freeze threshold (relative step)
ROOT_MAX_ITER = 500
NEWTON_POLISH_STEPS = 2
CLUSTER_RTOL = 1e-3        # pair distance that triggers the quadratic polish
DEFECTIVE_RTOL = 1e-5      # |v.v| < this * sum|v|^2 marks a defective pair
BIORTH_TOL = 1e-8          # allowed |v_i . v_j| for well-separated pairs
GAP_GUARD = 1e-6           # pairs closer than this skip the biorthogonality check
DEGENERATE_RTOL = 1e-12    # eigenvalue distance treated as exactly degenerate
TINY_PIVOT_FACTOR = 100.0  # pivots below 100*eps*scale count as null directions


class SolverError(RuntimeError):
    """Base class for eigensolver failures."""


class RootConvergenceError(SolverError):
    def __init__(self, batch_index: int, residual: float):
        super().__init__(
            f"root iteration did not converge (batch index {batch_index}, "
            f"residual {residual:.3e})"
        )
        self.batch_index = batch_index
        self.residual = residual


class BiorthogonalityError(SolverError):
    """Well-separated eigenvectors failed v_i . v_j ~ 0; a solver bug."""

    def __init__(self, batch_index: int, overlap: float):
        super().__init__(
            f"bilinear overlap {overlap:.3e} for well-separated eigenpairs "
            f"(batch index {batch_index})"
        )
        self.batch_index = batch_index
        self.overlap = overlap


# ---------------------------------------------------------------------------
# characteristic polynomial (Faddeev-LeVerrier trace recursion)

def char_poly_batch(h: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomials of a matrix stack.

    h: (m, n, n) -> coefficients (m, n+1), ascending powers, c[n] = 1.
    """
    h = np.asarray(h, dtype=complex)
    m, n = h.shape[0], h.shape[1]
    if n > MAX_ORDER:
        raise ValueError(f"matrix order {n} exceeds supported maximum {MAX_ORDER}")
    coeffs = np.zeros((m, n + 1), dtype=complex)
    coeffs[:, n] = 1.0
    work = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
    c = -np.einsum("mii->m", h)
    coeffs[:, n - 1] = c
    for k in range(2, n + 1):
        work = h @ work + c[:, None, None] * np.eye(n, dtype=complex)
        c = -np.einsum("mij,mji->m", h, work) / k
        coeffs[:, n - k] = c
    return coeffs


# ---------------------------------------------------------------------------
# polynomial evaluation with running error bounds

def _horner(coeffs: np.ndarray, z: np.ndarray, order: int = 1):
    """Evaluate p (and derivatives up to `order`) at z; coeffs (m, n+1)."""
    n = coeffs.shape[1] - 1
    p = np.broadcast_to(coeffs[:, n, None], z.shape).copy()
    dp = np.zeros_like(z)
    ddp = np.zeros_like(z) if order >= 2 else None
    for j in range(n - 1, -1, -1):
        if order >= 2:
            ddp = ddp * z + 2.0 * dp
        dp = dp * z + p
        p = p * z + coeffs[:, j, None]
    if order >= 2:
        return p, dp, ddp
    return p, dp


def _noise_bounds(coeffs: np.ndarray, zabs: np.ndarray):
    """Evaluation noise floors of p and p': 8n*eps * sum_k |c_k| r^k and
    its derivative analogue, the scale below which p(z) is numerically zero."""
    n = coeffs.shape[1] - 1
    acs = np.abs(coeffs)
    b0 = np.broadcast_to(acs[:, n, None], zabs.shape).copy()
    b1 = np.zeros_like(zabs)
    for j in range(n - 1, -1, -1):
        b1 = b1 * zabs + b0
        b0 = b0 * zabs + acs[:, j, None]
    scale = 8.0 * n * EPS
    return scale * b0, scale * b1


def _pair_polish(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Quadratic-model polish of nearly coincident root pairs.

    Pairs whose local discriminant dp^2 - 2 p ddp at the midpoint drops
    below the evaluation noise floor are numerically double roots: both
    members snap to the model's double root mu - dp/ddp. Distinguishable
    pairs are left untouched (the iterated roots are already better than
    the quadratic model for separated roots).
    """
    m, n = z.shape
    for i in range(n):
        for j in range(i + 1, n):
            close = np.abs(z[:, i] - z[:, j]) <= CLUSTER_RTOL * (1.0 + np.abs(z[:, i]))
            if not close.any():
                continue
            rows = np.flatnonzero(close)
            mu = 0.5 * (z[rows, i] + z[rows, j])[:, None]
            p, dp, ddp = _horner(coeffs[rows], mu, order=2)
            pn, dpn = _noise_bounds(coeffs[rows], np.abs(mu))
            disc = dp * dp - 2.0 * p * ddp
            floor = 4.0 * (pn * np.abs(ddp) + dpn * (np.abs(dp) + dpn))
            snap = (np.abs(disc) <= floor) & (ddp != 0)
            if not snap.any():
                continue
            double = (mu - dp / np.where(ddp == 0, 1.0, ddp))[:, 0]
            hit = rows[snap[:, 0]]
            z[hit, i] = double[snap[:, 0]]
            z[hit, j] = double[snap[:, 0]]
    return z


def poly_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a batch of monic polynomials; (m, n+1) -> (m, n).

    Aberth-Ehrlich simultaneous iteration from deterministic starting
    points on a circle of radius 1 + max|c_k|, with per-root freezing,
    two guarded Newton polish steps, and the near-double pair polish.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 2 or coeffs.shape[1] < 2:
        raise ValueError("need (m, n+1) coefficients with degree >= 1")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("polynomial coefficients must be finite")
    lead = coeffs[:, -1:]
    if np.any(lead == 0):
        raise ValueError("leading coefficient must be nonzero")
    coeffs = coeffs / lead
    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    if n == 1:
        return -coeffs[:, :1]

    radius = 1.0 + np.max(np.abs(coeffs[:, :n]), axis=1)
    angles = (2.0 * np.pi * np.arange(n) + 0.5 * np.pi) / n
    z = radius[:, None] * np.exp(1j * angles)[None, :]
    frozen = np.zeros((m, n), dtype=bool)
    eye = np.arange(n)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ROOT_MAX_ITER):
            p, dp = _horner(coeffs, z)
            floor, _ = _noise_bounds(coeffs, np.abs(z))
            frozen |= np.abs(p) <= floor
            if frozen.all():
                break
            newton = p / dp
            newton = np.where(np.isfinite(newton), newton, 0.05 * (1.0 + np.abs(z)))
            inv = 1.0 / (z[:, :, None] - z[:, None, :])
            inv[:, eye, eye] = 0.0
            inv = np.where(np.isfinite(inv), inv, 0.0)
            repulsion = inv.sum(axis=2)
            denom = 1.0 - newton * repulsion
            step = newton / np.where(denom == 0, 1.0, denom)
            step = np.where(np.isfinite(step), step, 0.0)
            step = np.where(frozen, 0.0, step)
            z = z - step
            frozen |= np.abs(step) <= ROOT_RTOL * (1.0 + np.abs(z))

        for _ in range(NEWTON_POLISH_STEPS):
            p, dp = _horner(coeffs, z)
            trial = z - p / dp
            trial = np.where(np.isfinite(trial), trial, z)
            pt, _ = _horner(coeffs, trial)
            z = np.where(np.abs(pt) <= np.abs(p), trial, z)

        z = _pair_polish(coeffs, z)

    p, _ = _horner(coeffs, z)
    floor, _ = _noise_bounds(coeffs, np.abs(z))
    bad = np.abs(p) > 1e3 * floor
    if bad.any():
        worst = int(np.argmax(np.abs(p).max(axis=1)))
        raise RootConvergenceError(worst, float(np.abs(p[worst]).max()))
    return z


def _sort_values(values: np.ndarray) -> np.ndarray:
    """Batch argsort by (Re, Im); returns index array (m, n)."""
    return np.lexsort((values.imag, values.real), axis=1)


# ---------------------------------------------------------------------------
# null vectors via complex Gaussian elimination with partial pivoting

def _null_vectors(amat: np.ndarray):
    """One null vector per batch matrix, plus all pivot magnitudes.

    amat: (m, n, n), assumed (numerically) singular. Elimination with
    partial pivoting; the free column is the smallest |pivot|; the unit
    entry goes there and the rest back-substitutes.
    """
    a = np.asarray(amat, dtype=complex).copy()
    m, n = a.shape[0], a.shape[1]
    rows = np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            piv = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
            swap = a[rows, piv].copy()
            a[rows, piv] = a[:, k]
            a[:, k] = swap
            head = a[:, k, k]
            safe = np.where(head == 0, 1.0, head)
            factor = a[:, k + 1 :, k] / safe[:, None]
            factor = np.where(head[:, None] == 0, 0.0, factor)
            a[:, k + 1 :, k + 1 :] -= factor[:, :, None] * a[:, k, k + 1 :][:, None, :]
            a[:, k + 1 :, k] = 0.0
        pivots = np.abs(np.diagonal(a, axis1=1, axis2=2))
        free = np.argmin(pivots, axis=1)
        x = np.zeros((m, n), dtype=complex)
        x[rows, free] = 1.0
        for i in range(n - 2, -1, -1):
            active = i < free
            if not active.any():
                continue
            partial = -(a[:, i, i + 1 :] * x[:, i + 1 :]).sum(axis=1)
            head = a[:, i, i]
            xi = partial / np.where(head == 0, 1.0, head)
            xi = np.where(head == 0, 0.0, xi)
            x[:, i] = np.where(active, xi, x[:, i])
    return x, pivots


def _null_vector_single(amat: np.ndarray, free: int) -> np.ndarray:
    """Null vector of one matrix with a chosen free column."""
    n = amat.shape[0]
    a = np.asarray(amat, dtype=complex).copy()
    cols = [c for c in range(n) if c != free]
    x = np.zeros(n, dtype=complex)
    x[free] = 1.0
    rhs = -a[:, free]
    sub = a[:, cols]
    # least-squares on the reduced system tolerates extra null directions
    sol, _, _, _ = np.linalg.lstsq(sub, rhs, rcond=None)
    x[cols] = sol
    return x


def _repair_degenerate(values, vectors, h, points):
    """Recompute vectors for exactly degenerate eigenvalue groups.

    A degenerate group with a multi-dimensional null space (true
    crossing of a diagonalizable matrix) gets independent null vectors
    from distinct free columns, bilinearly orthogonalized. A group with
    a one-dimensional null space is a genuine coalescence and keeps the
    shared direction (flagged defective downstream).
    """
    n = values.shape[1]
    scale = np.abs(h).max(axis=(1, 2))
    gap = np.abs(values[:, :, None] - values[:, None, :])
    near = gap <= DEGENERATE_RTOL * (1.0 + np.abs(values)[:, :, None])
    eye = np.arange(n)
    near[:, eye, eye] = False
    for point in np.flatnonzero(points):
        seen = set()
        for i in range(n):
            if i in seen:
                continue
            group = [i] + [j for j in range(i + 1, n) if near[point, i, j]]
            if len(group) < 2:
                continue
            seen.update(group)
            amat = h[point] - values[point, i] * np.eye(n)
            _, profile = _null_vectors(amat[None, :, :])
            profile = profile[0]
            tiny = TINY_PIVOT_FACTOR * EPS * max(scale[point], 1.0)
            if int((profile <= tiny).sum()) < 2:
                continue  # defective coalescence: shared direction stands
            order = np.argsort(profile, kind="stable")
            basis = []
            for member, free in zip(group, order[: len(group)]):
                v = _null_vector_single(amat, int(free))
                for u in basis:
                    uu = (u * u).sum()
                    if abs(uu) > DEFECTIVE_RTOL * (np.abs(u) ** 2).sum():
                        v = v - (v * u).sum() / uu * u
                basis.append(v)
                vectors[point, member] = v
    return vectors


# ---------------------------------------------------------------------------
# assembled spectra

@dataclass(frozen=True)
class SpectrumBatch:
    """Spectra over a parameter batch, sorted by (Re, Im) per point.

    values (m, n); vectors (m, n, n) with vectors[p, i] belonging to
    values[p, i]; defective (m, n); norm_a (m, n); cross_norms
    (m, n, n) with zero diagonal; residual (m,).
    """

    values: np.ndarray
    vectors: np.ndarray
    defective: np.ndarray
    norm_a: np.ndarray
    cross_norms: np.ndarray
    residual: np.ndarray

    def __len__(self):
        return self.values.shape[0]


def eigenvalues_batch(h: np.ndarray) -> np.ndarray:
    """Eigenvalues only, sorted by (Re, Im) per point; (m, n, n) -> (m, n).

    The fast path for scans and gap objectives: no vectors, no
    biorthogonality bookkeeping.
    """
    h = np.asarray(h, dtype=complex)
    values = poly_roots_batch(char_poly_batch(h))
    order = _sort_values(values)
    return np.take_along_axis(values, order, axis=1)


def _canonicalize(vectors, defective):
    """Deterministic gauge: bilinear normalization for regular pairs
    (largest component's real part positive), unit Euclidean length and
    real-positive largest component for defective ones."""
    bilinear = (vectors * vectors).sum(axis=2)
    lead = np.take_along_axis(
        vectors, np.argmax(np.abs(vectors), axis=2)[:, :, None], axis=2
    )[:, :, 0]
    regular = ~defective
    root = np.sqrt(np.where(regular, bilinear, 1.0))
    vectors = vectors / root[:, :, None]
    lead = lead / root
    flip = (lead.real < 0) | ((lead.real == 0) & (lead.imag < 0))
    vectors = np.where((regular & flip)[:, :, None], -vectors, vectors)
    if defective.any():
        norm = np.sqrt((np.abs(vectors) ** 2).sum(axis=2))
        phase = lead / np.where(np.abs(lead) == 0, 1.0, np.abs(lead))
        fix = np.where(defective, np.conj(phase) / norm, 1.0)
        vectors = vectors * fix[:, :, None]
    return vectors


def solve_spectrum_batch(h: np.ndarray) -> SpectrumBatch:
    """Full spectra of a matrix stack: values, vectors, observables.

    Enforces the biorthogonality contract |v_i . v_j| < BIORTH_TOL for
    pairs separated by more than GAP_GUARD (both non-defective); a
    violation raises BiorthogonalityError naming the batch index.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("expected a stack of square matrices (m, n, n)")
    m, n = h.shape[0], h.shape[1]
    values = poly_roots_batch(char_poly_batch(h))
    order = _sort_values(values)
    values = np.take_along_axis(values, order, axis=1)

    vectors = np.empty((m, n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for i in range(n):
        shifted = h - values[:, i, None, None] * eye
        vectors[:, i, :], _ = _null_vectors(shifted)

    gap = np.abs(values[:, :, None] - values[:, None, :])
    idx = np.arange(n)
    gap_offdiag = gap + np.where(idx[:, None] == idx[None, :], np.inf, 0.0)
    degenerate = (
        gap_offdiag <= DEGENERATE_RTOL * (1.0 + np.abs(values)[:, :, None])
    ).any(axis=(1, 2))
    if degenerate.any():
        vectors = _repair_degenerate(values, vectors, h, degenerate)

    bilinear = (vectors * vectors).sum(axis=2)
    euclid = (np.abs(vectors) ** 2).sum(axis=2)
    defective = np.abs(bilinear) < DEFECTIVE_RTOL * euclid
    vectors = _canonicalize(vectors, defective)

    norm_a = (np.abs(vectors) ** 2).sum(axis=2)
    cross = np.abs(np.einsum("mik,mjk->mij", np.conj(vectors), vectors))
    cross[:, idx, idx] = 0.0

    hv = np.einsum("mij,mkj->mki", h, vectors)
    residual = np.abs(hv - values[:, :, None] * vectors).max(axis=(1, 2))

    overlap = np.abs(np.einsum("mik,mjk->mij", vectors, vectors))
    overlap[:, idx, idx] = 0.0
    regular = ~defective
    checked = (gap_offdiag > GAP_GUARD) & regular[:, :, None] & regular[:, None, :]
    worst = np.where(checked, overlap, 0.0).max(axis=(1, 2))
    k = int(np.argmax(worst))
    if worst[k] >= BIORTH_TOL:
        raise BiorthogonalityError(k, float(worst[k]))

    return SpectrumBatch(
        values=values,
        vectors=vectors,
        defective=defective,
        norm_a=norm_a,
        cross_norms=cross,
        residual=residual,
    )
