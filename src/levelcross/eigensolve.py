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

Every eigenvalue takes its null vector from its own elimination of
H - lambda I, free in the column of the smallest pivot. Exactly
degenerate eigenvalues are a run of equal values in the sorted row (the
snap makes a double pair bit-equal), so each member's elimination is the
same. With two or more pivots below TINY_PIVOT_FACTOR * eps * max(max|H|, 1)
the run is a true crossing: its r-th member takes the r-th smallest
pivot (stable order) as free column, holds the other tiny columns at 0
and is bilinearly orthogonalized against the r members before it;
otherwise the members keep one shared direction, flagged defective
downstream. A failure names its
batch index. Sweeps and EP searches solve through `solve_at`, which cuts
the stack into blocks of SOLVE_BLOCK rows and turns the index into the
caller's point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "EPS",
    "ROOT_RTOL",
    "ROOT_MAX_ITER",
    "CLUSTER_RTOL",
    "DEFECTIVE_RTOL",
    "BIORTH_TOL",
    "GAP_GUARD",
    "SOLVE_BLOCK",
    "SolverError",
    "RootConvergenceError",
    "BiorthogonalityError",
    "SpectrumBatch",
    "char_poly_batch",
    "poly_roots_batch",
    "eigenvalues_batch",
    "solve_spectrum_batch",
    "solve_at",
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
TINY_PIVOT_FACTOR = 100.0  # pivots below 100*eps*scale count as null directions
SOLVE_BLOCK = 4096         # rows per solve in solve_at; holds the EP scan's 2601


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the caller's to judge
        for k in range(2, n + 1):
            work = h @ work + c[:, None, None] * np.eye(n, dtype=complex)
            c = -np.einsum("mij,mji->m", h, work) / k
            coeffs[:, n - k] = c
    return coeffs


# ---------------------------------------------------------------------------
# polynomial evaluation with running error bounds

def _horner(coeffs: np.ndarray, z: np.ndarray, order: int = 1):
    """Evaluate p (and derivatives up to `order` <= 2) at z; coeffs (m, n+1).

    order 0 returns p alone, otherwise the tuple (p, p', ...)."""
    n = coeffs.shape[1] - 1
    p = np.broadcast_to(coeffs[:, n, None], z.shape).copy()
    dp = np.zeros_like(z) if order >= 1 else None
    ddp = np.zeros_like(z) if order >= 2 else None
    for j in range(n - 1, -1, -1):
        if order >= 2:
            ddp = ddp * z + 2.0 * dp
        if order >= 1:
            dp = dp * z + p
        p = p * z + coeffs[:, j, None]
    if order >= 2:
        return p, dp, ddp
    if order == 1:
        return p, dp
    return p


def _noise_bounds(coeffs: np.ndarray, zabs: np.ndarray, order: int = 1):
    """Evaluation noise floor of p, 8n*eps * sum_k |c_k| r^k, the scale
    below which p(z) is numerically zero; with order 1 also its
    derivative analogue for p'."""
    scale = 8.0 * (coeffs.shape[1] - 1) * EPS
    if order == 0:
        return scale * _horner(np.abs(coeffs), zabs, order=0)
    b0, b1 = _horner(np.abs(coeffs), zabs)
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
    A row whose roots are all frozen leaves the iteration: it is written
    back and dropped from the working arrays, so each sweep costs only
    the rows still moving. Every operation acts on one row at a time,
    so a row's roots do not depend on the batch it is solved in.
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
    # working set: the rows still iterating, their coefficients and roots
    live, c, w = np.arange(m), coeffs, z.copy()
    frozen = np.zeros((m, n), dtype=bool)
    iu, ju = np.triu_indices(n, 1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ROOT_MAX_ITER):
            p, dp = _horner(c, w)
            frozen |= np.abs(p) <= _noise_bounds(c, np.abs(w), order=0)
            done = frozen.all(axis=1)
            if done.any():
                z[live[done]] = w[done]
                keep = ~done
                live, c, w, frozen, p, dp = (
                    live[keep], c[keep], w[keep], frozen[keep], p[keep], dp[keep]
                )
            if not live.size:
                break
            newton = p / dp
            newton = np.where(np.isfinite(newton), newton, 0.05 * (1.0 + np.abs(w)))
            # 1/(z_i - z_j) once per pair; 1/(z_j - z_i) is its exact negative
            d = 1.0 / (w[:, iu] - w[:, ju])
            ok = np.isfinite(d)
            inv = np.zeros((len(live), n, n), dtype=complex)
            inv[:, iu, ju] = np.where(ok, d, 0.0)
            inv[:, ju, iu] = np.where(ok, -d, 0.0)
            # keep numpy's pairwise sum: a running sum rounds differently for n >= 4
            repulsion = inv.sum(axis=2)
            denom = 1.0 - newton * repulsion
            step = newton / np.where(denom == 0, 1.0, denom)
            step = np.where(np.isfinite(step), step, 0.0)
            step = np.where(frozen, 0.0, step)
            w = w - step
            frozen |= np.abs(step) <= ROOT_RTOL * (1.0 + np.abs(w))
        z[live] = w

        for _ in range(NEWTON_POLISH_STEPS):
            p, dp = _horner(coeffs, z)
            trial = z - p / dp
            trial = np.where(np.isfinite(trial), trial, z)
            pt = _horner(coeffs, trial, order=0)
            z = np.where(np.abs(pt) <= np.abs(p), trial, z)

        z = _pair_polish(coeffs, z)

        p = _horner(coeffs, z, order=0)
        floor = _noise_bounds(coeffs, np.abs(z), order=0)
    bad = (np.abs(p) > 1e3 * floor) | ~np.isfinite(p)  # an overflowed p proves nothing
    if bad.any():
        worst = int(np.argmax(np.abs(p).max(axis=1)))
        raise RootConvergenceError(worst, float(np.abs(p[worst]).max()))
    return z


# ---------------------------------------------------------------------------
# null vectors via complex Gaussian elimination with partial pivoting

def _eliminate(amat: np.ndarray):
    """Upper-triangular factor of each batch matrix, plus |pivots|.

    amat: (m, n, n). Elimination with partial (row) pivoting; columns
    keep their order, so a tiny pivot marks a null direction.
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
    return a, np.abs(np.diagonal(a, axis1=1, axis2=2))


def _back_substitute(u: np.ndarray, free: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Solve u x = 0 with x[free] = 1 and every entry past free 0.

    held (m, n) marks columns kept at 0 rather than solved for: the other
    null directions of a true crossing.
    """
    m, n = u.shape[0], u.shape[1]
    x = np.zeros((m, n), dtype=complex)
    x[np.arange(m), free] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            active = (i < free) & ~held[:, i]
            if not active.any():
                continue
            partial = -(u[:, i, i + 1 :] * x[:, i + 1 :]).sum(axis=1)
            head = u[:, i, i]
            xi = partial / np.where(head == 0, 1.0, head)
            xi = np.where(head == 0, 0.0, xi)
            x[:, i] = np.where(active, xi, x[:, i])
    return x


# ---------------------------------------------------------------------------
# assembled spectra

@dataclass(frozen=True)
class SpectrumBatch:
    """Spectra over a parameter batch, sorted by (Re, Im) per point.

    values (m, n); vectors (m, n, n) with vectors[p, i] belonging to
    values[p, i]; defective (m, n); norm_a (m, n); residual (m,).
    """

    values: np.ndarray
    vectors: np.ndarray
    defective: np.ndarray
    norm_a: np.ndarray
    residual: np.ndarray


def eigenvalues_batch(h: np.ndarray) -> np.ndarray:
    """Eigenvalues only, sorted by (Re, Im) per point; (m, n, n) -> (m, n).

    The fast path for scans and gap objectives: no vectors, no
    biorthogonality bookkeeping.
    """
    h = np.asarray(h, dtype=complex)
    coeffs = char_poly_batch(h)
    overflow = ~np.isfinite(coeffs).all(axis=1)
    if overflow.any():  # past the range of the characteristic polynomial
        raise RootConvergenceError(int(np.argmax(overflow)), np.inf)
    values = poly_roots_batch(coeffs)
    order = np.lexsort((values.imag, values.real), axis=1)
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
    values = eigenvalues_batch(h)

    # same[:, i]: values i - 1 and i are equal; rank: the place of i in its run
    same = np.zeros((m, n + 1), dtype=bool)
    same[:, 1:n] = values[:, 1:] == values[:, :-1]
    rank = np.arange(n) - np.maximum.accumulate(np.where(same[:, :n], 0, np.arange(n)), axis=1)
    limit = TINY_PIVOT_FACTOR * EPS * np.maximum(np.abs(h).max(axis=(1, 2)), 1.0)

    vectors = np.empty((m, n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for i in range(n):
        u, pivots = _eliminate(h - values[:, i, None, None] * eye)
        # a true crossing (module docstring): a run with two or more tiny pivots
        tiny = pivots <= limit[:, None]
        crossing = (same[:, i] | same[:, i + 1]) & (tiny.sum(axis=1) >= 2)
        r = np.where(crossing, rank[:, i], 0)
        free = np.argsort(pivots, axis=1, kind="stable")[np.arange(m), r]
        v = _back_substitute(u, free, tiny & crossing[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in range(r.max(initial=0)):  # against the members before, in order
                rows = np.flatnonzero(t < r)
                b, w = vectors[rows, i - r[rows] + t], v[rows]
                bb = (b * b).sum(axis=1)
                keep = np.abs(bb) > DEFECTIVE_RTOL * (np.abs(b) ** 2).sum(axis=1)
                v[rows] = np.where(keep[:, None], w - ((w * b).sum(axis=1) / bb)[:, None] * b, w)
        vectors[:, i, :] = v

    bilinear = (vectors * vectors).sum(axis=2)
    euclid = (np.abs(vectors) ** 2).sum(axis=2)
    defective = np.abs(bilinear) < DEFECTIVE_RTOL * euclid
    vectors = _canonicalize(vectors, defective)

    norm_a = (np.abs(vectors) ** 2).sum(axis=2)

    hv = np.einsum("mij,mkj->mki", h, vectors)
    residual = np.abs(hv - values[:, :, None] * vectors).max(axis=(1, 2))

    overlap = np.abs(np.einsum("mik,mjk->mij", vectors, vectors))
    regular = ~defective
    gap = np.abs(values[:, :, None] - values[:, None, :])  # 0 on the diagonal: i = j unchecked
    checked = (gap > GAP_GUARD) & regular[:, :, None] & regular[:, None, :]
    worst = np.where(checked, overlap, 0.0).max(axis=(1, 2))
    k = int(np.argmax(worst))
    if worst[k] >= BIORTH_TOL:
        raise BiorthogonalityError(k, float(worst[k]))

    return SpectrumBatch(
        values=values,
        vectors=vectors,
        defective=defective,
        norm_a=norm_a,
        residual=residual,
    )


def solve_at(solve, h, point):
    """solve(h), run in blocks of SOLVE_BLOCK rows in row order, joined.

    No row depends on its block, so neither does the result. Of the
    failed blocks the worst counts: a root failure before a failed
    check, then the largest residual or overlap, then the earliest. It
    is re-raised as a SolverError naming point(k), the caller's name for
    matrix k of h, and k is the batch index in its message.
    """
    def block(lo):
        try:
            return solve(h[lo : lo + SOLVE_BLOCK])
        except RootConvergenceError as err:
            return RootConvergenceError(lo + err.batch_index, err.residual)
        except BiorthogonalityError as err:
            return BiorthogonalityError(lo + err.batch_index, err.overlap)

    parts = [block(lo) for lo in range(0, max(len(h), 1), SOLVE_BLOCK)]
    errors = [part for part in parts if isinstance(part, SolverError)]
    if errors:
        roots = [e for e in errors if isinstance(e, RootConvergenceError)]
        err = max(roots, key=lambda e: e.residual) if roots else max(errors, key=lambda e: e.overlap)
        raise SolverError(f"eigensolver failed at {point(err.batch_index)}: {err}") from err
    if isinstance(parts[0], SpectrumBatch):
        return SpectrumBatch(
            *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(SpectrumBatch))
        )
    return np.concatenate(parts)
