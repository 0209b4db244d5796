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

Inside, the root finder and the elimination put the points on the last,
fast axis: coefficients (n+1, m), roots (n, m), matrices (n, n, m). Each
transposes once on entry and once on exit, so callers see (m, ...), and
each gives the bits of the row-major loops that tests/test_eigensolve.py
keeps as references. Four rules hold that:
- the Aberth repulsion sum_j 1/(z_i - z_j) is added by `_reduce_sum` in
  the order numpy's add.reduce uses on a contiguous axis of length n,
  which test_reduce_sum_is_four_accumulator_order pins;
- a complex product keeps its operand order and is never computed in
  place. numpy's vector loop fuses a multiply and an add, so a*b and b*a
  can differ in the last bit; from 256 KB numpy may evaluate
  `x * temporary` as `temporary *= x`; and an in-place product of one
  element takes numpy's unfused loop (numpy 2.4, x86-64 with AVX-512);
- no product broadcasts to a single element, which also takes the
  unfused loop;
- a masking pass (np.where with a fallback) is skipped only when its
  mask selects nothing: it would copy every value, so no bit changes.
Sums and negations may be computed in place: a sum rounds the same
in every loop, and a negation is exact.
"""

from __future__ import annotations

import functools
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

    The recursion M_1 = I, M_k = H M_{k-1} + c[n-k+1] I, c[n-k] =
    -tr(H M_k) / k takes h itself for the product H M_1 at k = 2. h @ I
    has h's bits but for the sign of a zero (a -0.0 entry comes back
    +0.0); such a sign can only decide the sign of a zero sum, and each
    coefficient is a trace that einsum sums from +0, so the coefficients
    keep the bits of the loop from I (tests/test_eigensolve.py keeps it
    as a reference). An n = 2 stack runs no BLAS product. A row with a
    non-finite entry gets non-finite coefficients either way.
    """
    h = np.asarray(h, dtype=complex)
    m, n = h.shape[0], h.shape[1]
    if n > MAX_ORDER:
        raise ValueError(f"matrix order {n} exceeds supported maximum {MAX_ORDER}")
    coeffs = np.zeros((m, n + 1), dtype=complex)
    coeffs[:, n] = 1.0
    eye = np.eye(n, dtype=complex)
    c = -np.einsum("mii->m", h)
    coeffs[:, n - 1] = c
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the caller's to judge
        for k in range(2, n + 1):
            work = (h if k == 2 else h @ work) + c[:, None, None] * eye
            c = -np.einsum("mij,mji->m", h, work) / k
            coeffs[:, n - k] = c
    return coeffs


# ---------------------------------------------------------------------------
# polynomial evaluation with running error bounds, root-major (module docstring)

def _horner(coeffs: np.ndarray, z: np.ndarray, order: int = 1):
    """Evaluate p (and derivatives up to `order` <= 2) at z.

    coeffs (n+1, m), ascending powers; z (m,) or (k, m), column q taken
    with polynomial q. order 0 returns p alone, otherwise (p, p', ...)."""
    n = coeffs.shape[0] - 1
    p = np.empty(z.shape, dtype=coeffs.dtype)
    p[...] = coeffs[n]
    dp = np.zeros(z.shape, dtype=z.dtype) if order >= 1 else None
    ddp = np.zeros(z.shape, dtype=z.dtype) if order >= 2 else None
    for j in range(n - 1, -1, -1):  # sums in place, products not (module docstring)
        if order >= 2:
            ddp = ddp * z
            ddp += 2.0 * dp
        if order >= 1:
            dp = dp * z
            dp += p
        p = p * z
        p += coeffs[j]
    if order >= 2:
        return p, dp, ddp
    if order == 1:
        return p, dp
    return p


def _noise_bounds(acoeffs: np.ndarray, zabs: np.ndarray, order: int = 1):
    """Evaluation noise floor of p, 8n*eps * sum_k |c_k| r^k, the scale
    below which p(z) is numerically zero; with order 1 also its
    derivative analogue for p'. acoeffs is |coeffs|."""
    scale = 8.0 * (acoeffs.shape[0] - 1) * EPS
    if order == 0:
        return scale * _horner(acoeffs, zabs, order=0)
    b0, b1 = _horner(acoeffs, zabs)
    return scale * b0, scale * b1


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), the pairs i < j in row order: made once per n, shared read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _reduce_sum(terms: np.ndarray) -> np.ndarray:
    """terms[0] + ... + terms[k-1] for k <= 8, rounded as numpy's
    add.reduce rounds a contiguous axis of length k: left to right for
    k < 4; otherwise four running sums r_j = terms[j] + terms[j+4] + ...,
    combined as (r0 + r1) + (r2 + r3), then the remaining terms in
    order; finally added to +0, which turns a sum of -0 into +0.
    test_reduce_sum_is_four_accumulator_order pins this to ndarray.sum."""
    k = len(terms)
    if k < 4:
        total, rest = terms[0], terms[1:]
    else:
        acc = [terms[j] for j in range(4)]
        for j in range(4, k - k % 4):
            acc[j % 4] = acc[j % 4] + terms[j]
        total, rest = (acc[0] + acc[1]) + (acc[2] + acc[3]), terms[k - k % 4 :]
    for term in rest:
        total = total + term
    return 0.0 + total


def _pair_polish(coeffs: np.ndarray, acoeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Quadratic-model polish of nearly coincident root pairs; z (n, m).

    Pairs whose local discriminant dp^2 - 2 p ddp at the midpoint drops
    below the evaluation noise floor are numerically double roots: both
    members snap to the model's double root mu - dp/ddp. Distinguishable
    pairs are left untouched (the iterated roots are already better than
    the quadratic model for separated roots).
    """
    for i, j in np.transpose(pair_indices(z.shape[0])).tolist():
        close = np.abs(z[i] - z[j]) <= CLUSTER_RTOL * (1.0 + np.abs(z[i]))
        if not close.any():
            continue
        cols = np.flatnonzero(close)
        mu = 0.5 * (z[i, cols] + z[j, cols])
        p, dp, ddp = _horner(coeffs[:, cols], mu, order=2)
        pn, dpn = _noise_bounds(acoeffs[:, cols], np.abs(mu))
        disc = dp * dp - 2.0 * p * ddp
        floor = 4.0 * (pn * np.abs(ddp) + dpn * (np.abs(dp) + dpn))
        snap = (np.abs(disc) <= floor) & (ddp != 0)
        if not snap.any():
            continue
        double = (mu - dp / np.where(ddp == 0, 1.0, ddp))[snap]
        z[i, cols[snap]] = double
        z[j, cols[snap]] = double
    return z


def poly_roots_batch(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a batch of monic polynomials; (m, n+1) -> (m, n).

    Aberth-Ehrlich simultaneous iteration from deterministic starting
    points on a circle of radius 1 + max|c_k|, with per-root freezing,
    two guarded Newton polish steps, and the near-double pair polish.
    The work is root-major: the coefficients are transposed once to
    (n+1, m) and the iterates kept as (n, m), one contiguous row per
    root, and the roots are transposed back at the end. The repulsion
    sum_j 1/(z_i - z_j) is added by `_reduce_sum` in numpy's reduction
    order, so the roots are the bits of the row-major loop
    (test_reduce_sum_is_four_accumulator_order pins that order).
    A point whose roots are all frozen leaves the iteration: it is
    written back and dropped from the working arrays, so each sweep
    costs only the points still moving. Every operation acts on one
    point at a time, so a point's roots do not depend on the batch it is
    solved in.
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

    coeffs = np.ascontiguousarray(coeffs.T)
    acoeffs = np.abs(coeffs)
    radius = 1.0 + np.max(acoeffs[:n], axis=0)
    angles = (2.0 * np.pi * np.arange(n) + 0.5 * np.pi) / n
    z = radius[None, :] * np.exp(1j * angles)[:, None]
    # working set: the points still iterating, their coefficients and roots
    live, c, ac, w, wabs = np.arange(m), coeffs, acoeffs, z.copy(), np.abs(z)
    frozen = np.zeros((n, m), dtype=bool)
    iu, ju = pair_indices(n)
    # terms[j, i] = 1/(z_i - z_j) over the live points: once per pair, its
    # transpose the exact negative, 0 where not finite; the diagonal stays 0
    terms = np.zeros((n, n, m), dtype=complex)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ROOT_MAX_ITER):
            p, dp = _horner(c, w)
            frozen |= np.abs(p) <= _noise_bounds(ac, wabs, order=0)
            done = frozen.all(axis=0)
            if done.any():
                z[:, live[done]] = w[:, done]
                keep = ~done
                live, c, ac, w, wabs, frozen, p, dp = (
                    live[keep], c[:, keep], ac[:, keep], w[:, keep], wabs[:, keep],
                    frozen[:, keep], p[:, keep], dp[:, keep],
                )
            if not live.size:
                break
            newton = p / dp  # a fallback pass runs only when its mask selects a value (docstring)
            if not (ok := np.isfinite(newton)).all():
                newton = np.where(ok, newton, 0.05 * (1.0 + wabs))
            d = 1.0 / (w[iu] - w[ju])
            live_terms = terms[:, :, : live.size]
            if (ok := np.isfinite(d)).all():
                live_terms[ju, iu], live_terms[iu, ju] = d, -d
            else:
                live_terms[ju, iu] = np.where(ok, d, 0.0)
                live_terms[iu, ju] = np.where(ok, -d, 0.0)
            repulsion = _reduce_sum(live_terms)  # named: numpy keeps the product order
            denom = 1.0 - newton * repulsion
            if (zero := denom == 0).any():
                denom = np.where(zero, 1.0, denom)
            step = newton / denom
            if not (ok := np.isfinite(step)).all():
                step = np.where(ok, step, 0.0)
            step[frozen] = 0.0
            w -= step
            wabs = np.abs(w)
            frozen |= np.abs(step) <= ROOT_RTOL * (1.0 + wabs)
        z[:, live] = w

        for _ in range(NEWTON_POLISH_STEPS):
            p, dp = _horner(coeffs, z)
            trial = z - p / dp
            if not (ok := np.isfinite(trial)).all():
                trial = np.where(ok, trial, z)
            pt = _horner(coeffs, trial, order=0)
            z = np.where(np.abs(pt) <= np.abs(p), trial, z)

        z = _pair_polish(coeffs, acoeffs, z)

        p = _horner(coeffs, z, order=0)
        floor = _noise_bounds(acoeffs, np.abs(z), order=0)
    # an overflowed p or noise floor proves nothing (a root frozen under an inf floor)
    bad = (np.abs(p) > 1e3 * floor) | ~np.isfinite(p) | ~np.isfinite(floor)
    if bad.any():
        worst = int(np.argmax(np.abs(p).max(axis=0)))
        raise RootConvergenceError(worst, float(np.abs(p[:, worst]).max()))
    return np.ascontiguousarray(z.T)


# ---------------------------------------------------------------------------
# null vectors via complex Gaussian elimination with partial pivoting

def _eliminate(amat: np.ndarray):
    """Upper-triangular factor of each batch matrix, plus |pivots|.

    amat (m, n, n) -> u (m, n, n), |pivots| (m, n). Elimination with
    partial (row) pivoting, the first largest modulus winning; columns
    keep their order, so a tiny pivot marks a null direction. The work
    is point-major: the stack is transposed once to (n, n, m), pivots
    are chosen along the rows with argmax(axis=0), a row that is some
    point's pivot is swapped into place by np.where, and u is transposed
    back at the end. The bits are those of the (m, n, n) row-pivoted
    loop, `_reference_eliminate` in the tests.
    """
    a = np.moveaxis(np.asarray(amat, dtype=complex), 0, -1).copy()
    n = a.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            # rows k.. are 0 left of column k, so the swap moves columns k..
            piv = k + np.argmax(np.abs(a[k:, k]), axis=0)
            top = a[k, k:].copy()
            for r in range(k + 1, n):
                hit = piv == r
                if hit.any():
                    a[k, k:] = np.where(hit, a[r, k:], a[k, k:])
                    a[r, k:] = np.where(hit, top, a[r, k:])
            head = a[k, k]
            safe = np.where(head == 0, 1.0, head)
            factor = np.where(head == 0, 0.0, a[k + 1 :, k] / safe)
            # (r, 1, m) * (1, r, m): never a broadcast to one element (module docstring)
            a[k + 1 :, k + 1 :] -= factor[:, None] * a[k, None, k + 1 :]
            a[k + 1 :, k] = 0.0
    u = np.ascontiguousarray(np.moveaxis(a, -1, 0))
    return u, np.abs(np.diagonal(u, axis1=1, axis2=2))


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
    """Spectra over a parameter batch, one row per point.

    values (m, n); vectors (m, n, n) with vectors[p, i] belonging to
    values[p, i]; defective (m, n); norm_a (m, n); residual (m,).
    solve_spectrum_batch sorts each row by (Re, Im); a SweepResult's
    branches has its columns in branch order instead.
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


def _canonicalize(vectors, defective, bilinear):
    """Deterministic gauge: bilinear normalization for regular pairs
    (largest component's real part positive), unit Euclidean length and
    real-positive largest component for defective ones. bilinear is
    (vectors * vectors).sum(axis=2), which the caller has at hand."""
    lead = np.take_along_axis(
        vectors, np.argmax(np.abs(vectors), axis=2)[:, :, None], axis=2
    )[:, :, 0]
    regular = ~defective
    root = np.sqrt(np.where(regular, bilinear, 1.0))
    vectors = vectors / root[:, :, None]
    lead = lead / root
    flip = (lead.real < 0) | ((lead.real == 0) & (lead.imag < 0))
    np.negative(vectors, out=vectors, where=(regular & flip)[:, :, None])
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
    violation raises BiorthogonalityError naming the batch index: the
    first point with a NaN overlap, or else the first with the largest
    checked overlap. The gaps are computed only at the points whose
    largest off-diagonal overlap reaches BIORTH_TOL or is NaN, since no
    other point can fail. An empty stack gives an empty SpectrumBatch.
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
    vectors = _canonicalize(vectors, defective, bilinear)

    norm_a = (np.abs(vectors) ** 2).sum(axis=2)

    hv = np.einsum("mij,mkj->mki", h, vectors)
    hv -= values[:, :, None] * vectors
    residual = np.abs(hv).max(axis=(1, 2))

    # i = j is never checked (its gap is 0), so only points whose largest
    # off-diagonal overlap reaches BIORTH_TOL, or is NaN, can fail
    overlap = np.abs(np.einsum("mik,mjk->mij", vectors, vectors))
    overlap[:, np.arange(n), np.arange(n)] = 0.0
    worst = np.zeros(m)
    if (suspect := np.flatnonzero(~(overlap.max(axis=(1, 2)) < BIORTH_TOL))).size:
        near, regular = values[suspect], ~defective[suspect]
        gap = np.abs(near[:, :, None] - near[:, None, :])
        checked = (gap > GAP_GUARD) & regular[:, :, None] & regular[:, None, :]
        worst[suspect] = np.where(checked, overlap[suspect], 0.0).max(axis=(1, 2))
    if not (worst < BIORTH_TOL).all():  # a NaN fails too, and argmax names the first NaN
        k = int(np.argmax(worst))
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
    check, then the largest residual or overlap (a NaN overlap above
    any other), then the earliest. It is re-raised as a SolverError
    naming point(k), the caller's name for matrix k of h, and k is the
    batch index in its message.
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
        if roots:
            err = max(roots, key=lambda e: e.residual)
        else:
            err = max(errors, key=lambda e: (np.isnan(e.overlap), e.overlap))
        raise SolverError(f"eigensolver failed at {point(err.batch_index)}: {err}") from err
    if isinstance(parts[0], SpectrumBatch):
        return SpectrumBatch(
            *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(SpectrumBatch))
        )
    return np.concatenate(parts)
