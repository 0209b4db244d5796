"""Eigensolver tests: characteristic polynomial, roots, vectors, flags.

Oracles: the two-level closed form, numpy.linalg for determinants and
(as an independent route) eigenvalues, and hand-built matrices with
known spectra. Random inputs are seeded and symmetrized.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from levelcross.eigensolve import (
    BIORTH_TOL,
    BiorthogonalityError,
    EPS,
    GAP_GUARD,
    _canonicalize,
    char_poly_batch,
    eigenvalues_batch,
    poly_roots_batch,
    solve_spectrum_batch,
)


def random_symmetric(rng, n, m=1):
    """Stack of m complex-symmetric n x n matrices, entries in the unit disc."""
    re = rng.uniform(-1.0, 1.0, size=(m, n, n))
    im = rng.uniform(-1.0, 1.0, size=(m, n, n))
    h = re + 1j * im
    return 0.5 * (h + np.transpose(h, (0, 2, 1)))


def closed_form_two_level(h):
    """Eigenvalues of a 2x2 stack from the quadratic formula, sorted."""
    mean = 0.5 * (h[:, 0, 0] + h[:, 1, 1])
    z = np.sqrt(0.25 * (h[:, 0, 0] - h[:, 1, 1]) ** 2 + h[:, 0, 1] * h[:, 1, 0])
    values = np.stack([mean - z, mean + z], axis=1)
    order = np.lexsort((values.imag, values.real), axis=1)
    return np.take_along_axis(values, order, axis=1)


def roots_of(coeffs):
    """Roots of one polynomial, as a length-1 batch, sorted by (Re, Im)."""
    return np.sort_complex(poly_roots_batch(np.asarray(coeffs, dtype=complex)[None])[0])


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_char_poly_diagonal_integer_matrix():
    coeffs = char_poly_batch(np.diag([1.0, 2.0])[None])[0]
    assert np.array_equal(coeffs, np.array([2.0, -3.0, 1.0], dtype=complex))


def test_char_poly_zero_matrix():
    coeffs = char_poly_batch(np.zeros((2, 2))[None])[0]
    assert np.array_equal(coeffs, np.array([0.0, 0.0, 1.0], dtype=complex))


def test_char_poly_detuned_two_level_trace():
    h = np.array([[1.0 - 0.5j, 0.05], [0.05, -0.5999j]])
    coeffs = char_poly_batch(h[None])[0]
    assert -coeffs[1] == h[0, 0] + h[1, 1]
    assert coeffs[2] == 1.0


def test_char_poly_trace_and_det_identities():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        h = random_symmetric(rng, n, m=50)
        coeffs = char_poly_batch(h)
        trace = np.einsum("mii->m", h)
        det = np.linalg.det(h)
        assert np.abs(coeffs[:, n - 1] + trace).max() < 1e-12 * (1 + np.abs(trace)).max()
        rel = np.abs((-1.0) ** n * coeffs[:, 0] - det) / (1 + np.abs(det))
        assert rel.max() < 1e-10


def test_char_poly_rejects_oversized_matrix():
    with pytest.raises(ValueError):
        char_poly_batch(np.eye(9)[None])


# ---------------------------------------------------------------------------
# polynomial roots


def test_roots_of_simple_quadratics():
    roots = roots_of([-1.0, 0.0, 1.0])  # z^2 - 1
    assert np.abs(roots - np.array([-1.0, 1.0])).max() < 5e-15
    roots = roots_of([2.0, -3.0, 1.0])  # (z-1)(z-2)
    assert np.abs(roots - np.array([1.0, 2.0])).max() < 5e-15


def test_double_root_snaps_exactly():
    roots = roots_of([0.0, 0.0, 1.0])  # z^2
    assert roots[0] == 0.0 and roots[1] == 0.0
    roots = roots_of([1.0, -2.0, 1.0])  # (z-1)^2
    assert roots[0] == 1.0 and roots[1] == 1.0


def test_close_pair_is_not_snapped():
    # gap 1e-3: resolvable in double precision, must stay split
    roots = roots_of([1.0 * 1.001, -(2.001), 1.0])
    assert np.abs(roots - np.array([1.0, 1.001])).max() < 1e-11
    assert roots[0] != roots[1]
    # gap 1e-5: still resolvable
    roots = roots_of([1.00001, -2.00001, 1.0])
    assert np.abs(roots - np.array([1.0, 1.00001])).max() < 5e-10
    assert roots[0] != roots[1]


def test_linear_polynomial():
    roots = roots_of([3.0 - 1.0j, 1.0])
    assert roots[0] == -(3.0 - 1.0j)


def test_cubic_with_triple_root_stays_in_cluster():
    # (z-1)^3: no double-precision method separates the cluster; all
    # three roots must land within the eps**(1/3) cluster radius
    roots = roots_of([-1.0, 3.0, -3.0, 1.0])
    assert np.abs(roots - 1.0).max() < 50 * EPS ** (1.0 / 3.0)


def test_roots_match_closed_form_on_random_quadratics():
    rng = np.random.default_rng(23)
    h = random_symmetric(rng, 2, m=2000)
    numeric = eigenvalues_batch(h)
    exact = closed_form_two_level(h)
    assert np.abs(numeric - exact).max() < 1e-12


def test_roots_match_lapack_on_random_matrices():
    rng = np.random.default_rng(37)
    for n in range(3, 9):
        h = random_symmetric(rng, n, m=200)
        numeric = eigenvalues_batch(h)
        oracle = np.linalg.eigvals(h)
        for k in range(h.shape[0]):
            dist = np.abs(numeric[k][:, None] - oracle[k][None, :])
            rows, cols = linear_sum_assignment(dist)
            assert dist[rows, cols].max() < 1e-10


def test_roots_reject_bad_coefficients():
    with pytest.raises(ValueError):
        roots_of([1.0])  # degree 0
    with pytest.raises(ValueError):
        roots_of([np.nan, 1.0])
    with pytest.raises(ValueError):
        poly_roots_batch(np.array([[1.0, 2.0, 0.0]], dtype=complex))


def test_roots_are_deterministic():
    rng = np.random.default_rng(41)
    coeffs = char_poly_batch(random_symmetric(rng, 4, m=10))
    first = poly_roots_batch(coeffs.copy())
    second = poly_roots_batch(coeffs.copy())
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# full spectra


def test_equal_energy_imaginary_coupling_splits_widths():
    # degenerate real parts, pure imaginary coupling: energies stay
    # equal while the half-widths repel by |coupling|
    d = 2.0 / 3.0 - 0.5j
    h = np.array([[d, 0.05j], [0.05j, d]])
    batch = solve_spectrum_batch(h[None])
    values = batch.values[0]
    assert np.abs(values[0] - (2.0 / 3.0 - 0.55j)) < 1e-12
    assert np.abs(values[1] - (2.0 / 3.0 - 0.45j)) < 1e-12
    assert not batch.defective.any()
    assert batch.residual[0] < 1e-13


def test_exact_coalescence_is_defective():
    # real coupling w against a half-width offset of exactly 4w: the
    # discriminant vanishes and the pair collapses to a double value
    h = np.array(
        [[2.0 / 3.0 - 0.5j, 0.05], [0.05, 2.0 / 3.0 - 0.6j]], dtype=complex
    )
    batch = solve_spectrum_batch(h[None])
    values = batch.values[0]
    assert values[0] == values[1]
    assert batch.defective.all()
    assert batch.residual[0] < 1e-12
    v = batch.vectors[0, 0]
    assert np.abs((v * v).sum()) < 1e-10
    assert np.abs((np.abs(v) ** 2).sum() - 1.0) < 1e-12


def test_true_crossing_keeps_two_directions():
    d = 0.5 - 0.5j
    h = np.diag([d, d]).astype(complex)
    batch = solve_spectrum_batch(h[None])
    assert batch.values[0, 0] == batch.values[0, 1]
    assert not batch.defective.any()
    vecs = batch.vectors[0]
    overlap = np.abs(vecs[0] @ vecs[1])
    assert overlap < 1e-12
    assert np.abs(batch.norm_a[0] - 1.0).max() < 1e-12
    assert np.abs(batch.cross_norms[0]).max() < 1e-12


def test_eigenvectors_satisfy_eigenvalue_equation():
    rng = np.random.default_rng(53)
    h = random_symmetric(rng, 4, m=300)
    batch = solve_spectrum_batch(h)
    hv = np.einsum("mij,mkj->mki", h, batch.vectors)
    residual = np.abs(hv - batch.values[:, :, None] * batch.vectors).max(axis=(1, 2))
    hnorm = np.abs(h).sum(axis=2).max(axis=1)
    assert (residual <= 1e-10 * hnorm).all()
    assert np.array_equal(batch.residual, residual)


def test_bilinear_normalization_and_norm_bounds():
    rng = np.random.default_rng(59)
    for n in (2, 3, 4):
        h = random_symmetric(rng, n, m=500)
        batch = solve_spectrum_batch(h)
        regular = ~batch.defective
        vv = (batch.vectors * batch.vectors).sum(axis=2)
        assert np.abs(vv[regular] - 1.0).max() < 1e-10
        assert batch.norm_a[regular].min() >= 1.0 - 1e-10


def test_biorthogonality_of_separated_pairs():
    rng = np.random.default_rng(61)
    h = random_symmetric(rng, 4, m=500)
    batch = solve_spectrum_batch(h)  # raises on violation
    overlap = np.abs(np.einsum("mik,mjk->mij", batch.vectors, batch.vectors))
    idx = np.arange(4)
    overlap[:, idx, idx] = 0.0
    gap = np.abs(batch.values[:, :, None] - batch.values[:, None, :])
    gap[:, idx, idx] = np.inf
    regular = ~batch.defective
    checked = (gap > GAP_GUARD) & regular[:, :, None] & regular[:, None, :]
    assert np.where(checked, overlap, 0.0).max() < BIORTH_TOL


def test_biorthogonality_error_names_the_batch_index(monkeypatch):
    def spoil_second_matrix(vectors, defective):
        vectors = _canonicalize(vectors, defective).copy()
        vectors[1, 1] = vectors[1, 0]  # duplicate direction in matrix 1 only
        return vectors

    monkeypatch.setattr("levelcross.eigensolve._canonicalize", spoil_second_matrix)
    h = random_symmetric(np.random.default_rng(62), 3, m=3)
    with pytest.raises(BiorthogonalityError, match=r"\(batch index 1\)") as info:
        solve_spectrum_batch(h)
    assert info.value.batch_index == 1
    assert info.value.overlap >= BIORTH_TOL


def test_values_sorted_by_real_then_imag():
    rng = np.random.default_rng(67)
    h = random_symmetric(rng, 5, m=100)
    values = eigenvalues_batch(h)
    for row in values:
        key = [(v.real, v.imag) for v in row]
        assert key == sorted(key)


def test_eigenvalues_batch_matches_full_solve():
    rng = np.random.default_rng(71)
    h = random_symmetric(rng, 3, m=50)
    assert np.array_equal(eigenvalues_batch(h), solve_spectrum_batch(h).values)


def test_single_level_matrix():
    batch = solve_spectrum_batch(np.array([[[2.0 - 0.3j]]]))
    assert batch.values[0, 0] == 2.0 - 0.3j
    assert batch.vectors[0, 0, 0] == 1.0
    assert not batch.defective[0, 0]
    assert batch.norm_a[0, 0] == 1.0


def test_canonical_gauge_is_deterministic():
    rng = np.random.default_rng(73)
    h = random_symmetric(rng, 4, m=20)
    a = solve_spectrum_batch(h)
    b = solve_spectrum_batch(h.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    lead = np.take_along_axis(
        a.vectors, np.argmax(np.abs(a.vectors), axis=2)[:, :, None], axis=2
    )[:, :, 0]
    regular = ~a.defective
    assert (lead.real[regular] > 0).all() | np.allclose(lead.real[regular], 0)


def test_norm_a_grows_towards_coalescence():
    # sliding the half-width offset towards the coalescence value 4w
    # makes both intensity norms blow up monotonically
    norms = []
    for gamma2_half in (0.59, 0.599, 0.5999):
        h = np.array(
            [[2.0 / 3.0 - 0.5j, 0.05], [0.05, 2.0 / 3.0 - 1j * gamma2_half]]
        )
        batch = solve_spectrum_batch(h[None])
        norms.append(batch.norm_a[0, 0])
    assert norms[0] < norms[1] < norms[2]
    assert norms[0] > 2.0


def test_near_coalescence_roots_follow_closed_form():
    # one part in 1e4 from the coalescence: conditioning costs ~1e-10,
    # the solver must stay within that budget of the closed form
    h = np.array(
        [[2.0 / 3.0 - 0.5j, 0.05], [0.05, 2.0 / 3.0 - 1j * (0.6 - 1e-4)]]
    )[None]
    numeric = eigenvalues_batch(h)
    exact = closed_form_two_level(h)
    assert np.abs(numeric - exact).max() < 1e-9


def test_biorthogonality_check_flags_duplicate_direction(monkeypatch):
    # a solver bug that hands two well-separated eigenvalues one shared
    # direction must not pass silently
    def duplicate_direction(vectors, defective):
        vectors = _canonicalize(vectors, defective).copy()
        vectors[:, 1] = vectors[:, 0]
        return vectors

    monkeypatch.setattr("levelcross.eigensolve._canonicalize", duplicate_direction)
    h = np.array([[1.0 - 0.5j, 0.05], [0.05, -0.5999j]])
    with pytest.raises(BiorthogonalityError, match=r"\(batch index 0\)"):
        solve_spectrum_batch(h[None])


def test_solver_requires_square_stack():
    with pytest.raises(ValueError):
        solve_spectrum_batch(np.zeros((2, 3, 2), dtype=complex))
