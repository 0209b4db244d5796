"""Eigensolver tests: characteristic polynomial, roots, vectors, flags.

Oracles: the two-level closed form, numpy.linalg for determinants and
(as an independent route) eigenvalues, and hand-built matrices with
known spectra. Random inputs are seeded and symmetrized.
"""

import inspect
import re
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import levelcross.eigensolve as es
from levelcross.eigensolve import (
    BIORTH_TOL,
    BiorthogonalityError,
    CLUSTER_RTOL,
    EPS,
    GAP_GUARD,
    MAX_ORDER,
    NEWTON_POLISH_STEPS,
    ROOT_RTOL,
    RootConvergenceError,
    SolverError,
    SpectrumBatch,
    _canonicalize,
    char_poly_batch,
    eigenvalues_batch,
    poly_roots_batch,
    solve_at,
    solve_spectrum_batch,
)
from levelcross.epfinder import SCAN_POINTS
from levelcross.model import Tunable, build_hamiltonian_batch, scenario_from_dict, with_profile
from levelcross.presets import PRESET_IDS, preset


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


@pytest.mark.parametrize(
    "diagonal",
    [[1e100, 1e100, 2e100, 1.0], [1e159, 0.1]],  # coefficients overflow; p overflows at the roots
)
def test_spectra_beyond_the_polynomial_range_fail_at_their_batch_index(diagonal):
    n = len(diagonal)
    h = np.stack([np.eye(n), np.diag(diagonal)]).astype(complex) + 0.05 * (1 - np.eye(n))
    with pytest.raises(RootConvergenceError, match=r"\(batch index 1, residual inf\)"):
        eigenvalues_batch(h)


def test_roots_are_deterministic():
    rng = np.random.default_rng(41)
    coeffs = char_poly_batch(random_symmetric(rng, 4, m=10))
    first = poly_roots_batch(coeffs.copy())
    second = poly_roots_batch(coeffs.copy())
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# roots against the full-batch Aberth loop
#
# The reference below is the root finder as it was before converged rows
# left the iteration: every row is iterated until all rows are frozen.
# Taking rows out must not change a single bit of any root.


def _reference_horner(coeffs, z, order=1):
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


def _reference_noise_bounds(coeffs, zabs):
    n = coeffs.shape[1] - 1
    acs = np.abs(coeffs)
    b0 = np.broadcast_to(acs[:, n, None], zabs.shape).copy()
    b1 = np.zeros_like(zabs)
    for j in range(n - 1, -1, -1):
        b1 = b1 * zabs + b0
        b0 = b0 * zabs + acs[:, j, None]
    scale = 8.0 * n * EPS
    return scale * b0, scale * b1


def _reference_pair_polish(coeffs, z):
    m, n = z.shape
    for i in range(n):
        for j in range(i + 1, n):
            close = np.abs(z[:, i] - z[:, j]) <= CLUSTER_RTOL * (1.0 + np.abs(z[:, i]))
            if not close.any():
                continue
            rows = np.flatnonzero(close)
            mu = 0.5 * (z[rows, i] + z[rows, j])[:, None]
            p, dp, ddp = _reference_horner(coeffs[rows], mu, order=2)
            pn, dpn = _reference_noise_bounds(coeffs[rows], np.abs(mu))
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


def reference_roots(coeffs):
    """Full-batch Aberth iteration; reads es.ROOT_MAX_ITER at call time."""
    coeffs = np.asarray(coeffs, dtype=complex)
    lead = coeffs[:, -1:]
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
        for _ in range(es.ROOT_MAX_ITER):
            p, dp = _reference_horner(coeffs, z)
            floor, _ = _reference_noise_bounds(coeffs, np.abs(z))
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
            p, dp = _reference_horner(coeffs, z)
            trial = z - p / dp
            trial = np.where(np.isfinite(trial), trial, z)
            pt, _ = _reference_horner(coeffs, trial)
            z = np.where(np.abs(pt) <= np.abs(p), trial, z)

        z = _reference_pair_polish(coeffs, z)

    p, _ = _reference_horner(coeffs, z)
    floor, _ = _reference_noise_bounds(coeffs, np.abs(z))
    bad = (np.abs(p) > 1e3 * floor) | ~np.isfinite(p) | ~np.isfinite(floor)
    if bad.any():
        worst = int(np.argmax(np.abs(p).max(axis=1)))
        raise RootConvergenceError(worst, float(np.abs(p[worst]).max()))
    return z


def outcome(solve, coeffs):
    """The roots' bit patterns, or the error's batch_index and the bit
    pattern of its residual (so that a residual of nan equals itself)."""
    try:
        return solve(coeffs.copy()).view(np.uint64)
    except RootConvergenceError as err:
        return err.batch_index, np.float64(err.residual).view(np.uint64)


def assert_same_outcome(coeffs):
    want, got = outcome(reference_roots, coeffs), outcome(poly_roots_batch, coeffs)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


def star_spec(order, steps):
    """fig5 widened to `order` levels: order-1 parallel levels 0.05 apart,
    all coupled to one level e = a with the gaussian profile."""
    levels = [{"e": f"{1 + 0.05 * k!r} - a/2", "gamma_half": 0.5} for k in range(order - 1)]
    return {
        "label": f"star{order}",
        "levels": levels + [{"e": "a", "gamma_half": 0.5}],
        "coupling": {
            "omega": {"re": 0.05, "im": 0.05},
            "profile": "gaussian",
            "pairs": [[k + 1, order] for k in range(order - 1)],
            "selfenergy": {},
        },
        "sweep": {"a_min": -0.5, "a_max": 2.0, "steps": steps},
    }


def grid_hamiltonians(scenario, steps):
    a = np.linspace(scenario.sweep.a_min, scenario.sweep.a_max, steps)
    return build_hamiltonian_batch(scenario, a)


def grid_coeffs(scenario, steps):
    return char_poly_batch(grid_hamiltonians(scenario, steps))


def random_coeffs(rng, degree, m):
    """Monic polynomials from random roots: m plain rows, m with a pair
    1e-7 apart and m with an exact double root (degree >= 2)."""
    roots = rng.normal(size=(3, m, degree)) + 1j * rng.normal(size=(3, m, degree))
    if degree >= 2:
        roots[1, :, 1] = roots[1, :, 0] + 1e-7 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        roots[2, :, 1] = roots[2, :, 0]
    return np.array([np.poly(r)[::-1] for r in roots.reshape(-1, degree)])


def mixed_batch():
    """Degree-4 rows: 10 with distinct roots, then 10 with a pair 1e-7
    apart, 10 with a double root and 10 with a triple root."""
    rng = np.random.default_rng(3)
    roots = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    roots[10:20, 1] = roots[10:20, 0] + 1e-7
    roots[20:30, 1] = roots[20:30, 0]
    roots[30:, 1:3] = roots[30:, :1]
    return np.array([np.poly(r)[::-1] for r in roots])


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_roots_match_the_full_batch_loop_on_presets(pid):
    assert_same_outcome(grid_coeffs(preset(pid), 2001))


@pytest.mark.parametrize("order", range(2, 9))
def test_roots_match_the_full_batch_loop_on_star_scenarios(order):
    assert_same_outcome(grid_coeffs(scenario_from_dict(star_spec(order, 2001)), 2001))


@pytest.mark.parametrize("degree", range(1, 9))
def test_roots_match_the_full_batch_loop_on_random_polynomials(degree):
    assert_same_outcome(random_coeffs(np.random.default_rng(100 + degree), degree, 300))


@pytest.mark.parametrize(
    "scenario", [preset("fig4"), scenario_from_dict(star_spec(8, 2))], ids=["fig4", "star8"]
)
def test_roots_match_the_full_batch_loop_on_a_full_block(scenario):
    # a block of SOLVE_BLOCK points: from 256 KB on, numpy evaluates an
    # expression on a temporary in place, and may swap a product's operands
    assert_same_outcome(grid_coeffs(scenario, es.SOLVE_BLOCK))


CRITERION_2_BOX = ((0.3, 1.0), (0.4, 0.8))

# the six searches of the benchmark's ep_search: name, scenario, 0-based level, box
EP_SEARCHES = [
    ("fig1_constant", with_profile(preset("fig1"), "constant"), 1, CRITERION_2_BOX),
    ("fig1_gaussian", with_profile(preset("fig1"), "gaussian"), 1, CRITERION_2_BOX),
    ("fig2", preset("fig2"), 1, CRITERION_2_BOX),
    ("fig4", preset("fig4"), 3, CRITERION_2_BOX),
    ("fig9", preset("fig9"), 3, CRITERION_2_BOX),
    ("fig5", preset("fig5"), 3, ((0.5, 0.9), (0.4, 0.8))),
]


def ep_scan_hamiltonians(scenario, level, box=CRITERION_2_BOX):
    """The matrices of find_ep's SCAN_POINTS^2 scan over the box, the
    scenario tuned by the 0-based level's half-width."""
    axes = [np.linspace(lo, hi, SCAN_POINTS) for lo, hi in box]
    a, t = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    return build_hamiltonian_batch(scenario, a, tunable=Tunable("gamma_half", level), value=t)


def ep_scan_coeffs(scenario, level):
    """Characteristic polynomials of find_ep's scan over the criterion-2 box."""
    return char_poly_batch(ep_scan_hamiltonians(scenario, level))


@pytest.mark.parametrize(
    "scenario, level",
    [(with_profile(preset("fig1"), "constant"), 1), (preset("fig4"), 3)],
    ids=["fig1_constant", "fig4"],
)
def test_roots_match_the_full_batch_loop_on_ep_scans(scenario, level):
    # the scan stack, then the Newton (3 rows) and probe (4 rows) batch
    # shapes and single rows, cut at the cells nearest to a coalescence
    # and at a stride through the box
    coeffs = ep_scan_coeffs(scenario, level)
    assert_same_outcome(coeffs)
    values = np.sort_complex(poly_roots_batch(coeffs))
    nearest = np.argsort(np.abs(np.diff(values, axis=1)).min(axis=1), kind="stable")[:10]
    for start in sorted({*nearest.tolist(), *range(0, len(coeffs), 260)}):
        for rows in (1, 3, 4):
            assert_same_outcome(coeffs[start : start + rows])


def reference_char_poly(h):
    """char_poly_batch as it was: the recursion from M_1 = I, its k = 2
    product h @ I included."""
    h = np.asarray(h, dtype=complex)
    m, n = h.shape[0], h.shape[1]
    coeffs = np.zeros((m, n + 1), dtype=complex)
    coeffs[:, n] = 1.0
    eye = np.eye(n, dtype=complex)
    work = np.broadcast_to(eye, (m, n, n)).copy()
    c = -np.einsum("mii->m", h)
    coeffs[:, n - 1] = c
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            work = h @ work + c[:, None, None] * eye
            c = -np.einsum("mij,mji->m", h, work) / k
            coeffs[:, n - k] = c
    return coeffs


def assert_same_char_poly(h):
    got, want = char_poly_batch(h), reference_char_poly(h)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_char_poly_keeps_the_loop_bits_on_presets(pid):
    for steps in (1, 2, 3, 101, 2001):
        assert_same_char_poly(grid_hamiltonians(preset(pid), steps))


@pytest.mark.parametrize("order", range(2, 9))
def test_char_poly_keeps_the_loop_bits_on_star_scenarios(order):
    assert_same_char_poly(grid_hamiltonians(scenario_from_dict(star_spec(order, 2001)), 2001))


@pytest.mark.parametrize("search", EP_SEARCHES, ids=[name for name, *_ in EP_SEARCHES])
def test_char_poly_keeps_the_loop_bits_on_ep_scans(search):
    _, scenario, level, box = search
    assert_same_char_poly(ep_scan_hamiltonians(scenario, level, box))


@pytest.mark.parametrize("n", range(1, 9))
def test_char_poly_keeps_the_loop_bits_on_signed_zeros(n):
    # h @ I turns a -0.0 entry into +0.0; zero rows and columns, and
    # matrices made of signed zeros alone, keep the coefficients' bits
    rng = np.random.default_rng(200 + n)
    h = random_symmetric(rng, n, m=600)
    parts = h.view(np.float64).reshape(600, n, n, 2)
    parts[rng.uniform(size=parts.shape) < 0.3] = 0.0
    parts[rng.uniform(size=parts.shape) < 0.3] = -0.0
    h[:200][rng.uniform(size=(200, n)) < 0.3] = 0.0  # zero rows
    h[200:400, :, rng.integers(0, n)] = -0.0  # a zero column
    signs = rng.uniform(size=(200, n, n, 2)) < 0.5
    parts[400:] = np.where(signs, -0.0, 0.0)  # every entry a signed zero
    assert_same_char_poly(h)


def test_char_poly_fails_the_same_row_on_an_infinite_entry():
    h = random_symmetric(np.random.default_rng(211), 4, m=5)
    h[2, 1, 3] = np.inf
    h[4, 0, 0] = complex(0.0, -np.inf)
    got, want = char_poly_batch(h), reference_char_poly(h)
    bad = ~np.isfinite(got).all(axis=1)
    assert bad.tolist() == [False, False, True, False, True]
    assert np.array_equal(bad, ~np.isfinite(want).all(axis=1))
    ok = ~bad
    assert np.array_equal(got[ok].view(np.uint64), want[ok].view(np.uint64))
    with pytest.raises(RootConvergenceError, match=r"\(batch index 2, residual inf\)"):
        eigenvalues_batch(h)


# The Aberth loop's fallback passes, each known by a fragment of the one
# line it runs only when its mask selects something (module docstring).
FALLBACK_PASSES = {
    "newton": "newton = np.where(",
    "pair term": "live_terms[ju, iu] = np.where(",
    "denominator": "denom = np.where(",
    "step": "step = np.where(",
    "polish trial": "trial = np.where(",
}


def traced_run(solve, coeffs):
    """Run solve(coeffs), poly_roots_batch or reference_roots, under a
    line tracer. Returns how many times each fallback pass of
    poly_roots_batch ran and the bit patterns of the roots as they stood
    when solve returned or raised RootConvergenceError, points first."""
    lines, first = inspect.getsourcelines(poly_roots_batch)
    where = {
        first + k: name
        for k, line in enumerate(lines)
        for name, fragment in FALLBACK_PASSES.items()
        if fragment in line
    }
    assert sorted(where.values()) == sorted(FALLBACK_PASSES)
    runs, last = dict.fromkeys(FALLBACK_PASSES, 0), {}

    def in_solve(frame, event, arg):
        if event == "line" and solve is poly_roots_batch and frame.f_lineno in where:
            runs[where[frame.f_lineno]] += 1
        elif event == "return":
            last["z"] = np.array(frame.f_locals["z"])
        return in_solve

    def calls(frame, event, arg):
        return in_solve if frame.f_code is solve.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        solve(coeffs.copy())
    except RootConvergenceError:
        pass
    finally:
        sys.settrace(previous)
    z = last["z"].T if solve is poly_roots_batch else last["z"]  # root-major inside
    return runs, np.ascontiguousarray(z).view(np.uint64)


# Rows at the overflow edge of the start circle, radius 1 + max|c_k|:
# there p overflows to inf (the noise bound too, so the root freezes) or
# to nan (it does not), and nan roots take the fallback Newton step. The
# first two rows then pass the final check and their roots are compared
# bit for bit, though one root of each is wrong: it froze on the start
# circle under an overflowed noise bound (CHANGES.md). In the last two an
# iterate runs out of range, pair terms and steps go non-finite and the
# rows fail with a residual of nan, so their roots are compared as they
# stood when the final check raised.
FALLBACK_ROWS = [
    [1.13189304e34 + 2.88214028e34j, 3.45671267e24 + 1.13561399e25j,
     -7.06985001e29 - 4.45221263e30j, 0.0, 1.32028379e38 + 3.92858674e38j,
     1.70451452e42 - 5.64065799e42j, -3.67873498e43 - 3.21394577e43j, 1.0],
    [-1.13380295e49 + 1.50210772e47j, 0.0, 6.49797624e47 - 3.53519512e47j, 0.0,
     -4.20985629e48 - 1.91939865e49j, 1.30327410e51 - 1.64328593e51j, 1.0],
    [0.0, -5.18612026e306 - 2.01922428e306j, 0.0, 1.06287134e301 - 5.53833099e301j, 1.0],
    [-2.23065130e304 - 5.69053138e304j, 0.0, -1.32295663e300 + 4.88064627e300j,
     8.84604881e304 + 3.75042858e304j, 1.0],
]


def test_fallback_passes_match_the_full_batch_loop():
    runs = dict.fromkeys(FALLBACK_PASSES, 0)
    failed = []
    # the reference's final check runs outside its errstate
    with np.errstate(over="ignore", invalid="ignore"):
        for row in FALLBACK_ROWS:
            coeffs = np.array([row], dtype=complex)
            assert_same_outcome(coeffs)
            failed.append(isinstance(outcome(poly_roots_batch, coeffs), tuple))
            row_runs, roots = traced_run(poly_roots_batch, coeffs)
            assert np.array_equal(roots, traced_run(reference_roots, coeffs)[1])
            for name, count in row_runs.items():
                runs[name] += count
    # rows 0 and 1 freeze a root on the start circle, where the noise floor is inf
    assert failed == [True, True, True, True]
    # every pass ran but the zero denominator's: 1 - newton * repulsion is
    # exactly 0 only where that product rounds to exactly 1, which no input
    # was found to reach (CHANGES.md)
    assert [name for name, count in runs.items() if not count] == ["denominator"]


def test_row_roots_do_not_depend_on_the_batch():
    coeffs = np.concatenate(
        [mixed_batch(), grid_coeffs(scenario_from_dict(star_spec(4, 101)), 101)]
    )
    together = poly_roots_batch(coeffs).view(np.uint64)
    reversed_order = poly_roots_batch(coeffs[::-1].copy())[::-1].view(np.uint64)
    alone = np.concatenate([poly_roots_batch(row[None]) for row in coeffs]).view(np.uint64)
    assert np.array_equal(together, alone)
    assert np.array_equal(together, reversed_order)


def test_iteration_cap_matches_the_full_batch_loop(monkeypatch):
    coeffs = mixed_batch()
    full = poly_roots_batch(coeffs).view(np.uint64)
    errors = 0
    for cap in range(1, 25):
        monkeypatch.setattr(es, "ROOT_MAX_ITER", cap)
        assert_same_outcome(coeffs)
        try:
            capped = poly_roots_batch(coeffs).view(np.uint64)
        except RootConvergenceError:
            errors += 1
            continue
        # the distinct-root rows froze early and keep their bits
        assert np.array_equal(capped[:10], full[:10])
    assert 0 < errors < 24  # both the error and the written-back paths ran


# ---------------------------------------------------------------------------
# the summation order of the Aberth repulsion


@pytest.mark.parametrize("k", range(1, 9))
def test_reduce_sum_is_four_accumulator_order(k):
    # es._reduce_sum writes out the order numpy's add.reduce uses on a
    # contiguous axis of length k; a numpy that sums in another order
    # fails here, before it moves a root's last bit
    rng = np.random.default_rng(70 + k)
    sign = rng.choice([-1.0, 1.0], size=(20000, k, 2))
    parts = sign * 10.0 ** rng.uniform(-8, 8, size=(20000, k, 2))
    signed_zero = rng.random((20000, k, 2)) < 0.25
    parts = np.where(signed_zero, np.copysign(0.0, parts), parts)
    parts[:100] = np.copysign(0.0, parts[:100])  # all-zero rows: -0 and +0 in every mix
    stack = parts.view(complex)[..., 0]  # (20000, k), contiguous last axis
    got = es._reduce_sum(np.ascontiguousarray(stack.T))
    assert np.array_equal(got.view(np.uint64), stack.sum(axis=-1).view(np.uint64))
    if k >= 4:  # the order matters: a running sum rounds differently
        running = stack[:, 0]
        for j in range(1, k):
            running = running + stack[:, j]
        assert not np.array_equal(running.view(np.uint64), got.view(np.uint64))


# ---------------------------------------------------------------------------
# elimination and back-substitution against the row-major (m, n, n) loops
#
# The references are _eliminate and _back_substitute as they were before
# the points moved onto the last axis: one matrix per leading index, rows
# swapped by fancy indexing, each row's sum by .sum(axis=1). The
# point-major versions take and give (n, n, m), (n, m) arrays; the tests
# transpose to them and back and must find the same bits.


def _reference_eliminate(amat: np.ndarray):
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


def _reference_back_substitute(u, free, held):
    """Solve u x = 0 with x[free] = 1 and every entry past free 0; u (m, n, n),
    free (m,), held (m, n) columns kept at 0; x (m, n)."""
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


def point_major(stack):
    """A contiguous (n, n, m) copy of an (m, n, n) stack."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(stack, dtype=complex), 0, -1))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))


def assert_same_elimination(amat):
    a = point_major(amat)
    with np.errstate(over="ignore", invalid="ignore"):
        want_u, want_pivots = _reference_eliminate(amat)
        pivots = es._eliminate(a)
    assert_same_bits(np.moveaxis(a, -1, 0), want_u)
    assert_same_bits(pivots.T, want_pivots)
    return want_u, want_pivots


def assert_same_back_substitution(amat, rng):
    """Back-substitute the factors of amat from every free column the
    solver can pick (the first smallest pivot, the last, a random one)
    with no held column and with random held columns."""
    u, pivots = assert_same_elimination(amat)
    m, n = pivots.shape
    frees = [np.argmin(pivots, axis=1), np.argsort(pivots, axis=1, kind="stable")[:, -1]]
    frees.append(rng.integers(0, n, size=m))
    for free in frees:
        for held in (np.zeros((m, n), dtype=bool), rng.random((m, n)) < 0.3):
            with np.errstate(over="ignore", invalid="ignore"):
                want = _reference_back_substitute(u, free, held)
                got = es._back_substitute(point_major(u), free, np.ascontiguousarray(held.T))
            assert_same_bits(got.T, want)


def assert_same_elimination_at_each_eigenvalue(h):
    values = eigenvalues_batch(h)
    eye = np.eye(h.shape[1], dtype=complex)
    rng = np.random.default_rng(h.shape[0] + h.shape[1])
    for i in range(h.shape[1]):
        amat = h - values[:, i, None, None] * eye
        assert_same_back_substitution(amat, rng)
        for q in range(0, len(amat), 500):  # one matrix alone, as the EP search solves it
            assert_same_back_substitution(amat[q : q + 1], rng)


def awkward_stacks(rng, n):
    """Random complex-symmetric stacks of order n, 200 matrices each:
    plain; a zero column in every matrix; a duplicated row (a pivot tie
    at every step that reaches it); entries of modulus past the float
    range; and a row scaled by 1j (ties between moduli, not bits)."""
    plain = random_symmetric(rng, n, m=200)
    zero_column = plain.copy()
    zero_column[np.arange(200), :, rng.integers(0, n, size=200)] = 0.0
    duplicated = plain.copy()
    if n >= 2:
        duplicated[:, n - 1] = duplicated[:, 0]
    huge = plain.copy()
    huge[:100, 0, 0] = 1.5e308 + 1.5e308j   # |entry| = inf
    huge[100:, n - 1, 0] = 1.5e308 - 1.5e308j
    rotated = plain.copy()
    if n >= 2:
        rotated[:, 1] = 1j * rotated[:, 0]
    return [plain, zero_column, duplicated, huge, rotated]


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_elimination_matches_the_row_loop_on_presets(pid):
    assert_same_elimination_at_each_eigenvalue(grid_hamiltonians(preset(pid), 2001))


@pytest.mark.parametrize("order", range(2, 9))
def test_elimination_matches_the_row_loop_on_star_scenarios(order):
    assert_same_elimination_at_each_eigenvalue(
        grid_hamiltonians(scenario_from_dict(star_spec(order, 2001)), 2001)
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_elimination_matches_the_row_loop_on_awkward_stacks(n):
    rng = np.random.default_rng(90 + n)
    for stack in awkward_stacks(rng, n):
        assert_same_back_substitution(stack, rng)
        assert_same_back_substitution(stack[:1], rng)


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
    assert abs(np.vdot(vecs[0], vecs[1])) < 1e-12


def complex_orthogonal(rng, n):
    """A complex orthogonal matrix (Q Q^T = I): 2n complex Givens rotations."""
    q = np.eye(n, dtype=complex)
    for _ in range(2 * n):
        i, j = rng.choice(n, 2, replace=False)
        angle = complex(rng.normal(), 0.3 * rng.normal())
        g = np.eye(n, dtype=complex)
        g[i, i] = g[j, j] = np.cos(angle)
        g[i, j], g[j, i] = np.sin(angle), -np.sin(angle)
        q = g @ q
    return q


def rotated_crossings():
    """400 seeded (Q D Q^T, k) with k entries of D doubled (N = 2..6):
    exactly degenerate, diagonalizable and, unlike a diagonal matrix,
    with no zero pattern to lean on."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        pairs = int(rng.integers(1, n // 2 + 1))
        d = rng.normal(size=n - pairs) + 1j * rng.normal(size=n - pairs)
        q = complex_orthogonal(rng, n)
        yield q @ np.diag(np.concatenate([d, d[:pairs]])) @ q.T, pairs


def roots_snapped(h, doubled):
    """Whether the root stage returns the `doubled` double eigenvalues of h
    as bit-equal pairs. Where it does not, a doubled root came back spread,
    too far apart for the snap (ROADMAP item 3; which matrices do depends
    on the last bits, so on the BLAS kernel). The solve then fails the
    check of a separated pair or keeps a residual, whatever the repair."""
    try:
        values = eigenvalues_batch(h[None])[0]
    except RootConvergenceError:
        return False
    bits = values.view(np.uint64).reshape(-1, 2)
    iu, ju = np.triu_indices(len(values), 1)
    return int((bits[iu] == bits[ju]).all(axis=1).sum()) == doubled


def test_rotated_true_crossings_get_independent_vectors(monkeypatch):
    members = []  # per call, the crossing members: points that hold a column at 0
    original = es._back_substitute

    def counting(u, free, held):
        members.append(int(held.any(axis=0).sum()))
        return original(u, free, held)

    monkeypatch.setattr(es, "_back_substitute", counting)
    repaired = 0
    for index, (h, doubled) in enumerate(rotated_crossings()):
        n = h.shape[0]
        if not roots_snapped(h, doubled):
            continue
        batch = solve_spectrum_batch(h[None])  # raises on a biorthogonality failure
        scale = np.abs(h).sum(axis=1).max()
        assert batch.residual[0] <= 1e-10 * scale, index
        values, vectors = batch.values[0], batch.vectors[0]
        for i, j in zip(*np.triu_indices(n, 1)):
            if values[i] != values[j] or np.array_equal(vectors[i], vectors[j]):
                continue
            repaired += 1
            assert not batch.defective[0, [i, j]].any(), index
            assert abs(vectors[i] @ vectors[j]) < BIORTH_TOL, index
    assert sum(members) > 600
    assert repaired > 300


def reference_repair_degenerate(values, vectors, h, near):
    """The per-point degenerate repair the batched group path replaced,
    kept verbatim as its oracle."""
    n = values.shape[1]
    scale = np.abs(h).max(axis=(1, 2))
    for point in np.flatnonzero(near.any(axis=(1, 2))):
        seen = set()
        for i in range(n):
            if i in seen:
                continue
            group = [i] + [j for j in range(i + 1, n) if near[point, i, j]]
            if len(group) < 2:
                continue
            seen.update(group)
            u, profile = _reference_eliminate((h[point] - values[point, i] * np.eye(n))[None])
            tiny = profile <= es.TINY_PIVOT_FACTOR * EPS * max(scale[point], 1.0)
            if int(tiny.sum()) < 2:
                continue  # defective coalescence: shared direction stands
            order = np.argsort(profile[0], kind="stable")
            basis = []
            for member, free in zip(group, order[: len(group)]):
                v = _reference_back_substitute(u, free[None], tiny)[0]
                for b in basis:
                    bb = (b * b).sum()
                    if abs(bb) > es.DEFECTIVE_RTOL * (np.abs(b) ** 2).sum():
                        v = v - (v * b).sum() / bb * b
                basis.append(v)
                vectors[point, member] = v
    return vectors


def reference_spectrum(h):
    """solve_spectrum_batch as it was with the per-point repair, whose
    groups are the eigenvalues within 1e-12 (1 + |lambda|) of a leader."""
    m, n = h.shape[0], h.shape[1]
    values = es.eigenvalues_batch(h)
    vectors = np.empty((m, n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for i in range(n):
        u, pivots = _reference_eliminate(h - values[:, i, None, None] * eye)
        free = np.argmin(pivots, axis=1)
        vectors[:, i, :] = _reference_back_substitute(u, free, np.zeros(pivots.shape, dtype=bool))
    gap = np.abs(values[:, :, None] - values[:, None, :])
    idx = np.arange(n)
    gap_offdiag = gap + np.where(idx[:, None] == idx[None, :], np.inf, 0.0)
    near = gap_offdiag <= 1e-12 * (1.0 + np.abs(values)[:, :, None])
    if near.any():
        vectors = reference_repair_degenerate(values, vectors, h, near)
    bilinear = (vectors * vectors).sum(axis=2)
    euclid = (np.abs(vectors) ** 2).sum(axis=2)
    defective = np.abs(bilinear) < es.DEFECTIVE_RTOL * euclid
    vectors = _stack_major_canonicalize(vectors, defective, bilinear)
    norm_a = (np.abs(vectors) ** 2).sum(axis=2)
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
    return es.SpectrumBatch(values, vectors, defective, norm_a, residual)


def spectrum_outcome(solve, h):
    """Every SpectrumBatch array as bytes, or the error's (type, message)."""
    try:
        batch = solve(np.array(h, dtype=complex))
    except es.SolverError as err:
        return type(err).__name__, str(err)
    return tuple(np.ascontiguousarray(a).tobytes() for a in vars(batch).values())


def assert_same_spectrum(h):
    assert spectrum_outcome(solve_spectrum_batch, h) == spectrum_outcome(reference_spectrum, h)


def diagonal_crossings():
    """300 seeded diag([d, d, ...]) (N = 2..8): one value repeated 2..N
    times among random others, in random order."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d[1 : int(rng.integers(2, n + 1))] = d[0]
        yield np.diag(rng.permutation(d))


def by_order(matrices):
    """Stack the matrices of each order into one batch."""
    stacks = {}
    for h in matrices:
        stacks.setdefault(h.shape[0], []).append(h)
    return [np.stack(hs) for hs in stacks.values()]


def twin_fig1_grid():
    """Two uncoupled copies of fig1 on its 2001-point grid: every
    eigenvalue is exactly doubly degenerate at every point."""
    levels = [{"e": "1 - a/2", "gamma_half": 0.5}, {"e": "a", "gamma_half": 0.5999}]
    twin = scenario_from_dict({
        "label": "twin",
        "levels": levels * 2,
        "coupling": {
            "omega": {"re": 0.05, "im": 0.0},
            "profile": "gaussian",
            "pairs": [[1, 2], [3, 4]],
            "selfenergy": {},
        },
        "sweep": {"a_min": 0.0, "a_max": 1.5, "steps": 2001},
    })
    return build_hamiltonian_batch(twin, twin.sweep.points())


def test_group_vectors_match_the_per_point_repair_on_rotated_crossings():
    crossings = list(rotated_crossings())
    for h, _ in crossings:
        assert_same_spectrum(h[None])
    matrices = [h for h, doubled in crossings if roots_snapped(h, doubled)]
    for stack in by_order(matrices):
        assert_same_spectrum(stack)


def test_group_vectors_match_the_per_point_repair_on_diagonal_crossings():
    matrices = list(diagonal_crossings())
    for h in matrices:
        assert_same_spectrum(h[None])
    for stack in by_order(matrices):
        assert_same_spectrum(stack)


def test_group_vectors_match_the_per_point_repair_on_the_twin_grid():
    assert_same_spectrum(twin_fig1_grid())


def clustered_spectra():
    """900 seeded matrices (N = 2..8) with a 2- to 4-fold eigenvalue
    cluster spread by 1e-16 to 1e-9: 450 diagonal, and each again as
    Q D Q^T with a complex orthogonal Q."""
    rng = np.random.default_rng(29)
    for _ in range(450):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, min(n, 4) + 1))
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        spread = 10.0 ** rng.uniform(-16, -9)
        d[1:k] = d[0] + spread * (rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1))
        d = rng.permutation(d)
        yield np.diag(d)
        q = complex_orthogonal(rng, n)
        yield q @ np.diag(d) @ q.T


def near_values_are_bit_equal(h):
    """Count the pairs of sorted eigenvalues within 1e-12 (1 + |lambda|)
    of each other on the stack h, asserting that each pair is bit-equal;
    matrices whose roots do not converge are left out."""
    keep = np.arange(len(h))
    while True:
        try:
            values = eigenvalues_batch(h[keep])
            break
        except RootConvergenceError as err:
            keep = np.delete(keep, err.batch_index)
    n = values.shape[1]
    iu, ju = np.triu_indices(n, 1)
    near = np.abs(values[:, iu] - values[:, ju]) <= 1e-12 * (1.0 + np.abs(values[:, iu]))
    bits = values.view(np.uint64).reshape(len(values), n, 2)
    equal = (bits[:, iu] == bits[:, ju]).all(axis=2)
    assert (equal | ~near).all()
    return int(near.sum())


def test_near_eigenvalues_are_bit_equal_on_crossings():
    # the degenerate runs of solve_spectrum_batch rely on this: the root
    # stage returns no two values within 1e-12 that are not the same bits
    rotated = (h for h, _ in rotated_crossings())
    assert sum(near_values_are_bit_equal(s) for s in by_order(rotated)) > 500
    assert sum(near_values_are_bit_equal(s) for s in by_order(diagonal_crossings())) > 200
    assert near_values_are_bit_equal(twin_fig1_grid()) == 2 * 2001


def test_near_eigenvalues_are_bit_equal_on_clustered_spectra():
    assert sum(near_values_are_bit_equal(s) for s in by_order(clustered_spectra())) > 800


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_near_eigenvalues_are_bit_equal_on_presets(pid):
    near_values_are_bit_equal(grid_hamiltonians(preset(pid), 2001))


# ---------------------------------------------------------------------------
# the vector stage as it was: the stack-major shift h - lambda I, the
# elimination transposed in and out, the stable argsort and the (m, n, n)
# back-substitution. Copied verbatim but for names; every array
# solve_spectrum_batch returns, and every error, must have its bits.


def _stack_major_eliminate(amat):
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


def _stack_major_canonicalize(vectors, defective, bilinear):
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


def stack_major_spectrum(h):
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("expected a stack of square matrices (m, n, n)")
    m, n = h.shape[0], h.shape[1]
    values = es.eigenvalues_batch(h)

    # same[:, i]: values i - 1 and i are equal; rank: the place of i in its run
    same = np.zeros((m, n + 1), dtype=bool)
    same[:, 1:n] = values[:, 1:] == values[:, :-1]
    rank = np.arange(n) - np.maximum.accumulate(np.where(same[:, :n], 0, np.arange(n)), axis=1)
    limit = es.TINY_PIVOT_FACTOR * EPS * np.maximum(np.abs(h).max(axis=(1, 2)), 1.0)

    vectors = np.empty((m, n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for i in range(n):
        u, pivots = _stack_major_eliminate(h - values[:, i, None, None] * eye)
        # a true crossing (module docstring): a run with two or more tiny pivots
        tiny = pivots <= limit[:, None]
        crossing = (same[:, i] | same[:, i + 1]) & (tiny.sum(axis=1) >= 2)
        r = np.where(crossing, rank[:, i], 0)
        free = np.argsort(pivots, axis=1, kind="stable")[np.arange(m), r]
        v = _reference_back_substitute(u, free, tiny & crossing[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in range(r.max(initial=0)):  # against the members before, in order
                rows = np.flatnonzero(t < r)
                b, w = vectors[rows, i - r[rows] + t], v[rows]
                bb = (b * b).sum(axis=1)
                keep = np.abs(bb) > es.DEFECTIVE_RTOL * (np.abs(b) ** 2).sum(axis=1)
                v[rows] = np.where(keep[:, None], w - ((w * b).sum(axis=1) / bb)[:, None] * b, w)
        vectors[:, i, :] = v

    bilinear = (vectors * vectors).sum(axis=2)
    euclid = (np.abs(vectors) ** 2).sum(axis=2)
    defective = np.abs(bilinear) < es.DEFECTIVE_RTOL * euclid
    vectors = _stack_major_canonicalize(vectors, defective, bilinear)

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

    return es.SpectrumBatch(
        values=values,
        vectors=vectors,
        defective=defective,
        norm_a=norm_a,
        residual=residual,
    )


def bits(a):
    """A float or complex array as uint64 views, every NaN made one NaN:
    a NaN's sign bit follows the order in which a sum meets its NaN terms,
    which numpy leaves open, and no output shows it."""
    parts = np.ascontiguousarray(a).view(np.float64)
    return np.where(np.isnan(parts), np.nan, parts).view(np.uint64)


def vector_stage_outcome(solve, h):
    """Every SpectrumBatch array, floats and complexes as bits(), or the
    error's (type, message)."""
    try:
        batch = solve(np.array(h, dtype=complex))
    except es.SolverError as err:
        return type(err).__name__, str(err)
    return [a if a.dtype == bool else bits(a) for a in vars(batch).values()]


def assert_same_vector_stage(h):
    got = vector_stage_outcome(solve_spectrum_batch, h)
    want = vector_stage_outcome(stack_major_spectrum, h)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, list)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w)


def assert_same_vector_stage_at(monkeypatch, h, values):
    """As assert_same_vector_stage, with the root stage's answer replaced
    by `values`: pivots the roots never give (ties, NaN) reach the loop."""
    with monkeypatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(es, "eigenvalues_batch", lambda _: values.copy())
        assert_same_vector_stage(h)


@pytest.mark.parametrize("steps", [101, 2001])
@pytest.mark.parametrize("pid", PRESET_IDS)
def test_vector_stage_keeps_every_bit_on_presets(pid, steps):
    assert_same_vector_stage(grid_hamiltonians(preset(pid), steps))


@pytest.mark.parametrize("steps", [101, 2001])
@pytest.mark.parametrize("order", range(2, 9))
def test_vector_stage_keeps_every_bit_on_star_scenarios(order, steps):
    # star6 to star8 fail their checks at 2001 points: the messages must agree
    assert_same_vector_stage(grid_hamiltonians(scenario_from_dict(star_spec(order, steps)), steps))


@pytest.mark.parametrize("family", ["clustered", "diagonal", "rotated"])
def test_vector_stage_keeps_every_bit_on_degenerate_spectra(family):
    matrices = {
        "clustered": clustered_spectra,
        "diagonal": diagonal_crossings,
        "rotated": lambda: (h for h, _ in rotated_crossings()),
    }[family]()
    matrices = list(matrices)
    for h in matrices:
        assert_same_vector_stage(h[None])
    for stack in by_order(matrices):
        assert_same_vector_stage(stack)


def test_vector_stage_keeps_every_bit_on_the_twin_grid():
    assert_same_vector_stage(twin_fig1_grid())


@pytest.mark.parametrize("n", range(2, 9))
def test_vector_stage_keeps_every_bit_on_tied_pivots(monkeypatch, n):
    # integer diagonals, as they are and permuted, shifted by integers and
    # half-integers: pivots of equal modulus, tiny or not, in every column
    rng = np.random.default_rng(300 + n)
    d = np.arange(1.0, n + 1.0) + 0.5j
    stack = []
    for _ in range(40):
        perm = np.eye(n)[rng.permutation(n)]
        stack += [np.diag(d), perm @ np.diag(d) @ perm.T, np.diag(d[rng.integers(0, n, size=n)])]
    h = np.array(stack, dtype=complex)
    shifts = rng.integers(1, n + 1, size=(len(h), n)) + 0.5 * rng.integers(0, 2, size=(len(h), n))
    values = np.sort(shifts, axis=1) + 0.5j
    assert_same_vector_stage_at(monkeypatch, h, values)
    # duplicated rows and rows scaled by 1j: ties in the elimination's pivots
    for stack in awkward_stacks(rng, n)[2::2]:
        assert_same_vector_stage(stack)


@pytest.mark.parametrize("n", range(1, 9))
def test_vector_stage_keeps_every_bit_on_nan_pivots(monkeypatch, n):
    # argmin takes the first NaN pivot where the stable argsort puts it last.
    # A NaN in the last column reaches the last pivot alone, so the two
    # differ there; far shifts keep the rows in place, so the sort's column
    # gives a finite vector. NaN and infinite eigenvalues spoil every pivot
    rng = np.random.default_rng(400 + n)
    plain, _, _, huge, _ = awkward_stacks(rng, n)
    values = eigenvalues_batch(plain)
    last_column = plain.copy()
    last_column[::2, rng.integers(0, n, size=100), n - 1] = np.nan
    far = np.full(values.shape, -100.0 + 0j)
    spoiled = values.copy()
    spoiled[::3, rng.integers(0, n)] = np.nan
    spoiled[1::7, 0] = complex(np.inf, 0.0)
    spoiled[2::5, n - 1] = complex(np.nan, 1.0)
    for h, v in ((last_column, values), (last_column, far), (plain, spoiled), (huge, values), (huge, spoiled)):
        assert_same_vector_stage_at(monkeypatch, h, v)
        assert_same_vector_stage_at(monkeypatch, h[5:6], v[5:6])


def test_vector_stage_peak_memory_is_no_higher():
    # one solve of a full fig4 block: one point-major copy of the block and
    # its shifted copy, where the stack-major stage held its shift product,
    # the transposed copy and u transposed back
    h = grid_hamiltonians(preset("fig4"), es.SOLVE_BLOCK)

    def peak(solve):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve(h)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert peak(solve_spectrum_batch) <= peak(stack_major_spectrum)


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
    def spoil_second_matrix(*args):
        vectors = _canonicalize(*args).copy()
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
    def duplicate_direction(*args):
        vectors = _canonicalize(*args).copy()
        vectors[:, 1] = vectors[:, 0]
        return vectors

    monkeypatch.setattr("levelcross.eigensolve._canonicalize", duplicate_direction)
    h = np.array([[1.0 - 0.5j, 0.05], [0.05, -0.5999j]])
    with pytest.raises(BiorthogonalityError, match=r"\(batch index 0\)"):
        solve_spectrum_batch(h[None])


def spoil_two_rows(monkeypatch, nan_row, duplicate_row):
    """Patch _canonicalize to put one NaN component in the vectors of
    nan_row and a duplicated direction (overlap 1) at duplicate_row,
    counting rows across calls as solve_at solves its blocks in order."""
    done = []

    def spoil(*args):
        vectors = _canonicalize(*args).copy()
        rows = sum(done) + np.arange(len(vectors))
        done.append(len(vectors))
        vectors[rows == nan_row, 0, 0] = np.nan
        vectors[rows == duplicate_row, 1] = vectors[rows == duplicate_row, 0]
        return vectors

    monkeypatch.setattr("levelcross.eigensolve._canonicalize", spoil)


@pytest.mark.parametrize("block", [1, 3, 4])
@pytest.mark.parametrize("nan_row, duplicate_row", [(0, 2), (2, 0)])
def test_nan_overlap_does_not_hide_a_failure(monkeypatch, nan_row, duplicate_row, block):
    # argmax names the first NaN, and NaN >= BIORTH_TOL is False: a NaN
    # overlap used to let a duplicated direction in its block pass
    h = np.repeat(np.array([[[1.0 - 0.5j, 0.05], [0.05, -0.5999j]]]), 3, axis=0)
    spoil_two_rows(monkeypatch, nan_row, duplicate_row)
    with pytest.raises(BiorthogonalityError) as single:
        solve_spectrum_batch(h)
    assert str(single.value) == f"bilinear overlap nan for well-separated eigenpairs (batch index {nan_row})"
    monkeypatch.setattr(es, "SOLVE_BLOCK", block)  # 3, 1 or 1 blocks
    spoil_two_rows(monkeypatch, nan_row, duplicate_row)
    with pytest.raises(SolverError) as blocked:
        solve_at(solve_spectrum_batch, h, lambda k: f"row {k}")
    assert str(blocked.value) == f"eigensolver failed at row {nan_row}: {single.value}"


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_empty_stack_gives_an_empty_batch(n):
    h = np.zeros((0, n, n), dtype=complex)
    for batch in (solve_spectrum_batch(h), solve_at(solve_spectrum_batch, h, str)):
        assert batch.values.shape == (0, n) and batch.vectors.shape == (0, n, n)
        assert batch.defective.shape == batch.norm_a.shape == (0, n)
        assert batch.residual.shape == (0,)
    assert solve_at(eigenvalues_batch, h, str).shape == (0, n)


def reference_biorthogonality(batch):
    """The biorthogonality check as it was, gaps and mask at every point:
    the (batch index, overlap) it fails with, or None."""
    overlap = np.abs(np.einsum("mik,mjk->mij", batch.vectors, batch.vectors))
    regular = ~batch.defective
    gap = np.abs(batch.values[:, :, None] - batch.values[:, None, :])
    checked = (gap > GAP_GUARD) & regular[:, :, None] & regular[:, None, :]
    worst = np.where(checked, overlap, 0.0).max(axis=(1, 2))
    k = int(np.argmax(worst))
    return (k, float(worst[k])) if worst[k] >= BIORTH_TOL else None


def gated_and_full_check(h, monkeypatch):
    """The failure solve_spectrum_batch raises on h, as (batch index,
    overlap, message) or None, and the one the full check gives on the
    same vectors (solved with the check switched off)."""
    try:
        solve_spectrum_batch(h)
        got = None
    except BiorthogonalityError as err:
        got = (err.batch_index, err.overlap, str(err))
    with monkeypatch.context() as patch:
        patch.setattr(es, "BIORTH_TOL", np.inf)
        want = reference_biorthogonality(solve_spectrum_batch(h))
    if want is not None:
        want = (*want, str(BiorthogonalityError(*want)))
    return got, want


def test_gated_check_names_the_full_checks_point_on_star_scenarios(monkeypatch):
    outcomes = {}
    for order in range(2, 9):
        h = grid_hamiltonians(scenario_from_dict(star_spec(order, 2001)), 2001)
        got, want = gated_and_full_check(h, monkeypatch)
        assert got == want
        outcomes[order] = got
    # the star6 fault that test_solver_faults.py records, and star7 and star8;
    # the point each names follows the host's BLAS kernel and SIMD loops
    assert [order for order, got in outcomes.items() if got is None] == [2, 3, 4, 5]
    assert [order for order, got in outcomes.items() if got is not None] == [6, 7, 8]


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_gated_check_passes_where_the_full_check_passes(pid, monkeypatch):
    assert gated_and_full_check(grid_hamiltonians(preset(pid), 2001), monkeypatch) == (None, None)


@pytest.mark.parametrize("row", [0, 1, 1092, es.SOLVE_BLOCK - 1])
def test_gated_check_names_a_spoiled_vector_in_a_full_block(row, monkeypatch):
    # one vector leans 1e-6 towards its neighbour at `row` of a 4096-row
    # block; a second, smaller lean later on must not be named
    def spoil(*args):
        vectors = _canonicalize(*args).copy()
        vectors[row, 1] += 1e-6 * vectors[row, 2]
        vectors[(row + 7) % es.SOLVE_BLOCK, 1] += 1e-7 * vectors[(row + 7) % es.SOLVE_BLOCK, 2]
        return vectors

    monkeypatch.setattr("levelcross.eigensolve._canonicalize", spoil)
    got, want = gated_and_full_check(grid_hamiltonians(preset("fig4"), es.SOLVE_BLOCK), monkeypatch)
    assert got == want
    assert got[0] == row


def test_solver_requires_square_stack():
    with pytest.raises(ValueError):
        solve_spectrum_batch(np.zeros((2, 3, 2), dtype=complex))


# ---------------------------------------------------------------------------
# solve_at: every stack in blocks of SOLVE_BLOCK rows


@pytest.mark.parametrize("split", [1, 3])
@pytest.mark.parametrize("rows", [1, es.SOLVE_BLOCK, es.SOLVE_BLOCK + 1, 10**4])
def test_solve_at_blocks_are_bit_equal_to_one_solve(monkeypatch, rows, split):
    # the first rows of fig4 at 10^4 points: one block, one full block,
    # a block and one row, and three blocks; split 3 cuts each block in
    # thirds of 1365 rows, so every stack but one row ends mid-block
    monkeypatch.setattr(es, "SOLVE_BLOCK", es.SOLVE_BLOCK // split)
    sc = preset("fig4")
    h = build_hamiltonian_batch(sc, np.linspace(sc.sweep.a_min, sc.sweep.a_max, 10**4))[:rows]
    whole, blocks = solve_spectrum_batch(h), solve_at(solve_spectrum_batch, h, str)
    for f in fields(SpectrumBatch):
        want, got = getattr(whole, f.name), getattr(blocks, f.name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
    values = solve_at(eigenvalues_batch, h, str)
    assert values.tobytes() == eigenvalues_batch(h).tobytes()


def failing_solve(residuals, overlaps):
    """A solve of stacks whose matrix k is [[k]] that fails as
    solve_spectrum_batch does: a root failure (rows in `residuals`)
    before a failed check (rows in `overlaps`), each naming the worst
    row of its batch by batch index, the first on ties."""
    def solve(h):
        rows = h[:, 0, 0].real.astype(int).tolist()
        for bad, error in ((residuals, RootConvergenceError), (overlaps, BiorthogonalityError)):
            hit = [r for r in rows if r in bad]
            if hit:
                worst = max(hit, key=bad.get)
                raise error(rows.index(worst), bad[worst])
        return h[:, 0]

    return solve


@pytest.mark.parametrize("block", [1, 3, 4])
@pytest.mark.parametrize(
    "residuals, overlaps, row",
    [
        ({}, {5: 2e-8, 13: 3e-8, 14: 3e-8}, 13),    # the largest overlap, the first on ties
        ({17: 1e-3}, {5: 0.5, 6: 0.7}, 17),         # a root failure before a failed check
        ({2: 1e-3, 9: np.inf}, {18: 0.5}, 9),       # the largest residual
    ],
)
def test_solve_at_names_the_failure_a_single_solve_names(monkeypatch, residuals, overlaps, row, block):
    h = np.arange(20, dtype=complex).reshape(20, 1, 1)
    solve = failing_solve(residuals, overlaps)
    with pytest.raises(SolverError) as single:
        solve_at(solve, h, lambda k: f"row {k}")
    assert re.match(rf"eigensolver failed at row {row}: .*\(batch index {row}\b", str(single.value))
    monkeypatch.setattr(es, "SOLVE_BLOCK", block)  # 20, 7 or 5 blocks
    with pytest.raises(SolverError) as blocked:
        solve_at(solve, h, lambda k: f"row {k}")
    assert str(blocked.value) == str(single.value)
