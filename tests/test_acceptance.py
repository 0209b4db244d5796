"""Acceptance suite: one test per numbered criterion, stated tolerances.

Each test prints one measured line; pytest -v gives the pass/fail
verdict per criterion. Criteria needing full sweeps share module-scoped
fixtures so the suite stays fast.
"""

from dataclasses import replace
from itertools import permutations
from time import perf_counter

import numpy as np
import pytest

from levelcross.eigensolve import solve_spectrum_batch
from levelcross.epfinder import find_ep
from levelcross.model import SweepGrid, Tunable, build_hamiltonian_batch, with_profile
from levelcross.presets import preset
from levelcross.sweep import detect_crossings, run_sweep
from levelcross.twolevel import two_level_eigenvalues


@pytest.fixture(scope="module")
def two_level_runs():
    started = perf_counter()
    results = {pid: run_sweep(preset(pid)) for pid in ("fig1", "fig2", "fig3")}
    return results, perf_counter() - started


@pytest.fixture(scope="module")
def four_level_runs():
    cache = {}

    def get(pid):
        if pid not in cache:
            cache[pid] = run_sweep(preset(pid))
        return cache[pid]

    return get


def test_criterion_01_two_level_closed_form_agreement(two_level_runs):
    # pair the two numeric values with the two closed-form values per
    # point by the better of the two assignments; sorting each side
    # independently flips partners where the sort keys degenerate
    results, elapsed = two_level_runs
    worst = 0.0
    for pid, result in results.items():
        h = build_hamiltonian_batch(result.scenario, result.a)
        plus, minus = two_level_eigenvalues(h[:, 0, 0], h[:, 1, 1], h[:, 0, 1])
        n0, n1 = result.branches.values.T
        direct = np.maximum(np.abs(n0 - plus), np.abs(n1 - minus))
        swapped = np.maximum(np.abs(n0 - minus), np.abs(n1 - plus))
        worst = max(worst, float(np.minimum(direct, swapped).max()))
    print(f"criterion 1: max |numeric - closed form| = {worst:.3e}, {elapsed:.3f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_ep_location_two_level():
    box = ((0.3, 1.0), (0.4, 0.8))
    tune = Tunable("gamma_half", 1)
    report = find_ep(with_profile(preset("fig1"), "constant"), tune, box)
    a_err = abs(report.location[0] - 2.0 / 3.0)
    t_err = abs(report.location[1] - 0.6)
    recorded = find_ep(preset("fig1"), tune, box)
    print(
        f"criterion 2: constant profile EP ({report.location[0]:.6f},"
        f" {report.location[1]:.6f}), gap {report.gap:.2e};"
        f" gaussian profile value {recorded.location[1]:.6f} recorded"
        f" (no tolerance) beside the preset's tuned half-width 0.5999"
    )
    assert report.converged
    assert report.gap < 1e-8
    assert a_err < 1e-4 and t_err < 1e-4


def test_criterion_03_width_bifurcation_point(two_level_runs):
    results, _ = two_level_runs
    result = results["fig3"]
    h = build_hamiltonian_batch(result.scenario, [2.0 / 3.0])
    spectrum = solve_spectrum_batch(h)
    energies = np.sort(spectrum.values[0].real)
    halves = np.sort(-spectrum.values[0].imag)
    e_err = float(np.abs(energies - 2.0 / 3.0).max())
    g_err = float(np.abs(halves - np.array([0.45, 0.55])).max())
    events = detect_crossings(result)
    print(
        f"criterion 3: at a=2/3 E err {e_err:.2e}, width err {g_err:.2e},"
        f" events {[e.kind for e in events]} at"
        f" {[round(e.a_cr, 5) for e in events]}"
    )
    assert e_err <= 1e-12
    assert g_err <= 1e-12
    assert [e.kind for e in events] == ["true_energy"]
    assert abs(events[0].a_cr - 2.0 / 3.0) < 1e-3


def test_criterion_04_state_exchange(two_level_runs):
    results, _ = two_level_runs
    result = results["fig1"]
    bare_end = result.bare[-1]
    worst = 0.0
    for start, other in ((0, 1), (1, 0)):
        branch = result.by_start_level(start)
        dE = abs(branch.energy[-1] - bare_end[other].real)
        dG = abs(branch.gamma_half[-1] - (-bare_end[other].imag))
        worst = max(worst, dE, dG)
    print(f"criterion 4: worst endpoint distance to the swapped level {worst:.2e}")
    assert worst < 1e-3


def test_criterion_05_width_plateau(four_level_runs):
    result = four_level_runs("fig5")
    ends = -result.branches.values[[0, -1]].imag
    worst = float(np.abs(ends - 0.5).max())
    print(f"criterion 5: max endpoint half-width deviation from 0.5 = {worst:.2e}")
    assert worst < 1e-3


def _observer_perturbation_check(result):
    """|lambda - eps_2 - E2| / R4 at every grid point, for the branch that
    starts on level 2 of a star scenario coupled through level 4.

    Built from the bare Hamiltonian alone: eps_k is its diagonal, w_jk its
    couplings, D_2k = eps_2 - eps_k. E2 = w24^2/D24 is the second-order
    Rayleigh-Schroedinger shift of level 2 (the third order vanishes in the
    star), and R4 = |w24|^2/|D24|^2 (|w41|^2/|D21| + |w43|^2/|D23|
    + |w24|^2/|D24|) bounds the fourth-order term
    E4 = w24^2/D24^2 (w41^2/D21 + w43^2/D23 - w24^2/D24) by the triangle
    inequality. A ratio below 1 says the level moves only by its own
    perturbative response to the crossing level. Also returns the
    residuals |lambda - eps_2 - E2| and |lambda - eps_2 - E2 - E4|, which
    show whether the series converges.
    """
    h = build_hamiltonian_batch(result.scenario, result.a)
    eps = np.diagonal(h, axis1=1, axis2=2)
    w24, w41, w43 = h[:, 1, 3], h[:, 3, 0], h[:, 3, 2]
    d21, d23, d24 = (eps[:, 1] - eps[:, k] for k in (0, 2, 3))
    shift2 = w24**2 / d24
    shift4 = w24**2 / d24**2 * (w41**2 / d21 + w43**2 / d23 - w24**2 / d24)
    r4 = (np.abs(w24) / np.abs(d24)) ** 2 * (
        np.abs(w41) ** 2 / np.abs(d21)
        + np.abs(w43) ** 2 / np.abs(d23)
        + np.abs(w24) ** 2 / np.abs(d24)
    )
    offset = result.by_start_level(1).values - eps[:, 1] - shift2
    residual2, residual4 = np.abs(offset), np.abs(offset - shift4)
    return residual2 / r4, residual2, residual4


def _max_spectrum_deviation(result):
    """Largest distance at any grid point between the tracked eigenvalues
    and numpy.linalg.eigvals, compared as sets (best of all pairings)."""
    ref = np.linalg.eigvals(build_hamiltonian_batch(result.scenario, result.a))
    ours = result.branches.values
    pairings = np.array(list(permutations(range(ours.shape[1]))))
    dev = np.abs(ours[:, None, :] - ref[:, pairings]).max(axis=2).min(axis=1)
    return float(dev.max())


def test_criterion_06_observer_ratios(four_level_runs):
    # The observer (level 2) stays on its own line in energy, and its
    # complex eigenvalue follows perturbation theory around its bare
    # level at every grid point. The width ratio is reported only: the
    # observer keeps a width bump of order |w24|^2/|D24| set by the width
    # gap to the crossing level, and no bound on that ratio is sourced.
    for pid in ("fig4", "fig9"):
        result = four_level_runs(pid)
        observer = result.by_start_level(1)
        active = result.by_start_level(3)
        bare = result.bare
        e_obs = np.abs(observer.energy - bare[:, 1].real).max()
        e_act = np.abs(active.energy - bare[:, 3].real).max()
        g_obs = np.abs(observer.gamma_half + bare[:, 1].imag).max()
        g_act = np.abs(active.gamma_half + bare[:, 3].imag).max()
        e_ratio, g_ratio = float(e_obs / e_act), float(g_obs / g_act)
        ratio, residual2, residual4 = _observer_perturbation_check(result)
        deviation = _max_spectrum_deviation(result)
        print(
            f"criterion 6: {pid} energy ratio {e_ratio:.3f} (bound 0.1),"
            f" width ratio {g_ratio:.3f} (reported),"
            f" max residual/R4 {ratio.max():.3f} (bound 1),"
            f" max residual {residual2.max():.4f} -> {residual4.max():.4f} with E4,"
            f" max |lambda - eigvals| {deviation:.1e}"
        )
        assert deviation <= 1e-12, f"{pid} spectrum off eigvals by {deviation:.2e}"
        assert e_ratio < 0.1, f"{pid} energy ratio {e_ratio:.3f} >= 0.1"
        worst = int(np.argmax(ratio))
        assert ratio[worst] <= 1.0, (
            f"{pid} observer leaves its perturbative band at"
            f" {np.count_nonzero(ratio > 1.0)} grid points, worst at a ="
            f" {result.a[worst]:.6g}: residual/R4 = {ratio[worst]:.3g}"
        )
        assert (residual4 < residual2).all(), f"{pid} E4 does not shrink the residual"

    # negative control: with gamma_2/2 = 0.5 the middle level takes part
    # in the crossing, and the same check must reject it
    scenario = preset("fig4")
    levels = list(scenario.levels)
    levels[1] = replace(levels[1], half_width=0.5)
    control, _, _ = _observer_perturbation_check(
        run_sweep(replace(scenario, levels=tuple(levels)))
    )
    print(f"criterion 6: fig4 with gamma_2/2 = 0.5, max residual/R4 {control.max():.2e}")
    assert control.max() > 1.0


def test_criterion_07_selfenergy_shift(four_level_runs):
    base = four_level_runs("fig6")
    shifted = four_level_runs("fig7")
    weakest = np.inf
    for b, s in zip(base.trajectories, shifted.trajectories):
        for k in (0, -1):
            move = max(
                abs(b.energy[k] - s.energy[k]),
                abs(b.gamma_half[k] - s.gamma_half[k]),
            )
            weakest = min(weakest, move)
    print(f"criterion 7: smallest endpoint displacement {weakest:.2e}")
    assert weakest > 1e-3


def _max_width_split(result):
    g = -result.branches.values.imag
    iu, ju = np.triu_indices(g.shape[1], 1)
    return float(np.abs(g[:, iu] - g[:, ju]).max())


def test_criterion_08_imaginary_coupling_scaling(four_level_runs):
    split6 = _max_width_split(four_level_runs("fig6"))
    split8 = _max_width_split(four_level_runs("fig8"))
    print(f"criterion 8: max width split fig6 {split6:.4f}, fig8 {split8:.4f}")
    assert split8 < split6


def test_criterion_09_random_matrix_invariants():
    rng = np.random.default_rng(96194)
    totals = {2: 3334, 3: 3333, 4: 3333}
    worst = {"trace": 0.0, "det": 0.0, "residual": 0.0, "cross": 0.0, "norm": 0.0}
    for n, m in totals.items():
        radius = np.sqrt(rng.uniform(size=(m, n, n)))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(m, n, n))
        z = radius * np.exp(1j * phase)
        h = 0.5 * (z + z.transpose(0, 2, 1))
        s = solve_spectrum_batch(h)

        tr_h = np.trace(h, axis1=1, axis2=2)
        tr_rel = np.abs(s.values.sum(axis=1) - tr_h) / (1.0 + np.abs(tr_h))
        worst["trace"] = max(worst["trace"], float(tr_rel.max()))
        assert (tr_rel <= 1e-12).all()

        det_h = np.linalg.det(h)
        det_rel = np.abs(s.values.prod(axis=1) - det_h) / (1.0 + np.abs(det_h))
        worst["det"] = max(worst["det"], float(det_rel.max()))
        assert (det_rel <= 1e-10).all()

        ok = ~s.defective
        hnorm = np.abs(h).sum(axis=2).max(axis=1)
        hv = np.einsum("mij,mkj->mki", h, s.vectors)
        res = np.abs(hv - s.values[:, :, None] * s.vectors).max(axis=2)
        rel = res[ok] / np.broadcast_to(hnorm[:, None], res.shape)[ok]
        worst["residual"] = max(worst["residual"], float(rel.max()))
        assert (rel <= 1e-10).all()

        bil = np.einsum("mik,mjk->mij", s.vectors, s.vectors)
        gap = np.abs(s.values[:, :, None] - s.values[:, None, :])
        off = ~np.eye(n, dtype=bool)
        checked = (gap > 1e-6) & ok[:, :, None] & ok[:, None, :] & off
        if checked.any():
            cross = np.abs(bil)[checked].max()
            worst["cross"] = max(worst["cross"], float(cross))
            assert cross <= 1e-8
        diag = np.abs(np.einsum("mik,mik->mi", s.vectors, s.vectors) - 1.0)
        worst["norm"] = max(worst["norm"], float(diag[ok].max()))
        assert (diag[ok] <= 1e-10).all()
        assert (s.norm_a[ok] >= 1.0 - 1e-10).all()
    print(
        "criterion 9: worst rel residuals trace {trace:.1e}, det {det:.1e},"
        " eigen {residual:.1e}, cross {cross:.1e}, norm {norm:.1e}".format(**worst)
    )


def test_criterion_10_norm_divergence_near_ep():
    scenario = preset("fig1")
    tune = Tunable("gamma_half", 1)
    norms = []
    for value in (0.59, 0.599, 0.5999):
        h = build_hamiltonian_batch(scenario, [2.0 / 3.0], tunable=tune, value=value)
        norms.append(float(solve_spectrum_batch(h).norm_a[0, 0]))
    print(f"criterion 10: A_1 along gamma_2/2 -> 0.6: {[round(v, 3) for v in norms]}")
    assert norms[0] < norms[1] < norms[2]


def test_criterion_11_sweep_performance():
    scenario = replace(preset("fig4"), sweep=SweepGrid(0.0, 1.5, 10000))
    started = perf_counter()
    result = run_sweep(scenario)
    elapsed = perf_counter() - started
    print(f"criterion 11: 4x4 sweep over {result.a.size} points in {elapsed:.3f} s")
    assert result.a.size == 10000
    assert elapsed < 1.0
