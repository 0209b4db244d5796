"""Exceptional points: where eigenvalues and eigenvectors both coalesce.

A two-level system with a real coupling has its coalescence at a point
analytic in the parameters, which makes a sharp oracle for the numeric
search; a complex coupling moves the point off the energy crossing.
Run as: python3 demos/05_exceptional_points.py
"""

from levelcross import (
    Tunable,
    coalescence_gap,
    ep_condition_2level,
    find_ep,
    preset,
    probe_norm_blowup,
    with_profile,
)

TUNE = Tunable("gamma_half", 1)
BOX = ((0.3, 1.0), (0.4, 0.8))

# the gap objective: smallest pairwise eigenvalue distance
scenario = with_profile(preset("fig1"), "constant")
print("coalescence gap along gamma_2/2 at a = 2/3:")
for value in (0.55, 0.59, 0.599, 0.6):
    gap = coalescence_gap(scenario, 2.0 / 3.0, tunable=TUNE, value=value)
    print(f"  gamma_2/2 = {value:<7} gap = {gap:.3e}")

# grid scan + Newton on the squared gap, against the closed-form location
report = find_ep(scenario, TUNE, BOX)
sols = ep_condition_2level(scenario.levels[0], scenario.levels[1], scenario.coupling.omega)
print(f"\nsearch result: location ({report.location[0]:.10f}, {report.location[1]:.10f})")
print(f"closed form  : candidates {[(round(a, 10), round(t, 10)) for a, t in sols]}")
print(f"gap = {report.gap:.2e}, converged = {report.converged},"
      f" pair = {report.pair}, norm blowup = {report.norm_blowup:.1f}")

# the biorthogonal norm diverges on approach, a signature of coalescence
print("\nnorm blowup at shrinking probe offsets:")
for k in range(4):
    offsets = (7e-5 / 2**k, 4e-5 / 2**k)
    blowup = probe_norm_blowup(scenario, TUNE, report.location, offsets)
    print(f"  offset scale 2^-{k}: max A_i = {blowup:.1f}")

# a complex coupling displaces the coalescence from the energy crossing
for profile in ("constant", "gaussian"):
    sc2 = with_profile(preset("fig2"), profile)
    rep2 = find_ep(sc2, TUNE, BOX)
    print(f"\nfig2 {profile}: location ({rep2.location[0]:.7f}, {rep2.location[1]:.7f}),"
          f" shift in a from 2/3: {rep2.location[0] - 2.0 / 3.0:+.5f}")
    oracle = ep_condition_2level(
        sc2.levels[0], sc2.levels[1], sc2.coupling.omega, profile=profile
    )
    print(f"  closed form candidates: {[(round(a, 7), round(t, 7)) for a, t in oracle]}")
