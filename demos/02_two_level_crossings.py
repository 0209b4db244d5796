"""Two coupled levels: how the coupling decides what happens at a crossing.

The three bundled two-level presets differ only in the second width and
the phase of the coupling, yet one avoids the crossing in energy, one
crosses in energy with a width gap, and one sits between the two
regimes. Run as: python3 demos/02_two_level_crossings.py
"""

import numpy as np

from levelcross import (
    build_hamiltonian_batch,
    detect_crossings,
    preset,
    run_sweep,
    two_level_eigenvalues,
)

for pid in ("fig1", "fig2", "fig3"):
    scenario = preset(pid)
    result = run_sweep(scenario)
    events = detect_crossings(result)
    print(f"{pid}: omega = {scenario.coupling.omega}, "
          f"gamma/2 = {[lv.half_width for lv in scenario.levels]}")
    for e in events:
        print(f"  {e.kind} at a = {e.a_cr:.5f}, width split {e.max_width_split:.5f},"
              f" exchange = {e.exchange_detected}")
    if not events:
        print("  no crossing events")

    # the branch that starts at level 1: where does it end up?
    branch = result.by_start_level(0)
    bare_end = result.bare[-1]
    dist = [abs(branch.values[-1] - bare_end[k]) for k in range(2)]
    print(f"  branch from level 1 ends nearest level {int(np.argmin(dist)) + 1}"
          f" (distances {dist[0]:.4f}, {dist[1]:.4f})")

# every sweep above is also reproduced by the closed form for one pair
scenario = preset("fig1")
result = run_sweep(scenario)
h = build_hamiltonian_batch(scenario, result.a)
plus, minus = two_level_eigenvalues(h[:, 0, 0], h[:, 1, 1], h[:, 0, 1])
n0, n1 = result.branches.values.T  # (branch, grid point)
direct = np.maximum(np.abs(n0 - plus), np.abs(n1 - minus))
swapped = np.maximum(np.abs(n0 - minus), np.abs(n1 - plus))
dev = np.minimum(direct, swapped).max()
print(f"\nfig1 numeric vs closed form: max deviation {dev:.2e}")
