"""Width bifurcation: an imaginary coupling splits lifetimes, not energies.

With a purely imaginary coupling the two energies cross for real while
the widths repel; shrinking the imaginary part of the coupling shrinks
the width split in the four-level system the same way. Run as:
python3 demos/04_width_bifurcation.py
"""

import numpy as np

from levelcross import build_hamiltonian_batch, preset, run_sweep, solve_spectrum_batch

# two levels, omega = 0.05i: the crossing leaves the energies degenerate
# and pushes the half-widths apart symmetrically
scenario = preset("fig3")
h = build_hamiltonian_batch(scenario, [2.0 / 3.0])
spectrum = solve_spectrum_batch(h)
values = spectrum.values[0]
print("fig3 at the crossing point a = 2/3:")
for k, v in enumerate(values):
    print(f"  E_{k + 1} = {v.real:.12f}, half-width = {-v.imag:.12f}")
print(f"  energy split {abs(values[0].real - values[1].real):.2e},"
      f" width split {abs(values[0].imag - values[1].imag):.5f}")

# along the sweep the split is localized around the crossing
result = run_sweep(scenario)
g = -result.branches.values.imag  # (grid point, branch)
split = np.abs(g[:, 0] - g[:, 1])
k = int(np.argmax(split))
print(f"  max width split {split[k]:.5f} at a = {result.a[k]:.5f};"
      f" split at the ends {split[0]:.2e}, {split[-1]:.2e}")


def max_width_split(result):
    g = -result.branches.values.imag
    iu, ju = np.triu_indices(g.shape[1], 1)
    return np.abs(g[:, iu] - g[:, ju]).max()


# four levels: scaling Im(omega) down by 10 tames the bifurcation
base = run_sweep(preset("fig6"))
tame = run_sweep(preset("fig8"))
print(f"\nfig6 (omega = {preset('fig6').coupling.omega}):"
      f" max pairwise width split {max_width_split(base):.5f}")
print(f"fig8 (omega = {preset('fig8').coupling.omega}):"
      f" max pairwise width split {max_width_split(tame):.5f}")
print(f"ratio {max_width_split(base) / max_width_split(tame):.1f}x")
