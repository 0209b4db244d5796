"""Build a scenario from scratch: energy expressions, couplings, files.

Run as: python3 demos/01_expressions_and_scenarios.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from levelcross import (
    CouplingSpec,
    LevelSpec,
    Scenario,
    SweepGrid,
    build_hamiltonian_batch,
    eval_expr,
    load_scenario,
    parse_expr,
    save_scenario,
    to_text,
)

# level energies are arithmetic expressions in the sweep parameter a
expr = parse_expr("1 - 1/(a + 1)")
print("expression:", to_text(expr))
a = np.linspace(0.0, 4.0, 5)
print("a      :", a)
print("e(a)   :", eval_expr(expr, a))

# a two-level scenario with a gaussian-tapered coupling
scenario = Scenario(
    label="demo_pair",
    levels=(
        LevelSpec(parse_expr("1 - a/2"), 0.5),
        LevelSpec(parse_expr("a"), 0.5999),
    ),
    coupling=CouplingSpec(omega=0.05, profile="gaussian", active_pairs=((0, 1),)),
    sweep=SweepGrid(0.0, 1.5, 2001),
)

h = build_hamiltonian_batch(scenario, [0.75])[0]
print("\nH(0.75):")
for row in h:
    print("  ", "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row))

# the coupling shrinks with the energy distance of the two levels;
# one call assembles the matrices at every point
points = (0.0, 0.5, 2.0 / 3.0)
for point, hp in zip(points, build_hamiltonian_batch(scenario, points)):
    print(f"a = {point:.4f}: |e1 - e2| = {abs(hp[0, 0].real - hp[1, 1].real):.4f}"
          f"  coupling = {hp[0, 1]:.6f}")

# scenarios round-trip through a small JSON format
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_pair.json"
    save_scenario(scenario, path)
    print("\nserialized form:")
    print(json.dumps(json.loads(path.read_text()), indent=2))
    again = load_scenario(path)
    assert again.coupling == scenario.coupling
    assert [lv.energy_expr for lv in again.levels] == [lv.energy_expr for lv in scenario.levels]
    print("round trip: exact")
