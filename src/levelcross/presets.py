"""Bundled sweep scenarios.

Each preset is a JSON file in the package's scenarios/ directory, in the
canonical form save_scenario writes; the files are the only definition.
The fig1..fig9 ids name standard parameter sets for the avoided-crossing
case studies this package reproduces; two_cross_two is an illustrative
arrangement with two descending levels crossing two ascending ones.

fig1  two levels, real coupling, second width just under the critical value
fig2  complex coupling, second width between the two coalescence values
fig3  purely imaginary coupling, equal widths: a pinned-energy interval
fig4  one level crossing three parallel ones; the middle level acts as
      an observer, shielded by its width gap to the crossing level
fig5  as fig4 with all widths equal: every level takes part
fig6  as fig5 with couplings to the crossing level only, weighted by the
      bound level's energy
fig7  as fig6 plus a selfenergy shift on the crossing level
fig8  as fig6 with a ten times smaller imaginary coupling part
fig9  Coulomb-like energy trajectories, otherwise as fig4

Grid notes. Every preset has 2001 points. fig1-4 and two_cross_two sweep
[0, 1.5] and fig9 [0, 4]. fig5 sweeps [-0.5, 2.0]: with equal widths the
levels need distance from the crossing region before all widths settle
back to 0.5. fig6-8 sweep [0.5, 0.85], the window that frames the
crossing region; outside it the energy-weighted couplings leave no
visible trace and the selfenergy variant would become indistinguishable
at the window edges.
"""

from __future__ import annotations

from importlib import resources

from .model import Scenario, ScenarioError, load_scenario

__all__ = ["PRESET_IDS", "preset"]

_FILES = resources.files(__package__) / "scenarios"

PRESET_IDS = tuple(
    sorted(f.name.removesuffix(".json") for f in _FILES.iterdir() if f.name.endswith(".json"))
)


def preset(preset_id: str) -> Scenario:
    """The bundled scenario registered under preset_id."""
    if preset_id not in PRESET_IDS:
        known = ", ".join(PRESET_IDS)
        raise ScenarioError(f"unknown preset {preset_id!r}; available: {known}")
    with resources.as_file(_FILES / f"{preset_id}.json") as path:
        return load_scenario(path)

