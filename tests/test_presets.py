"""Bundled scenario files and the loader over them."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levelcross.expressions import eval_expr, to_text
import levelcross
from levelcross.model import (
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)
from levelcross.presets import PRESET_IDS, preset

ROOT = Path(__file__).resolve().parent.parent
PACKAGED = Path(levelcross.__file__).resolve().parent / "scenarios"


def test_registry_ids():
    assert PRESET_IDS == (
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "two_cross_two",
    )


def test_unknown_preset():
    with pytest.raises(ScenarioError, match="unknown preset"):
        preset("fig10")


def test_every_preset_builds():
    for pid in PRESET_IDS:
        sc = preset(pid)
        assert sc.label == pid
        assert sc.sweep.steps == 2001
        assert sc.n == (2 if pid in ("fig1", "fig2", "fig3") else 4)


def test_two_level_parameters():
    sc1, sc2, sc3 = preset("fig1"), preset("fig2"), preset("fig3")
    assert [lv.half_width for lv in sc1.levels] == [0.5, 0.5999]
    assert [lv.half_width for lv in sc2.levels] == [0.5, 0.5980]
    assert [lv.half_width for lv in sc3.levels] == [0.5, 0.5]
    assert sc1.coupling.omega == 0.05
    assert sc2.coupling.omega == 0.05 + 0.05j
    assert sc3.coupling.omega == 0.05j
    for sc in (sc1, sc2, sc3):
        assert sc.coupling.profile == "gaussian"
        assert sc.coupling.active_pairs == frozenset({(0, 1)})
        assert (sc.sweep.a_min, sc.sweep.a_max) == (0.0, 1.5)


def test_four_level_parameters():
    sc4 = preset("fig4")
    assert [lv.half_width for lv in sc4.levels] == [0.5, 0.4, 0.6, 0.58523]
    assert sc4.coupling.active_pairs == frozenset({(0, 3), (1, 3), (2, 3)})
    assert sc4.coupling.profile == "gaussian"
    sc6, sc7, sc8 = preset("fig6"), preset("fig7"), preset("fig8")
    for sc in (sc6, sc7, sc8):
        assert sc.coupling.profile == "energy_weighted_gaussian"
        assert [lv.half_width for lv in sc.levels] == [0.5] * 4
        assert (sc.sweep.a_min, sc.sweep.a_max) == (0.5, 0.85)
    assert sc6.coupling.selfenergy == {}
    assert sc7.coupling.selfenergy == {3: 0.05 + 0.05j}
    assert sc8.coupling.omega == 0.05 + 0.005j
    assert preset("fig5").sweep.a_min == -0.5
    assert preset("fig9").sweep.a_max == 4.0
    assert preset("two_cross_two").coupling.active_pairs == frozenset(
        {(0, 2), (0, 3), (1, 2), (1, 3)}
    )


def test_middle_level_sits_between_neighbours():
    # the observer construction: e2 == (e1 + e3)/2 at every grid point,
    # up to one rounding of the independently evaluated sum
    for pid in ("fig4", "fig5", "fig9"):
        sc = preset(pid)
        a = sc.sweep.points()
        e = [eval_expr(lv.energy_expr, a) for lv in sc.levels]
        gap = np.abs((e[0] + e[2]) / 2.0 - e[1])
        assert np.all(gap <= np.spacing(np.abs(e[1]))), pid


def test_round_trip_is_exact(tmp_path):
    for pid in PRESET_IDS:
        sc = preset(pid)
        path = tmp_path / f"{pid}.json"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(sc)
        assert loaded.coupling == sc.coupling
        assert loaded.sweep == sc.sweep
        assert [to_text(lv.energy_expr) for lv in loaded.levels] == [
            to_text(lv.energy_expr) for lv in sc.levels
        ]


def test_scenarios_hash_and_equal_ones_hash_equal(tmp_path):
    # CouplingSpec.selfenergy, a dict, stays in == and out of the hash
    scenarios = [preset(pid) for pid in PRESET_IDS]
    for pid, sc in zip(PRESET_IDS, scenarios):
        path = tmp_path / f"{pid}.json"
        save_scenario(sc, path)
        for loaded in (load_scenario(path), load_scenario(PACKAGED / f"{pid}.json")):
            assert loaded == sc and hash(loaded) == hash(sc)
    assert len(set(scenarios)) == len(scenarios)
    sc = scenarios[0]
    shifted = replace(sc, coupling=replace(sc.coupling, selfenergy={0: 0.1j}))
    assert shifted != sc and len({sc, shifted}) == 2
    assert hash(shifted) == hash(replace(shifted, coupling=replace(shifted.coupling)))


def test_packaged_files_are_canonical(tmp_path):
    # each file is in the form save_scenario writes, so saving a preset
    # writes the shipped bytes
    assert (ROOT / "scenarios").resolve() == PACKAGED
    for pid in PRESET_IDS:
        packaged = PACKAGED / f"{pid}.json"
        saved = tmp_path / f"{pid}.json"
        save_scenario(load_scenario(packaged), saved)
        assert saved.read_bytes() == packaged.read_bytes(), pid
        save_scenario(preset(pid), saved)
        assert saved.read_bytes() == packaged.read_bytes(), pid


def test_built_package_ships_every_preset(tmp_path):
    # build_py writes src/levelcross.egg-info, so build from a copy
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(
        ROOT / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "-q", "build_py", "-d", str(tmp_path / "lib")],
        cwd=tmp_path, check=True, capture_output=True,
    )
    shipped = tmp_path / "lib" / "levelcross" / "scenarios"
    assert sorted(p.name for p in shipped.iterdir()) == [
        f"{pid}.json" for pid in PRESET_IDS
    ]


def test_files_use_one_based_level_indices():
    obj = json.loads((PACKAGED / "fig7.json").read_text())
    assert obj["coupling"]["pairs"] == [[1, 4], [2, 4], [3, 4]]
    assert list(obj["coupling"]["selfenergy"]) == ["4"]
