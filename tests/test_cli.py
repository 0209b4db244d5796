"""Command line interface: output files, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from xml.etree import ElementTree

import numpy as np
import pytest

from levelcross import svgplot
from levelcross.cli import _write_trajectories_csv, main
from levelcross.eigensolve import SolverError
from levelcross.expressions import parse_expr
from levelcross.model import (
    LevelSpec,
    SweepGrid,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)
from levelcross.presets import PRESET_IDS, preset
from levelcross.svgplot import energies_svg, widths_svg
from levelcross.sweep import run_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return header, data


def test_sweep_writes_the_advertised_files(tmp_path):
    out = tmp_path / "run"
    assert main(["sweep", "--preset", "fig3", "--svg", "--out", str(out)]) == 0
    for name in (
        "trajectories.csv",
        "crossings.json",
        "energies.svg",
        "widths.svg",
        "manifest.json",
    ):
        assert (out / name).exists(), name

    header, data = read_csv(out / "trajectories.csv")
    assert header == ["a", "E_1", "E_2", "Gamma_half_1", "Gamma_half_2", "A_1", "A_2"]
    assert data.shape == (2001, 7)
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.5

    crossings = json.loads((out / "crossings.json").read_text())
    assert crossings["scenario"] == "fig3"
    kinds = [e["kind"] for e in crossings["events"]]
    assert kinds == ["true_energy"]
    assert crossings["events"][0]["branches"] == [1, 2]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "fig3"
    assert manifest["grid"] == {"a_min": 0.0, "a_max": 1.5, "steps": 2001}
    assert manifest["command"][:3] == ["sweep", "--preset", "fig3"]
    assert set(manifest["outputs"]) == {
        "trajectories.csv",
        "crossings.json",
        "energies.svg",
        "widths.svg",
        "manifest.json",
    }
    assert manifest["duration_seconds"] > 0
    assert "root_rtol" in manifest["solver"]


def test_sweep_csv_is_byte_identical_between_runs(tmp_path):
    args = ["sweep", "--preset", "fig1", "--grid", "0:1.5:101"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    one = (tmp_path / "one" / "trajectories.csv").read_bytes()
    two = (tmp_path / "two" / "trajectories.csv").read_bytes()
    assert one == two


def sweep_outputs(out):
    """Every file a sweep wrote, the manifest without its duration."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    assert manifest.pop("duration_seconds") > 0
    return files, manifest


def test_sweep_block_cut_does_not_change_bytes(tmp_path, monkeypatch):
    args = ["sweep", "--preset", "fig4", "--grid", "0:1.5:151", "--svg", "--out", str(tmp_path)]
    assert main(args) == 0
    files, manifest = sweep_outputs(tmp_path)
    assert sorted(files) == ["crossings.json", "energies.svg", "trajectories.csv", "widths.svg"]
    monkeypatch.setattr("levelcross.eigensolve.SOLVE_BLOCK", 16)  # 10 blocks, not 1
    assert main(args) == 0
    assert sweep_outputs(tmp_path) == (files, manifest)


def tree_outputs(root):
    """Every file below root by relative path, manifests without their duration."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = json.loads(data)
            assert data.pop("duration_seconds") > 0
        files[path.relative_to(root)] = data
    return files


# each writes below a relative --out; a negative bound needs the = form
RECORDED = {
    "sweep fig5": ["sweep", "--preset", "fig5", "--out", "o"],
    "sweep --grid=": ["sweep", "--preset", "fig1", "--grid=0:1:11", "--out", "o"],
    "sweep --svg --grid": [
        "sweep", "--preset", "fig4", "--svg", "--grid", "0:1.5:151", "--out", "o",
    ],
    "ep --box=-1:1": [
        "ep", "--preset", "fig1", "--profile", "constant", "--tune", "gamma_half:2",
        "--box=-1:1,0.4:0.8", "--out", "o",
    ],
    "reproduce": ["reproduce", "--out", "o"],
}


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_recorded_commands_rerun_to_the_same_files(tmp_path, monkeypatch, case):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.chdir(first)
    assert main(RECORDED[case]) == 0
    commands = [json.loads(p.read_text())["command"] for p in sorted(first.rglob("manifest.json"))]
    if case == "reproduce":
        figs = [f"fig{k}" for k in range(1, 10)]
        assert commands == [["sweep", "--preset", f, "--svg", "--out", f"o/{f}"] for f in figs]
    else:
        assert commands == [RECORDED[case]]
    monkeypatch.chdir(second)
    for command in commands:
        assert main(command) == 0
    assert tree_outputs(second) == tree_outputs(first)


def test_grid_override(tmp_path):
    out = tmp_path / "g"
    assert main(["sweep", "--preset", "fig1", "--grid", "0:1:11", "--out", str(out)]) == 0
    header, data = read_csv(out / "trajectories.csv")
    assert data.shape[0] == 11
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"a_min": 0.0, "a_max": 1.0, "steps": 11}


def test_bad_grid_is_usage_error(tmp_path, capsys):
    assert main(["sweep", "--preset", "fig1", "--grid", "0:1", "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--preset", "fig1", "--grid", "0:1:1", "--out", str(tmp_path)]) == 1
    assert "--grid" in capsys.readouterr().err


def test_missing_scenario_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert str(path) in capsys.readouterr().err


def test_scenario_file_drives_a_sweep(tmp_path):
    path = tmp_path / "custom.json"
    save_scenario(preset("fig2"), path)
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--grid", "0:1.5:51", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "fig2"
    assert manifest["command"][1:3] == ["--scenario", str(path)]


def test_profile_override_is_restricted(tmp_path, capsys):
    ok = ["sweep", "--preset", "fig1", "--profile", "constant", "--grid", "0:1:21"]
    assert main(ok + ["--out", str(tmp_path / "a")]) == 0
    bad = ["sweep", "--preset", "fig4", "--profile", "constant"]
    assert main(bad + ["--out", str(tmp_path / "b")]) == 1
    assert "fig1" in capsys.readouterr().err


def test_unknown_preset_is_usage_error(tmp_path, capsys):
    assert main(["sweep", "--preset", "fig10", "--out", str(tmp_path)]) == 1
    assert "fig10" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_solver_failure_exits_2(tmp_path, monkeypatch, capsys):
    def boom(scenario):
        raise SolverError("eigensolver failed at grid point a=0.5: no convergence")

    monkeypatch.setattr("levelcross.cli.run_sweep", boom)
    assert main(["sweep", "--preset", "fig1", "--out", str(tmp_path)]) == 2
    assert "grid point a=0.5" in capsys.readouterr().err


def write_pole_scenario(path):
    """Level 1/a swept over -1:1: the energy expression has a pole at a = 0."""
    sc = preset("fig1")
    levels = (LevelSpec(parse_expr("1/a"), 0.5), sc.levels[1])
    save_scenario(replace(sc, levels=levels, sweep=SweepGrid(-1.0, 1.0, 101)), path)
    return path


def write_scenario_json(path, obj):
    """obj as scenario JSON; json writes non-finite floats as NaN and Infinity."""
    path.write_text(json.dumps(obj))
    return str(path)


def write_fig1_variant(path, levels=slice(None), **coupling):
    """fig1 as scenario JSON, its levels sliced and coupling fields replaced."""
    obj = scenario_to_dict(preset("fig1"))
    obj["levels"] = obj["levels"][levels]
    obj["coupling"].update(coupling)
    return write_scenario_json(path, obj)


def write_fig1_energy(path, energy):
    """fig1 as scenario JSON with level 1's energy expression replaced."""
    obj = scenario_to_dict(preset("fig1"))
    obj["levels"][0]["e"] = energy
    return write_scenario_json(path, obj)


# nested past the interpreter's recursion limit, which no walk of an
# expression's flat program meets; the first two are the program of "a"
DEEP_ENERGIES = {
    "3000 parentheses": "(" * 3000 + "a" + ")" * 3000,
    "3000 minus signs": "-" * 3000 + "a",
    "5000 terms": "+".join(["a"] * 5000),
}


# (keys, value): integer fields that int() would truncate or take from a
# bool, and real fields that float() would take from a bool or a string
BAD_NUMBERS = {
    "steps 2.9": (("sweep", "steps"), 2.9),
    "steps true": (("sweep", "steps"), True),
    "steps Infinity": (("sweep", "steps"), float("inf")),
    "pair (1.7, 2)": (("coupling", "pairs"), [[1.7, 2]]),
    "pair (1, 2.9)": (("coupling", "pairs"), [[1, 2.9]]),
    "gamma_half true": (("levels", 1, "gamma_half"), True),
    "a_min false": (("sweep", "a_min"), False),
    "a_max string": (("sweep", "a_max"), "1.5"),
    "a_max 10^400": (("sweep", "a_max"), 10**400),
    "omega re string": (("coupling", "omega", "re"), "0.05"),
    "omega im null": (("coupling", "omega", "im"), None),
    "selfenergy re true": (("coupling", "selfenergy"), {"1": {"re": True, "im": 0.0}}),
    "selfenergy im string": (("coupling", "selfenergy"), {"1": {"re": 0.0, "im": "0"}}),
}


def write_fig1_field(path, keys, value):
    """fig1 as scenario JSON with the field that keys lead to replaced."""
    obj = scenario_to_dict(preset("fig1"))
    *outer, last = keys
    target = obj
    for key in outer:
        target = target[key]
    target[last] = value
    return write_scenario_json(path, obj)


def input_faults(tmp_path):
    pole = str(write_pole_scenario(tmp_path / "pole.json"))
    nine = scenario_to_dict(preset("fig5"))  # a star: every level couples to the last
    nine["levels"] = nine["levels"][:1] * 8 + nine["levels"][-1:]
    nine["coupling"]["pairs"] = [[k, 9] for k in range(1, 9)]
    nine = write_scenario_json(tmp_path / "nine.json", nine)
    nan_omega = write_fig1_variant(tmp_path / "nan.json", omega={"re": float("nan"), "im": 0.0})
    inf_selfenergy = write_fig1_variant(
        tmp_path / "inf.json", selfenergy={"1": {"re": float("inf"), "im": 0.0}}
    )
    far_pair = write_fig1_variant(tmp_path / "far_pair.json", pairs=[[1, 3]])
    self_pair = write_fig1_variant(tmp_path / "self_pair.json", pairs=[[2, 2]])
    far_selfenergy = write_fig1_variant(
        tmp_path / "far_selfenergy.json", selfenergy={"3": {"re": 0.1, "im": 0.0}}
    )
    no_levels = write_fig1_variant(tmp_path / "no_levels.json", levels=slice(0), pairs=[])
    tower = write_fig1_energy(tmp_path / "tower.json", "^".join(["a"] * 3000))
    malformed = {
        name: write_fig1_field(tmp_path / f"number{k}.json", *field)
        for k, (name, field) in enumerate(BAD_NUMBERS.items())
    }
    fig1_ep = ["ep", "--preset", "fig1", "--tune", "gamma_half:2"]
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    return {
        "sweep pole": ["sweep", "--scenario", pole, "--out", str(tmp_path / "o")],
        "ep pole": [
            "ep", "--scenario", pole, "--tune", "gamma_half:2", "--box=-1:1,0:1",
            "--out", str(tmp_path / "o"),
        ],
        "sweep --out file": ["sweep", "--preset", "fig1", "--out", str(a_file)],
        "ep --out file": [
            "ep", "--preset", "fig1", "--tune", "gamma_half:2", "--box", "0.3:1.0,0.4:0.8",
            "--out", str(a_file),
        ],
        "reproduce --out file": ["reproduce", "--out", str(a_file)],
        "sweep --threads 0": ["sweep", "--preset", "fig1", "--threads", "0"],
        "sweep --threads 2": ["sweep", "--preset", "fig1", "--threads", "2"],
        "reproduce --threads -3": ["reproduce", "--threads", "-3"],
        "reproduce --all": ["reproduce", "--all"],
        "sweep 9 levels": ["sweep", "--scenario", nine],
        "ep 9 levels": ["ep", "--scenario", nine, "--tune", "gamma_half:1", "--box", "0:1,0.4:0.6"],
        "sweep NaN omega": ["sweep", "--scenario", nan_omega],
        "sweep Infinity selfenergy": ["sweep", "--scenario", inf_selfenergy],
        "sweep pair (1, 3) of 2 levels": ["sweep", "--scenario", far_pair],
        "sweep pair (2, 2)": ["sweep", "--scenario", self_pair],
        "sweep selfenergy 3 of 2 levels": ["sweep", "--scenario", far_selfenergy],
        "ep --tune level 5 of 2": [
            "ep", "--preset", "fig1", "--tune", "gamma_half:5", "--box", "0.3:1.0,0.4:0.8",
        ],
        "ep --box side not LO:HI": [*fig1_ep, "--box", "0.3:1.0,0.4"],
        "ep --box bound not a number": [*fig1_ep, "--box", "0.3:x,0.4:0.8"],
        "ep --box span overflows": [*fig1_ep, "--box=-1e308:1e308,0.4:0.8"],
        "sweep --grid NaN bound": ["sweep", "--preset", "fig1", "--grid", "nan:1:11"],
        "sweep --grid span overflows": ["sweep", "--preset", "fig1", "--grid=-1e308:1e308:3"],
        "sweep no levels": ["sweep", "--scenario", no_levels],
        "sweep 3000 powers": ["sweep", "--scenario", tower],
        **{f"sweep {name}": ["sweep", "--scenario", path] for name, path in malformed.items()},
    }


FAULT_MESSAGES = {
    "sweep pole": "division by zero at a=0.0",
    "ep pole": "division by zero at a=0.0",
    "sweep --out file": "File exists",
    "ep --out file": "File exists",
    "reproduce --out file": "Not a directory",
    "sweep --threads 0": "unrecognized arguments: --threads 0",
    "sweep --threads 2": "unrecognized arguments: --threads 2",
    "reproduce --threads -3": "unrecognized arguments: --threads -3",
    "sweep 9 levels": "scenario has 9 levels; the solver takes at most 8",
    "ep 9 levels": "scenario has 9 levels; the solver takes at most 8",
    "sweep NaN omega": "omega must be finite, got (nan+0j)",
    "sweep Infinity selfenergy": "selfenergy must be finite, got (inf+0j)",
    "sweep pair (1, 3) of 2 levels": "coupling pair (1, 3) out of range for 2 levels",
    "sweep pair (2, 2)": "coupling pair (2, 2) couples a level to itself",
    "sweep selfenergy 3 of 2 levels": "selfenergy index 3 out of range for 2 levels",
    "ep --tune level 5 of 2": "tunable level 5 out of range for 2 levels",
    "ep --box side not LO:HI": "argument --box: bad ALO:AHI,TLO:THI '0.3:1.0,0.4': ",
    "ep --box bound not a number": (
        "argument --box: bad ALO:AHI,TLO:THI '0.3:x,0.4:0.8': "
        "could not convert string to float: 'x'"
    ),
    "ep --box span overflows": (
        "search box bounds and their span must be finite, got ((-1e+308, 1e+308), (0.4, 0.8))"
    ),
    "sweep --grid NaN bound": (
        "argument --grid: bad MIN:MAX:STEPS 'nan:1:11': sweep bounds and their span must be finite"
    ),
    "sweep --grid span overflows": (
        "argument --grid: bad MIN:MAX:STEPS '-1e308:1e308:3': "
        "sweep bounds and their span must be finite"
    ),
    "sweep no levels": "scenario needs at least one level",
    "reproduce --all": "unrecognized arguments: --all",
    "sweep 3000 powers": "non-finite result at a=1.44525",  # past e^(1/e) the tower overflows
    "sweep steps 2.9": "steps: expected an integer, got 2.9",
    "sweep steps true": "steps: expected an integer, got True",
    "sweep steps Infinity": "steps: expected an integer, got inf",
    "sweep pair (1.7, 2)": "pairs: expected an integer, got 1.7",
    "sweep pair (1, 2.9)": "pairs: expected an integer, got 2.9",
    "sweep gamma_half true": "gamma_half: expected a number, got True",
    "sweep a_min false": "a_min: expected a number, got False",
    "sweep a_max string": "a_max: expected a number, got '1.5'",
    "sweep a_max 10^400": "a_max: int too large to convert to float",
    "sweep omega re string": "omega.re: expected a number, got '0.05'",
    "sweep omega im null": "omega.im: expected a number, got None",
    "sweep selfenergy re true": "selfenergy.re: expected a number, got True",
    "sweep selfenergy im string": "selfenergy.im: expected a number, got '0'",
}


@pytest.mark.parametrize("case", sorted(FAULT_MESSAGES))
def test_input_faults_exit_1_with_an_error_line(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    assert main(input_faults(tmp_path)[case]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert FAULT_MESSAGES[case] in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(DEEP_ENERGIES))
def test_deep_energies_sweep(tmp_path, case):
    outputs = {}
    for name, energy in (("deep", DEEP_ENERGIES[case]), ("plain", "a")):
        path = write_fig1_energy(tmp_path / f"{name}.json", energy)
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / name)]) == 0
        outputs[name] = (tmp_path / name / "trajectories.csv").read_bytes()
    assert (outputs["deep"] == outputs["plain"]) == (case != "5000 terms")


def fig1_json_with(**fields) -> bytes:
    obj = scenario_to_dict(preset("fig1"))
    obj.update(fields)
    return json.dumps(obj).encode()


# scenario files that json or scenario_from_dict once let through as a traceback
UNREADABLE_SCENARIOS = {
    "not UTF-8": b"\xff\xfe" + fig1_json_with(),
    "JSON nested 10^5 deep": b"[" * 10**5 + b"]" * 10**5,
    "coupling a list": fig1_json_with(coupling=[]),
    "selfenergy a list": fig1_json_with(
        coupling={**scenario_to_dict(preset("fig1"))["coupling"], "selfenergy": [1]}
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_SCENARIOS))
def test_unreadable_scenario_files_exit_1_with_one_error_line(tmp_path, capsys, case):
    path = tmp_path / "scenario.json"
    path.write_bytes(UNREADABLE_SCENARIOS[case])
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def raise_solver_error(*args, **kwargs):
    raise SolverError("eigensolver failed at grid point a=0.5: no convergence")


@pytest.mark.parametrize("solver_fails", [False, True])
@pytest.mark.parametrize("command", ["sweep", "ep"])
def test_failed_runs_leave_no_out_directory(tmp_path, monkeypatch, command, solver_fails):
    if solver_fails:
        monkeypatch.setattr("levelcross.cli.run_sweep", raise_solver_error)
        monkeypatch.setattr("levelcross.cli.find_ep", raise_solver_error)
    assert main(input_faults(tmp_path)[f"{command} pole"]) == (2 if solver_fails else 1)
    assert not (tmp_path / "o").exists()


def write_levels_scenario(path, energies, pairs="all"):
    """Levels with half-width 0.5 and a constant coupling 0.05, over 0:1:11."""
    path.write_text(json.dumps({
        "label": path.stem,
        "levels": [{"e": e, "gamma_half": 0.5} for e in energies],
        "coupling": {
            "omega": {"re": 0.05, "im": 0.0},
            "profile": "constant",
            "pairs": pairs,
            "selfenergy": {},
        },
        "sweep": {"a_min": 0.0, "a_max": 1.0, "steps": 11},
    }))
    return str(path)


# (a) the characteristic polynomial's coefficients overflow; (b) they do
# not, but p overflows at the roots, which are 1e159 apart at a = 0.1
BEYOND_RANGE = {
    "coefficients": ["1e100*a", "1e100 - a", "2e100*a", "a"],
    "roots": ["1e160*a", "a"],
}
BEYOND_RANGE_POINTS = {
    "sweep": "grid point a=0.1: root iteration did not converge (batch index 1, residual inf)",
    "ep": "search point (a, value)=(0.02, 0.4): root iteration did not converge",
}


@pytest.mark.parametrize("command", sorted(BEYOND_RANGE_POINTS))
@pytest.mark.parametrize("case", sorted(BEYOND_RANGE))
def test_spectra_beyond_the_solver_range_exit_2_naming_the_point(tmp_path, capsys, case, command):
    path = write_levels_scenario(tmp_path / f"{case}.json", BEYOND_RANGE[case])
    args = [command, "--scenario", path]
    if command == "ep":
        args += ["--tune", "gamma_half:2", "--box", "0:1,0.4:0.8"]
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eigensolver failed at " + BEYOND_RANGE_POINTS[command])
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_scan_failure_names_the_search_point(tmp_path, capsys):
    # level 1 peaks at 1e160 on the scan line a = 0.692 (scan row 28 of 51)
    # and stays below 1e150 on the others: p overflows at the roots there
    window = ["1e160/(1 + 1e14*(a - 0.692)^2)", "a"]
    path = write_levels_scenario(tmp_path / "window.json", window)
    args = ["ep", "--scenario", path, "--tune", "gamma_half:2", "--box", "0.3:1.0,0.4:0.8"]
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: eigensolver failed at search point (a, value)=(0.692, 0.4): "
        "root iteration did not converge (batch index 1428, residual inf)\n"
    )


def test_levels_too_far_apart_for_the_gaussian_give_one_error_line(tmp_path):
    # (e_1 - e_2)^2 overflows; its exact limit exp(-inf) = 0 is the coupling,
    # and the solver failure that follows is the only line on stderr
    path = write_fig1_energy(tmp_path / "far.json", "1e155")
    run = run_module(["sweep", "--scenario", path, "--out", str(tmp_path / "o")])
    assert run.returncode == 2
    assert run.stderr == (
        "error: eigensolver failed at grid point a=0.0: "
        "root iteration did not converge (batch index 0, residual inf)\n"
    )
    assert not (tmp_path / "o").exists()


def run_module(argv, cwd=None):
    """`python -m levelcross argv`, importing the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "levelcross", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_module_entry_point_reports_an_input_fault_without_traceback(tmp_path):
    run = run_module(input_faults(tmp_path)["sweep pole"])
    assert run.returncode == 1
    assert run.stderr == "error: division by zero at a=0.0\n"


def test_module_entry_point_records_its_command_line(tmp_path):
    argv = RECORDED["sweep --grid="]
    assert run_module(argv, cwd=tmp_path).returncode == 0
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["command"] == argv


def test_ep_prints_location_and_gap(tmp_path, capsys):
    out = tmp_path / "ep"
    code = main(
        [
            "ep", "--preset", "fig1", "--profile", "constant",
            "--tune", "gamma_half:2", "--box", "0.3:1.0,0.4:0.8",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "(0.666667, 0.600000)"
    assert lines[1].startswith("gap = ")
    report = json.loads((out / "ep.json").read_text())
    assert report["converged"] is True
    assert report["pair"] == [1, 2]
    assert report["tunable"] == {"kind": "gamma_half", "level": 2}
    assert abs(report["location"]["a"] - 2.0 / 3.0) < 1e-4
    assert abs(report["location"]["value"] - 0.6) < 1e-4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["search"]["scan_points"] == 51


def test_ep_not_converged_exits_3_but_reports(tmp_path, capsys):
    out = tmp_path / "ep"
    code = main(
        [
            "ep", "--preset", "fig1",
            "--tune", "gamma_half:2", "--box", "0.0:0.3,0.4:0.8",
            "--out", str(out),
        ]
    )
    assert code == 3
    report = json.loads((out / "ep.json").read_text())
    assert report["converged"] is False
    assert report["gap"] > 1e-8


def test_ep_empty_box_is_usage_error(tmp_path, capsys):
    base = ["ep", "--preset", "fig1", "--tune", "gamma_half:2", "--out", str(tmp_path)]
    assert main(base + ["--box", "0.5:0.5,0.4:0.8"]) == 1
    assert "empty" in capsys.readouterr().err
    assert main(base + ["--box", "0.3:1.0"]) == 1
    assert main(base + ["--box", "0.3:inf,0.4:0.8"]) == 1


def test_ep_bad_tune_is_usage_error(tmp_path, capsys):
    base = ["ep", "--preset", "fig1", "--box", "0.3:1.0,0.4:0.8", "--out", str(tmp_path)]
    assert main(base + ["--tune", "gamma:2"]) == 1
    assert main(base + ["--tune", "gamma_half:0"]) == 1
    assert main(base + ["--tune", "gamma_half"]) == 1
    err = capsys.readouterr().err
    assert "tune" in err or "tunable" in err


def test_svg_has_one_polyline_per_branch_plus_dashed_bare(tmp_path):
    out = tmp_path / "svg"
    assert main(["sweep", "--preset", "fig4", "--grid", "0:1.5:101", "--svg", "--out", str(out)]) == 0
    for name in ("energies.svg", "widths.svg"):
        text = (out / name).read_text()
        assert text.count("<polyline") == 8
        assert text.count("stroke-dasharray") == 5  # 4 bare lines + legend swatch
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")


def test_svg_of_a_span_too_small_for_the_tick_ladder(tmp_path):
    # span / 5 underflows to 0: the a axis is ticked at its two ends
    out = tmp_path / "tiny"
    args = ["sweep", "--preset", "fig1", "--grid", "0:5e-324:2", "--svg", "--out", str(out)]
    assert main(args) == 0
    assert (out / "manifest.json").exists()
    for name in ("energies.svg", "widths.svg"):
        text = (out / name).read_text()
        assert text.count("<polyline") == 4
        assert '<text x="72.00" y="392" text-anchor="middle">0</text>' in text
        assert '<text x="612.00" y="392" text-anchor="middle">4.9406565e-324</text>' in text


def test_svg_escapes_the_scenario_label(tmp_path):
    obj = scenario_to_dict(preset("fig1"))
    obj["label"] = "a<b & c]]>"
    path = write_scenario_json(tmp_path / "label.json", obj)
    out = tmp_path / "o"
    args = ["sweep", "--scenario", path, "--grid", "0:1.5:11", "--svg", "--out", str(out)]
    assert main(args) == 0
    for name in ("energies.svg", "widths.svg"):
        texts = ElementTree.parse(out / name).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert next(texts).text == "a<b & c]]>"


def test_reproduce_builds_the_figure_tree(tmp_path):
    out = tmp_path / "tree"
    assert main(["reproduce", "--out", str(out)]) == 0
    dirs = sorted(p.name for p in out.iterdir())
    assert dirs == [f"fig{k}" for k in range(1, 10)]
    for sub in dirs:
        names = sorted(p.name for p in (out / sub).iterdir())
        assert names == [
            "crossings.json",
            "energies.svg",
            "manifest.json",
            "trajectories.csv",
            "widths.svg",
        ]
    # each figure's files are those of a direct sweep of its preset
    produced = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    for sub in dirs:
        flags = ["--preset", sub, "--svg"]
        assert main(["sweep", *flags, "--out", str(out / sub)]) == 0
    for path, data in produced.items():
        if path.name == "manifest.json":
            one, two = json.loads(data), json.loads(path.read_bytes())
            assert one.pop("duration_seconds") > 0 and two.pop("duration_seconds") > 0
            assert one == two, path
        else:
            assert path.read_bytes() == data, path


def test_golden_csv_regression(tmp_path):
    # small-grid sweeps pinned as repository data; parsed-value
    # comparison keeps the check meaningful across platforms
    for pid in ("fig1", "fig4"):
        out = tmp_path / pid
        assert main(["sweep", "--preset", pid, "--grid", "0:1.5:101", "--out", str(out)]) == 0
        got_header, got = read_csv(out / "trajectories.csv")
        want_header, want = read_csv(GOLDEN / f"{pid}_101.csv")
        assert got_header == want_header
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# whole-array output formatting against the per-value reference formatters

SPECIALS = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e300, -1e300]
ROUNDING = [0.125, 0.375, 0.625, 0.875, 1.005, 2.675, 0.015, 1.0 / 3.0, -2.5e-17]


def reference_csv(result) -> bytes:
    values = result.branches.values
    n = values.shape[1]
    head = (
        ["a"]
        + [f"E_{k + 1}" for k in range(n)]
        + [f"Gamma_half_{k + 1}" for k in range(n)]
        + [f"A_{k + 1}" for k in range(n)]
    )
    cols = [result.a, *values.real.T, *(-values.imag.T), *result.branches.norm_a.T]
    lines = [",".join(head)]
    for k in range(result.a.size):
        lines.append(",".join(f"{col[k]:.17g}" for col in cols))
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_points(result, rows) -> list[list[str]]:
    """Each polyline's "x,y" pairs, one value at a time, every grid point."""
    a = result.a
    x_lo, x_hi = float(a[0]), float(a[-1])
    stack = np.concatenate([np.asarray(r, dtype=float) for r in rows])
    finite = stack[np.isfinite(stack)]
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi - y_lo < 1e-12:
        pad = max(abs(y_hi), 1.0) * 0.05
    else:
        pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px0, px1, py0, py1 = 72, 760 - 148, 34, 420 - 46

    def sx(v):
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v):
        return py1 - (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    return [[f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(a, row)] for row in rows]


def assert_svg_points_match(result):
    bare = result.bare
    panels = (  # each panel draws its bare levels first
        (
            energies_svg(result),
            [*bare.real.T, *result.branches.values.real.T],
        ),
        (
            widths_svg(result),
            [*(-bare.imag.T), *(-result.branches.values.imag.T)],
        ),
    )
    for svg, rows in panels:
        want = reference_points(result, rows)
        rows = np.array(rows, dtype=float)
        sx, sy, _, _ = svgplot._axes(result, rows)
        px, py = sx(result.a), sy(rows)
        # the panel's point formatter, on every value before decimation
        assert [svgplot._points(px, y) for y in py] == [" ".join(w) for w in want]
        # each drawn polyline is that reference at the points it keeps
        kept = svgplot._keep(px, py)
        got = re.findall(r'points="([^"]*)"', svg)
        assert got == [" ".join(w[k] for k in np.flatnonzero(m)) for w, m in zip(want, kept)]


def hand_made_result(a, energies, widths, norms, bare):
    """A stand-in SweepResult with one row of energies, widths and norms per branch."""
    values = np.empty((len(a), len(energies)), dtype=complex)
    values.real, values.imag = np.transpose(energies), -np.transpose(widths)
    return SimpleNamespace(
        scenario=SimpleNamespace(label="hand-made"),
        a=np.array(a),
        branches=SimpleNamespace(values=values, norm_a=np.transpose(norms)),
        start_level=np.arange(len(energies)),
        bare=np.array(bare, dtype=complex),
    )


def hand_made_results():
    m = len(SPECIALS)
    specials = hand_made_result(
        np.linspace(0.0, 1.0, m),
        [SPECIALS, SPECIALS[::-1]],
        [ROUNDING[:m], SPECIALS[2:] + SPECIALS[:2]],
        [SPECIALS[::2] + SPECIALS[1::2], ROUNDING[-m:]],
        np.column_stack([np.linspace(-1.0, 1.0, m), np.full(m, 0.25 - 0.5j)]),
    )
    # x pixels 72 + a land on two-decimal ties such as 72.125
    a = [0.0] + ROUNDING[:4] + [540.0]
    m = len(a)
    rounding = hand_made_result(
        a,
        [ROUNDING[:m], ROUNDING[-m:]],
        [ROUNDING[2 : 2 + m], [0.5] * m],
        [[1.0] * m, ROUNDING[1 : 1 + m]],
        np.column_stack([np.full(m, -0.0 - 0.0j), np.full(m, 1.0 - 0.125j)]),
    )
    # pixels near two-decimal ties on both axes, where a change in the
    # order of the scaling operations shows in the rounded text
    ties = (np.arange(2000) * 27 + 0.5) / 100.0       # 0.005 ... 539.735
    x_lo, x_hi, y_lo, y_hi = 0.3, 1.7, -1.12, 2.12    # data span [-1, 2], 4% pad
    a = np.concatenate(([x_lo], x_lo + ties / 540 * (x_hi - x_lo), [x_hi]))
    m = a.size
    py = 50.0 + ties[np.arange(m) % ties.size] % 310.0
    y = y_lo + (374.0 - py) / 340.0 * (y_hi - y_lo)
    near_ties = hand_made_result(
        a,
        [y, y[::-1]],
        [y[::-1], y],
        [np.ones(m), np.ones(m)],
        np.column_stack([np.linspace(-1.0, 2.0, m), np.full(m, 0.5 - 0.5j)]),
    )
    return [specials, rounding, near_ties]


def sweep_2001(pid):
    scenario = preset(pid)
    grid = SweepGrid(scenario.sweep.a_min, scenario.sweep.a_max, 2001)
    return run_sweep(replace(scenario, sweep=grid))


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_csv_rows_match_the_per_value_formatter(tmp_path, pid):
    result = sweep_2001(pid)
    _write_trajectories_csv(tmp_path / "t.csv", result)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(result)


def test_csv_rows_match_the_per_value_formatter_on_special_values(tmp_path):
    for k, result in enumerate(hand_made_results()):
        _write_trajectories_csv(tmp_path / f"{k}.csv", result)
        assert (tmp_path / f"{k}.csv").read_bytes() == reference_csv(result)


@pytest.mark.parametrize("pid", ["fig4", "fig9"])
def test_svg_points_match_the_per_value_formatter(pid):
    assert_svg_points_match(sweep_2001(pid))


def test_svg_points_match_the_per_value_formatter_on_special_values():
    for result in hand_made_results():
        assert_svg_points_match(result)
