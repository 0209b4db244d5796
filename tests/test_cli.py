"""Command line interface: output files, formats, exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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
from levelcross.presets import preset
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
        "reproduce --out file": ["reproduce", "--all", "--out", str(a_file)],
        "sweep --threads 0": ["sweep", "--preset", "fig1", "--threads", "0"],
        "sweep --threads 2": ["sweep", "--preset", "fig1", "--threads", "2"],
        "reproduce --threads -3": ["reproduce", "--all", "--threads", "-3"],
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
        "sweep --grid NaN bound": ["sweep", "--preset", "fig1", "--grid", "nan:1:11"],
        "sweep no levels": ["sweep", "--scenario", no_levels],
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
    "ep --box side not LO:HI": "--box expects ALO:AHI,TLO:THI, got '0.3:1.0,0.4'",
    "ep --box bound not a number": "bad --box bound in '0.3:x'",
    "sweep --grid NaN bound": "bad --grid 'nan:1:11': sweep bounds must be finite",
    "sweep no levels": "scenario needs at least one level",
}


@pytest.mark.parametrize("case", sorted(FAULT_MESSAGES))
def test_input_faults_exit_1_with_an_error_line(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    assert main(input_faults(tmp_path)[case]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert FAULT_MESSAGES[case] in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


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
    # five equal uncoupled levels: the root iteration fails on the scan
    path = write_levels_scenario(tmp_path / "five.json", ["a"] * 5, pairs=[])
    args = ["ep", "--scenario", path, "--tune", "gamma_half:2", "--box", "0.3:1.0,0.4:0.8"]
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: eigensolver failed at search point (a, value)=(0.986, 0.504): "
        "root iteration did not converge (batch index 2512, "
    )


def test_module_entry_point_reports_an_input_fault_without_traceback(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "levelcross", *input_faults(tmp_path)["sweep pole"]],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert run.stderr == "error: division by zero at a=0.0\n"


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


def test_reproduce_requires_all(capsys):
    assert main(["reproduce"]) == 1
    assert "--all" in capsys.readouterr().err


def test_reproduce_builds_the_figure_tree(tmp_path):
    out = tmp_path / "tree"
    assert main(["reproduce", "--all", "--out", str(out)]) == 0
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
    branches = result.trajectories
    n = len(branches)
    head = (
        ["a"]
        + [f"E_{k + 1}" for k in range(n)]
        + [f"Gamma_half_{k + 1}" for k in range(n)]
        + [f"A_{k + 1}" for k in range(n)]
    )
    cols = (
        [result.a]
        + [b.energy for b in branches]
        + [b.gamma_half for b in branches]
        + [b.norm_a for b in branches]
    )
    lines = [",".join(head)]
    for k in range(result.a.size):
        lines.append(",".join(f"{col[k]:.17g}" for col in cols))
    return ("\n".join(lines) + "\n").encode("ascii")


def reference_points(result, branch_rows, bare_rows) -> list[str]:
    """points attributes of one panel, bare rows first, one value at a time."""
    a = result.a
    x_lo, x_hi = float(a[0]), float(a[-1])
    stack = np.concatenate([np.asarray(r, dtype=float) for r in branch_rows + bare_rows])
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

    return [
        " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(a, row))
        for row in bare_rows + branch_rows
    ]


def assert_svg_points_match(result):
    bare = result.bare
    panels = (
        (
            energies_svg(result),
            [t.energy for t in result.trajectories],
            [bare[:, i].real for i in range(bare.shape[1])],
        ),
        (
            widths_svg(result),
            [t.gamma_half for t in result.trajectories],
            [-bare[:, i].imag for i in range(bare.shape[1])],
        ),
    )
    for svg, branch_rows, bare_rows in panels:
        got = re.findall(r'points="([^"]*)"', svg)
        assert got == reference_points(result, branch_rows, bare_rows)


def hand_made_result(a, energies, widths, norms, bare):
    trajectories = tuple(
        SimpleNamespace(energy=np.array(e), gamma_half=np.array(g), norm_a=np.array(n))
        for e, g, n in zip(energies, widths, norms)
    )
    return SimpleNamespace(
        scenario=SimpleNamespace(label="hand-made"),
        a=np.array(a),
        trajectories=trajectories,
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


@pytest.mark.parametrize("pid", ["fig4", "fig9"])
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
