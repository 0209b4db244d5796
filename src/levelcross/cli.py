"""Command line front end.

sweep      solve a scenario over its grid, write CSV/JSON (and SVG)
ep         search a box for an exceptional point, write ep.json
reproduce  run every fig* preset into a directory tree

Exit codes: 0 success, 1 unusable input (flags, scenario file, box),
2 solver failure, 3 exceptional point search did not converge. Every
output set comes with a manifest.json naming the exact command; the
CSV it reproduces is byte-identical run to run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .eigensolve import DEFECTIVE_RTOL, ROOT_MAX_ITER, ROOT_RTOL, SolverError
from .epfinder import GAP_TOL, MAX_REFINE_ITER, SCAN_POINTS, find_ep
from .expressions import ParseError
from .model import Scenario, ScenarioError, SweepGrid, Tunable, load_scenario, with_profile
from .presets import PRESET_IDS, preset
from .svgplot import energies_svg, widths_svg
from .sweep import CROSSING_TOL, detect_crossings, run_sweep

__all__ = ["main"]

CSV_BLOCK_ROWS = 1024     # rows formatted per write; bounds the text held at once


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_scenario_flags(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_IDS, help="bundled scenario id")
    source.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    sub.add_argument(
        "--profile",
        choices=("constant", "gaussian"),
        help="coupling profile override (presets fig1, fig2, fig3 only)",
    )
    sub.add_argument("--out", default="out", metavar="DIR", help="output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="levelcross", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"levelcross {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("sweep", help="run a parameter sweep")
    _add_scenario_flags(sweep)
    sweep.add_argument("--grid", metavar="MIN:MAX:STEPS", help="override the sweep grid")
    sweep.add_argument("--threads", type=int, default=1, metavar="N")
    sweep.add_argument("--svg", action="store_true", help="also write SVG panels")
    sweep.set_defaults(run=cmd_sweep)

    ep = commands.add_parser("ep", help="locate an exceptional point")
    _add_scenario_flags(ep)
    ep.add_argument(
        "--tune",
        required=True,
        metavar="KIND:LEVEL",
        help="second search axis, e.g. gamma_half:2 (level is 1-based)",
    )
    ep.add_argument(
        "--box",
        required=True,
        metavar="ALO:AHI,TLO:THI",
        help="search rectangle in (a, tunable)",
    )
    ep.set_defaults(run=cmd_ep)

    rep = commands.add_parser("reproduce", help="sweep every fig* preset")
    rep.add_argument("--all", action="store_true", help="run all nine figure presets")
    rep.add_argument("--out", default="out", metavar="DIR")
    rep.add_argument("--threads", type=int, default=1, metavar="N")
    rep.set_defaults(run=cmd_reproduce)
    return parser


def _parse_grid(text: str) -> SweepGrid:
    bits = text.split(":")
    if len(bits) != 3:
        raise _UsageError(f"--grid expects MIN:MAX:STEPS, got {text!r}")
    try:
        grid = SweepGrid(float(bits[0]), float(bits[1]), int(bits[2]))
    except (ValueError, ScenarioError) as err:
        raise _UsageError(f"bad --grid {text!r}: {err}") from err
    return grid


def _parse_tune(text: str) -> Tunable:
    kind, _, raw = text.partition(":")
    try:
        level = int(raw)
    except ValueError as err:
        raise _UsageError(f"--tune expects KIND:LEVEL, got {text!r}") from err
    if level < 1:
        raise _UsageError("--tune level is 1-based")
    try:
        return Tunable(kind, level - 1)
    except ScenarioError as err:
        raise _UsageError(str(err)) from err


def _parse_box(text: str):
    sides = text.split(",")
    if len(sides) != 2:
        raise _UsageError(f"--box expects ALO:AHI,TLO:THI, got {text!r}")
    box = []
    for side in sides:
        bits = side.split(":")
        if len(bits) != 2:
            raise _UsageError(f"--box expects ALO:AHI,TLO:THI, got {text!r}")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError as err:
            raise _UsageError(f"bad --box bound in {side!r}") from err
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _UsageError("--box bounds must be finite")
        if not hi > lo:
            raise _UsageError(f"empty --box side {side!r}")
        box.append((lo, hi))
    return tuple(box)


def _resolve_scenario(args) -> Scenario:
    if args.preset:
        scenario = preset(args.preset)
    else:
        scenario = load_scenario(args.scenario)
    if getattr(args, "profile", None):
        if args.preset not in ("fig1", "fig2", "fig3"):
            raise ScenarioError("--profile only applies to presets fig1, fig2, fig3")
        scenario = with_profile(scenario, args.profile)
    if getattr(args, "grid", None):
        scenario = replace(scenario, sweep=_parse_grid(args.grid))
    return scenario


def _grid_text(grid: SweepGrid) -> str:
    return f"{grid.a_min:.17g}:{grid.a_max:.17g}:{grid.steps}"


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_trajectories_csv(path: Path, result) -> None:
    branches = result.trajectories
    n = len(branches)
    head = (
        ["a"]
        + [f"E_{k + 1}" for k in range(n)]
        + [f"Gamma_half_{k + 1}" for k in range(n)]
        + [f"A_{k + 1}" for k in range(n)]
    )
    table = np.column_stack(
        [result.a]
        + [b.energy for b in branches]
        + [b.gamma_half for b in branches]
        + [b.norm_a for b in branches]
    )
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(head) + "\n")
        for lo in range(0, table.shape[0], CSV_BLOCK_ROWS):
            block = table[lo : lo + CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _manifest(command, scenario, outputs, started, extra=None) -> dict:
    body = {
        "command": command,
        "scenario": scenario.label,
        "grid": {
            "a_min": scenario.sweep.a_min,
            "a_max": scenario.sweep.a_max,
            "steps": scenario.sweep.steps,
        },
        "solver": {
            "root_rtol": ROOT_RTOL,
            "root_max_iter": ROOT_MAX_ITER,
            "defective_rtol": DEFECTIVE_RTOL,
            "crossing_tol": CROSSING_TOL,
        },
        "version": __version__,
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - started,
    }
    if extra:
        body.update(extra)
    return body


def _sweep_into(scenario, out: Path, command, threads, svg, started) -> int:
    try:
        result = run_sweep(scenario, workers=threads)
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    events = detect_crossings(result)
    _write_trajectories_csv(out / "trajectories.csv", result)
    _write_json(
        out / "crossings.json",
        {
            "scenario": scenario.label,
            "tolerance": CROSSING_TOL,
            "events": [
                {
                    "kind": e.kind,
                    "a_cr": e.a_cr,
                    "branches": [k + 1 for k in e.pair],
                    "max_width_split": e.max_width_split,
                    "exchange_detected": e.exchange_detected,
                }
                for e in events
            ],
        },
    )
    outputs = ["trajectories.csv", "crossings.json"]
    if svg:
        (out / "energies.svg").write_text(energies_svg(result), encoding="utf-8")
        (out / "widths.svg").write_text(widths_svg(result), encoding="utf-8")
        outputs += ["energies.svg", "widths.svg"]
    outputs.append("manifest.json")
    _write_json(out / "manifest.json", _manifest(command, scenario, outputs, started))
    print(
        f"{scenario.label}: {result.a.size} grid points, {scenario.n} branches,"
        f" {len(events)} crossing events"
    )
    for name in outputs:
        print(f"wrote {out / name}")
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    try:
        scenario = _resolve_scenario(args)
    except (ScenarioError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    command = ["sweep"]
    command += ["--preset", args.preset] if args.preset else ["--scenario", args.scenario]
    if args.profile:
        command += ["--profile", args.profile]
    command += ["--grid", _grid_text(scenario.sweep), "--threads", str(args.threads)]
    command += ["--out", args.out]
    if args.svg:
        command.append("--svg")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return _sweep_into(scenario, out, command, args.threads, args.svg, started)


def cmd_ep(args) -> int:
    started = time.perf_counter()
    try:
        scenario = _resolve_scenario(args)
        tunable = _parse_tune(args.tune)
        box = _parse_box(args.box)
    except (ScenarioError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = find_ep(scenario, tunable, box)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    command = ["ep"]
    command += ["--preset", args.preset] if args.preset else ["--scenario", args.scenario]
    if args.profile:
        command += ["--profile", args.profile]
    command += ["--tune", args.tune, "--box", args.box, "--out", args.out]
    _write_json(
        out / "ep.json",
        {
            "scenario": scenario.label,
            "tunable": {"kind": tunable.kind, "level": tunable.level + 1},
            "box": {"a": list(box[0]), "value": list(box[1])},
            "location": {"a": report.location[0], "value": report.location[1]},
            "gap": report.gap,
            "pair": [k + 1 for k in report.pair],
            "norm_blowup": report.norm_blowup,
            "converged": report.converged,
        },
    )
    search = {
        "search": {
            "gap_tol": GAP_TOL,
            "scan_points": SCAN_POINTS,
            "max_refine_iter": MAX_REFINE_ITER,
        }
    }
    _write_json(
        out / "manifest.json",
        _manifest(command, scenario, ["ep.json", "manifest.json"], started, search),
    )
    print(f"({report.location[0]:#.6g}, {report.location[1]:#.6g})")
    print(f"gap = {report.gap:#.6g}")
    if not report.converged:
        print("no coalescence below tolerance inside the box", file=sys.stderr)
        return 3
    return 0


def cmd_reproduce(args) -> int:
    if not args.all:
        print("error: reproduce requires --all", file=sys.stderr)
        return 1
    base = Path(args.out)
    for pid in PRESET_IDS:
        if not pid.startswith("fig"):
            continue
        started = time.perf_counter()
        scenario = preset(pid)
        out = base / pid
        out.mkdir(parents=True, exist_ok=True)
        command = [
            "sweep", "--preset", pid,
            "--grid", _grid_text(scenario.sweep),
            "--threads", str(args.threads),
            "--out", str(out), "--svg",
        ]
        status = _sweep_into(scenario, out, command, args.threads, True, started)
        if status:
            return status
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
