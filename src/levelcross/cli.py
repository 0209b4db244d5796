"""Command line front end.

sweep      solve a scenario over its grid, write CSV/JSON (and SVG)
ep         search a box for an exceptional point, write ep.json
reproduce  run every fig* preset into a directory tree

Exit codes: 0 success, 1 unusable input (flags, scenario file, box, an
expression fault on the grid or in the box, an unusable --out), 2
solver failure, 3 exceptional point search did not converge. Every
output set comes with a manifest.json holding the command line as it
ran; re-running it writes the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .csvtext import format_rows
from .eigensolve import DEFECTIVE_RTOL, ROOT_MAX_ITER, ROOT_RTOL, SolverError
from .epfinder import GAP_TOL, MAX_REFINE_ITER, SCAN_POINTS, find_ep
from .expressions import EvalError, ParseError
from .model import Scenario, ScenarioError, SweepGrid, Tunable, load_scenario, with_profile
from .presets import PRESET_IDS, preset
from .svgplot import energies_svg, widths_svg
from .sweep import CROSSING_TOL, detect_crossings, run_sweep

__all__ = ["main"]

# rows formatted per write: bounds the text held at once and keeps the
# formatter's working arrays in cache
CSV_BLOCK_ROWS = 1024


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


def _converter(form: str, parse):
    """An argparse type= converter: parse(text), its ValueError (a
    ScenarioError among them) reported against the expected form."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"bad {form} {text!r}: {err}") from err

    return convert


def _parse_grid(text: str) -> SweepGrid:
    a_min, a_max, steps = text.split(":")
    return SweepGrid(float(a_min), float(a_max), int(steps))


def _parse_tune(text: str) -> Tunable:
    kind, level = text.split(":")
    return Tunable(kind, int(level) - 1)


def _parse_box(text: str):
    (a_lo, a_hi), (t_lo, t_hi) = (side.split(":") for side in text.split(","))
    return (float(a_lo), float(a_hi)), (float(t_lo), float(t_hi))


def _build_parser() -> _Parser:
    parser = _Parser(prog="levelcross", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"levelcross {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("sweep", help="run a parameter sweep")
    _add_scenario_flags(sweep)
    sweep.add_argument(
        "--grid",
        type=_converter("MIN:MAX:STEPS", _parse_grid),
        metavar="MIN:MAX:STEPS",
        help="override the sweep grid",
    )
    sweep.add_argument("--svg", action="store_true", help="also write SVG panels")
    sweep.set_defaults(run=cmd_sweep)

    ep = commands.add_parser("ep", help="locate an exceptional point")
    _add_scenario_flags(ep)
    ep.add_argument(
        "--tune",
        required=True,
        type=_converter("KIND:LEVEL", _parse_tune),
        metavar="KIND:LEVEL",
        help="second search axis, e.g. gamma_half:2 (level is 1-based)",
    )
    ep.add_argument(
        "--box",
        required=True,
        type=_converter("ALO:AHI,TLO:THI", _parse_box),
        metavar="ALO:AHI,TLO:THI",
        help="search rectangle in (a, tunable); write a negative first bound as --box=-1:1,0:1",
    )
    ep.set_defaults(run=cmd_ep)

    rep = commands.add_parser("reproduce", help="sweep every fig* preset")
    rep.add_argument("--out", default="out", metavar="DIR")
    rep.set_defaults(run=cmd_reproduce)
    return parser


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
        scenario = replace(scenario, sweep=args.grid)
    return scenario


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_trajectories_csv(path: Path, result) -> None:
    values = result.branches.values  # (grid point, branch)
    n = values.shape[1]
    head = (
        ["a"]
        + [f"E_{k + 1}" for k in range(n)]
        + [f"Gamma_half_{k + 1}" for k in range(n)]
        + [f"A_{k + 1}" for k in range(n)]
    )
    table = np.column_stack((result.a, values.real, -values.imag, result.branches.norm_a))
    with open(path, "wb") as fh:
        fh.write((",".join(head) + "\n").encode("ascii"))
        for lo in range(0, table.shape[0], CSV_BLOCK_ROWS):
            fh.write(format_rows(table[lo : lo + CSV_BLOCK_ROWS]))


def _manifest(command, scenario, outputs, started, extra=None) -> dict:
    body = {
        "command": command,
        "scenario": scenario.label,
        "grid": asdict(scenario.sweep),
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


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    scenario = _resolve_scenario(args)
    result = run_sweep(scenario)
    events = detect_crossings(result)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    if args.svg:
        (out / "energies.svg").write_text(energies_svg(result), encoding="utf-8")
        (out / "widths.svg").write_text(widths_svg(result), encoding="utf-8")
        outputs += ["energies.svg", "widths.svg"]
    outputs.append("manifest.json")
    _write_json(out / "manifest.json", _manifest(args.argv, scenario, outputs, started))
    print(
        f"{scenario.label}: {result.a.size} grid points, {scenario.n} branches,"
        f" {len(events)} crossing events"
    )
    for name in outputs:
        print(f"wrote {out / name}")
    return 0


def cmd_ep(args) -> int:
    started = time.perf_counter()
    scenario = _resolve_scenario(args)
    tunable, box = args.tune, args.box  # parsed; find_ep checks the box
    report = find_ep(scenario, tunable, box)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        _manifest(args.argv, scenario, ["ep.json", "manifest.json"], started, search),
    )
    print(f"({report.location[0]:#.6g}, {report.location[1]:#.6g})")
    print(f"gap = {report.gap:#.6g}")
    if not report.converged:
        print("no coalescence below tolerance inside the box", file=sys.stderr)
        return 3
    return 0


def cmd_reproduce(args) -> int:
    base = Path(args.out)
    for pid in PRESET_IDS:
        if pid.startswith("fig"):
            status = main(["sweep", "--preset", pid, "--svg", "--out", str(base / pid)])
            if status:
                return status
    return 0


def main(argv=None) -> int:
    """Run one command; every input fault exits 1 and a solver failure 2,
    each with an `error:` line on stderr. The manifest records argv as given."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        args.argv = argv
        return args.run(args)
    except (_UsageError, ScenarioError, ParseError, EvalError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
