"""The benchmark's workloads: inputs, the timed operation, output checks.

Each workload holds a fixed list of operations, one round. `run(*op.call)`
is the timed call into levelcross; `check` compares what it returned with
reference.py and returns the worst relative eigenvalue deviation it
measured (None where the check has no eigenvalue reference);
`negative_controls` feeds `check` outputs spoiled on purpose, each of
which must be refused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
from pathlib import Path

import levelcross
import levelcross.cli
import levelcross.epfinder
import levelcross.sweep
import numpy as np
from levelcross import Tunable, preset, scenario_from_dict, with_profile
from levelcross.presets import PRESET_IDS

from reference import Model, min_gap, set_deviation

SWEEP_POINTS = 10_000     # sweep_fine grid, the criterion-11 size
WARM_POINTS = 101         # sweep_fine warm-up grid
STAR_ORDERS = range(2, 9)
STAR_POINTS = 101         # keeps the n!-permutation matcher near 0.3 GB at N = 8

SWEEP_TOL = 1e-9          # CSV spectrum vs eigvals, relative
STAR_TOL = 1e-8           # star spectrum vs eigvals, relative (N = 6 sits at 2.5e-10)
TRACE_TOL = 1e-8          # sum of eigenvalues vs tr H, relative (N = 6 sits at 5.3e-11)
A_FLOOR = 1.0 - 1e-12     # A_k >= 1 up to rounding
EP_LOCATION_TOL = 1e-9    # fig1 searches vs the closed-form EP (2/3, 0.6)
EP_LAPACK_GAP = 1e-5      # LAPACK pair gap at a reported EP (fig4 sits at 1.9e-6)
EP_OFFSETS = (1e-4, 1e-6) # probes for the square-root law of an EP2
EP_SLOPE = (0.4, 0.6)     # accepted log-log slope of gap against offset
SPOIL = 1e-6              # size of the negative controls' perturbation


class CheckError(Exception):
    """An output disagrees with its reference."""


class OpFailed(Exception):
    """The program reported a failure without raising (a nonzero exit)."""


@dataclasses.dataclass(frozen=True)
class Op:
    name: str
    call: tuple       # what the timed call receives
    model: Model      # the same input for reference.py
    warm: tuple       # what the warm-up call receives


class SweepFine:
    """`levelcross sweep --svg` in-process on every four-level preset."""

    name = "sweep_fine"

    def __init__(self, root: Path, out: Path):
        self.ops = []
        for pid in PRESET_IDS:
            scenario = preset(pid)
            if scenario.n != 4:
                continue
            grid = f"{scenario.sweep.a_min!r}:{scenario.sweep.a_max!r}"
            argv = ["sweep", "--preset", pid, "--svg", "--out", str(out / pid)]
            self.ops.append(
                Op(
                    pid,
                    (argv + [f"--grid={grid}:{SWEEP_POINTS}"],),
                    Model.load(root / "scenarios" / f"{pid}.json"),
                    (argv + [f"--grid={grid}:{WARM_POINTS}"],),
                )
            )
        self.refs = {}
        self.digests = {}

    def prepare(self):
        for op in self.ops:
            grid = op.model.grid(SWEEP_POINTS)
            self.refs[op.name] = (grid, op.model.eigvals(grid))

    def run(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            status = levelcross.cli.main(argv)
        if status:
            raise OpFailed(f"levelcross {' '.join(argv)} exited {status}")
        return Path(argv[argv.index("--out") + 1])

    @staticmethod
    def _read(out):
        raw = (out / "trajectories.csv").read_bytes()
        return raw, np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1)

    def _check_table(self, op, table):
        grid, ref = self.refs[op.name]
        n = op.model.n
        if table.shape != (grid.size, 1 + 3 * n) or not np.array_equal(table[:, 0], grid):
            raise CheckError(f"{op.name}: CSV grid differs from the requested one")
        if (table[:, 1 + 2 * n :] < A_FLOOR).any():
            raise CheckError(f"{op.name}: some A_k below 1")
        values = table[:, 1 : 1 + n] - 1j * table[:, 1 + n : 1 + 2 * n]
        worst = float(set_deviation(values, ref).max())
        if not worst <= SWEEP_TOL:
            raise CheckError(f"{op.name}: CSV spectrum off eigvals by {worst:.3e}")
        return worst

    def check(self, op, out):
        raw, table = self._read(out)
        digest = hashlib.sha256(raw).hexdigest()
        if self.digests.setdefault(op.name, digest) != digest:
            raise CheckError(f"{op.name}: CSV bytes differ between runs of the same op")
        return self._check_table(op, table)

    def negative_controls(self, op, out):
        table = self._read(out)[1]
        value = table.copy()
        value[table.shape[0] // 2, 1] += SPOIL
        norm = table.copy()
        norm[table.shape[0] // 2, -1] = 0.5
        return [lambda: self._check_table(op, value), lambda: self._check_table(op, norm)]


class EPSearch:
    """`find_ep` over a fixed list of searches; one search per op."""

    name = "ep_search"
    BOX = ((0.3, 1.0), (0.4, 0.8))     # the criterion-2 box
    FIG5_BOX = ((0.5, 0.9), (0.4, 0.8))
    CLOSED_FORM = (2.0 / 3.0, 0.6)     # 1 - a/2 = a and gamma_2/2 - 0.5 = 2 omega

    def __init__(self, root: Path, out: Path):
        searches = [
            ("fig1_constant", "fig1", "constant", 1, self.BOX),
            ("fig1_gaussian", "fig1", "gaussian", 1, self.BOX),
            ("fig2", "fig2", None, 1, self.BOX),
            ("fig4", "fig4", None, 3, self.BOX),
            ("fig9", "fig9", None, 3, self.BOX),
            ("fig5", "fig5", None, 3, self.FIG5_BOX),
        ]
        self.ops = []
        for name, pid, profile, level, box in searches:
            scenario = preset(pid) if profile is None else with_profile(preset(pid), profile)
            model = Model.load(root / "scenarios" / f"{pid}.json", profile)
            call = (scenario, Tunable("gamma_half", level), box)
            self.ops.append(Op(name, call, model, call))

    def prepare(self):
        pass

    def run(self, scenario, tunable, box):
        return levelcross.epfinder.find_ep(scenario, tunable, box)

    def check(self, op, report):
        a, t = report.location
        level = op.call[1].level
        worst = None
        if op.name.startswith("fig1"):
            worst = max(abs(x - r) / max(1.0, abs(r)) for x, r in zip((a, t), self.CLOSED_FORM))
            if not worst <= EP_LOCATION_TOL:
                raise CheckError(f"{op.name}: EP at ({a!r}, {t!r}), closed form (2/3, 0.6)")
        gap = float(min_gap(op.model.eigvals(a, (level, t)))[0])
        if not gap <= EP_LAPACK_GAP:
            raise CheckError(f"{op.name}: LAPACK pair gap {gap:.3e} at the reported EP")
        for da, dt in ((1.0, 0.0), (0.0, 1.0)):
            far, near = (
                float(min_gap(op.model.eigvals(a + da * d, (level, t + dt * d)))[0])
                for d in EP_OFFSETS
            )
            slope = math.log(far / near) / math.log(EP_OFFSETS[0] / EP_OFFSETS[1])
            if not EP_SLOPE[0] <= slope <= EP_SLOPE[1]:
                raise CheckError(f"{op.name}: gap grows like offset^{slope:.3f}, not ^0.5")
        return worst

    def negative_controls(self, op, report):
        a, t = report.location
        shifted = dataclasses.replace(report, location=(a + SPOIL, t))
        return [lambda: self.check(op, shifted)]


def star_spec(order: int) -> dict:
    """fig5 widened to `order` levels: order-1 parallel levels 0.05 apart,
    all coupled to one level e = a."""
    levels = [{"e": f"{1 + 0.05 * k!r} - a/2", "gamma_half": 0.5} for k in range(order - 1)]
    return {
        "label": f"star{order}",
        "levels": levels + [{"e": "a", "gamma_half": 0.5}],
        "coupling": {
            "omega": {"re": 0.05, "im": 0.05},
            "profile": "gaussian",
            "pairs": [[k + 1, order] for k in range(order - 1)],
            "selfenergy": {},
        },
        "sweep": {"a_min": -0.5, "a_max": 2.0, "steps": STAR_POINTS},
    }


class StarOrders:
    """`run_sweep` then `detect_crossings` on star scenarios, one order per op."""

    name = "star_orders"

    def __init__(self, root: Path, out: Path):
        self.ops = []
        for order in STAR_ORDERS:
            spec = star_spec(order)
            call = (scenario_from_dict(spec),)
            self.ops.append(Op(spec["label"], call, Model(spec), call))
        self.refs = {}

    def prepare(self):
        for op in self.ops:
            grid = op.model.grid()
            h = op.model.hamiltonian(grid)
            self.refs[op.name] = (grid, np.linalg.eigvals(h), np.trace(h, axis1=1, axis2=2))

    def run(self, scenario):
        sweep = levelcross.sweep
        result = sweep.run_sweep(scenario)
        sweep.detect_crossings(result)
        return result

    def _check_values(self, op, a, values):
        grid, ref, trace = self.refs[op.name]
        if not np.array_equal(a, grid):
            raise CheckError(f"{op.name}: sweep grid differs from the scenario's")
        worst = float(set_deviation(values, ref).max())
        if not worst <= STAR_TOL:
            raise CheckError(f"{op.name}: spectrum off eigvals by {worst:.3e}")
        drift = float((np.abs(values.sum(axis=1) - trace) / np.maximum(1.0, np.abs(trace))).max())
        if not drift <= TRACE_TOL:
            raise CheckError(f"{op.name}: eigenvalue sum off tr H by {drift:.3e}")
        return worst

    @staticmethod
    def _values(result):
        return np.stack([t.energy - 1j * t.gamma_half for t in result.trajectories], axis=1)

    def check(self, op, result):
        return self._check_values(op, result.a, self._values(result))

    def negative_controls(self, op, result):
        values = self._values(result)
        values[values.shape[0] // 2, 0] += SPOIL
        return [lambda: self._check_values(op, result.a, values)]


WORKLOADS = {w.name: w for w in (SweepFine, EPSearch, StarOrders)}
