"""Spans around calls into levelcross, recorded from outside the package.

`Tracer.install` swaps module attributes that callers inside levelcross
look up at call time (for example `levelcross.sweep.solve_spectrum_batch`,
the name `run_sweep` calls) for wrappers that record a span: name,
start, end, parent span and operation. Spans stay in memory until the
run ends; `layer_metrics` derives per-layer times from them, a layer's
self time being its duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import re
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute that callers use, span name)
PATCHES = (
    ("levelcross.cli", "main", "cli.main"),
    ("levelcross.cli", "run_sweep", "sweep.run_sweep"),
    ("levelcross.cli", "detect_crossings", "sweep.detect_crossings"),
    ("levelcross.cli", "energies_svg", "svgplot.render"),
    ("levelcross.cli", "widths_svg", "svgplot.render"),
    ("levelcross.sweep", "run_sweep", "sweep.run_sweep"),
    ("levelcross.sweep", "detect_crossings", "sweep.detect_crossings"),
    ("levelcross.sweep", "build_hamiltonian_batch", "model.assembly"),
    ("levelcross.sweep", "solve_spectrum_batch", "eigensolve.solve"),
    ("levelcross.epfinder", "find_ep", "epfinder.find_ep"),
    ("levelcross.epfinder", "build_hamiltonian_batch", "model.assembly"),
    ("levelcross.epfinder", "eigenvalues_batch", "eigensolve.values"),
    ("levelcross.epfinder", "solve_spectrum_batch", "eigensolve.solve"),
    ("levelcross.epfinder", "probe_norm_blowup", "epfinder.probe"),
    ("levelcross.eigensolve", "char_poly_batch", "eigensolve.charpoly"),
    ("levelcross.eigensolve", "poly_roots_batch", "eigensolve.roots"),
)
EIGEN_ENTRIES = ("eigensolve.solve", "eigensolve.values")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    size: int = 0     # matrices in an eigensolver call, characters of an SVG


def _size(name, args, result):
    if name in EIGEN_ENTRIES:
        return int(args[0].shape[0])
    if name == "svgplot.render":
        return len(result)
    return 0


class Tracer:
    """Records spans while installed; `op` tags them with the operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.peaks_mb: list[float] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, name, original):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            span.size = _size(name, args, result)
            return result

        return traced

    def _wrap_peak(self, original):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        return measured

    def install(self, memory=False):
        """Wrap every patch target that exists; with memory=True wrap
        only run_sweep, recording the peak of what it allocates instead
        of spans."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None or (memory and name != "sweep.run_sweep"):
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_peak(original) if memory else self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-op layer times (s) and counts from a list of spans."""
    child_time = [0.0] * len(spans)
    scan_end = {}     # find_ep span -> end of its first eigenvalues_batch call
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
            if span.name == "eigensolve.values":
                scan_end.setdefault(span.parent, span.end)
    total, own, size, calls = (defaultdict(float) for _ in range(4))
    scan = 0.0
    for index, span in enumerate(spans):
        duration = span.end - span.start
        total[span.name] += duration
        own[span.name] += duration - child_time[index]
        size[span.name] += span.size
        calls[span.name] += 1
        if span.name == "epfinder.find_ep":
            scan += scan_end.get(index, span.start) - span.start
    per_op = {
        "model.assembly_s": total["model.assembly"],
        "eigensolve.charpoly_s": total["eigensolve.charpoly"],
        "eigensolve.roots_s": total["eigensolve.roots"],
        "eigensolve.vectors_s": own["eigensolve.solve"],
        "eigensolve.calls": sum(calls[name] for name in EIGEN_ENTRIES),
        "eigensolve.matrices": sum(size[name] for name in EIGEN_ENTRIES),
        "sweep.match_s": own["sweep.run_sweep"],
        "sweep.crossings_s": total["sweep.detect_crossings"],
        "epfinder.scan_s": scan,
        "epfinder.refine_s": total["epfinder.find_ep"] - scan - total["epfinder.probe"],
        "epfinder.probe_s": total["epfinder.probe"],
        "svgplot.render_s": total["svgplot.render"],
        "svgplot.bytes": size["svgplot.render"],
        "cli.write_s": own["cli.main"],
    }
    return {name: value / ops for name, value in per_op.items()}


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of `levelcross` and of the outermost scipy
    imports, from the output of `python -X importtime`."""
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2)) * 1e-6))
    out = {"levelcross": 0.0, "scipy": 0.0}
    stack = []   # entries are listed children first; walk them parents first
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "levelcross" and not stack:
            out["levelcross"] += cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["scipy"] += cumulative
        stack.append((depth, name))
    return out


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
