"""levelcross benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload sweep_fine --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. A run measures set-up in fresh interpreters, warms up with one
round, then repeats whole rounds of the workload's operations (the seed
shuffles their order within each round) until the operations have taken
`--seconds`. Operation times are divided by the host's pace factor
(pace.py), sampled between operations. Every output is checked against
reference.py. With `--trace 0` the last stdout line carries the
end-to-end metrics, with `--trace 1` the per-layer metrics;
bench/README.md defines both. The result line and, for traced runs, the
spans also go to bench_results/.
"""

import os

# One client, one core: no BLAS or OpenMP threads, here or in set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 5
PROBE_TIMEOUT = 60.0
DIGITS_CAP = 15.0


class BenchError(Exception):
    """The run cannot produce a result."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_fine", "ep_search", "star_orders"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import levelcross, build the inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def _probe(args):
    import levelcross  # noqa: F401  (first, so -X importtime charges it everything it pulls in)
    import workloads

    workloads.WORKLOADS[args.workload](ROOT, ROOT / "bench_scratch" / "probe")
    print("ready", flush=True)
    return 0


def _measure_setup(args, importtime, scratch):
    """Seconds from launching a fresh interpreter to the inputs being
    built, per launch; with importtime also the import times per launch."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-probe"]
    times, imports = [], []
    for _ in range(SETUP_LAUNCHES):
        # stderr goes to a file: -X importtime can print more than a pipe holds
        with open(scratch / "probe.err", "w+", encoding="utf-8") as err:
            started = time.perf_counter()
            child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                line = ""
                if select.select([child.stdout], [], [], PROBE_TIMEOUT)[0]:
                    line = child.stdout.readline()
                ready = time.perf_counter() - started
                child.stdout.read()
                child.wait(timeout=PROBE_TIMEOUT)
            finally:
                if child.poll() is None:
                    child.kill()
                child.wait()
                child.stdout.close()
            err.seek(0)
            log = err.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {child.returncode}): {log.strip()}")
        times.append(ready)
        if importtime:
            import spans
            imports.append(spans.import_times(log))
    return times, imports


class Runner:
    """Runs rounds of one workload's ops, checking every output."""

    def __init__(self, workload, seed):
        import levelcross
        import pace
        import workloads

        self.workload = workload
        self.rng = random.Random(seed)
        self.failure_types = (levelcross.SolverError, workloads.OpFailed)
        self.check_error = workloads.CheckError
        self.attempted = self.failed = 0
        self.ok_times = []        # seconds of each op that returned
        self.all_time = 0.0       # seconds of every op, failed ones too
        self.worst = 0.0          # worst relative eigenvalue deviation checked
        self.correct = True
        self.last = {}            # op name -> (op, last output)
        self.reported = set()
        self.pace = pace.Pace()

    def round(self, warm=False, tracer=None):
        """One pass over every op in seed order; returns its op seconds."""
        ops = list(self.workload.ops)
        self.rng.shuffle(ops)
        spent = 0.0
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            started = time.perf_counter()
            try:
                out = self.workload.run(*(op.warm if warm else op.call))
            except self.failure_types as err:
                elapsed = time.perf_counter() - started
                self.failed += 1
                if op.name not in self.reported:
                    self.reported.add(op.name)
                    print(f"{op.name}: failed: {type(err).__name__}: {err}", file=sys.stderr)
            else:
                elapsed = time.perf_counter() - started
                if not warm:
                    self.ok_times.append(elapsed)
                    self._check(op, out)
            spent += elapsed
            if not warm:
                self.all_time += elapsed
                self.pace.after_op(elapsed)
        return spent

    def _check(self, op, out):
        try:
            worst = self.workload.check(op, out)
        except self.check_error as err:
            self.correct = False
            print(f"check failed: {err}", file=sys.stderr)
            return
        if worst is not None:
            self.worst = max(self.worst, worst)
        self.last[op.name] = (op, out)

    def negative_controls(self):
        """Every spoiled output must be refused by the checks."""
        for op, out in self.last.values():
            for control in self.workload.negative_controls(op, out):
                try:
                    control()
                except self.check_error:
                    continue
                self.correct = False
                print(f"{op.name}: a negative control passed the checks", file=sys.stderr)


def _end_to_end(runner, args, setup_times):
    runner.round()
    while runner.all_time < args.seconds:
        runner.round()
    if not runner.ok_times:
        raise BenchError("no operation returned")
    runner.negative_controls()
    digits = DIGITS_CAP if runner.worst == 0 else min(DIGITS_CAP, -math.log10(runner.worst))
    # each time is scaled by the statistic of the pace samples that it takes of
    # the ops: preemption spikes, which a mean counts and a median skips, hit
    # both alike
    median_pace = runner.pace.factor(statistics.median)
    mean_pace = runner.pace.factor(statistics.mean)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(runner.ok_times) / median_pace, "s"),
        # over the whole run, failed ops' time included: a mean moves with the
        # shares of the host's faster and slower spells, a median of rounds
        # jumps from one spell's speed to the other's
        "ops_per_s": (len(runner.ok_times) / runner.all_time * mean_pace, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy_digits": (digits, "digits"),
    }, []


def _cli_bytes(runner):
    """Mean bytes of CSV, JSON and manifest per op, for ops that write a
    directory (the CLI ones); 0 for the others."""
    sizes = [
        sum(f.stat().st_size for f in out.iterdir() if f.suffix != ".svg")
        for _, out in runner.last.values()
        if isinstance(out, Path)
    ]
    return statistics.mean(sizes) if sizes else 0.0


def _per_layer(runner, args, imports):
    """Alternate plain and traced rounds; then one more round that
    records the tracemalloc peak of each run_sweep call."""
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    while runner.all_time < args.seconds or not traced:
        if len(plain) == len(traced):
            plain.append(runner.round())
            continue
        tracer.install()
        try:
            traced.append(runner.round(tracer=tracer))
        finally:
            tracer.uninstall()
    runner.negative_controls()
    tracer.install(memory=True)
    try:
        runner.round()
    finally:
        tracer.uninstall()
    traced_ops = len(traced) * len(runner.workload.ops)
    pace = runner.pace.factor()   # the layer times are means per op
    layers = {name: value / pace if name.endswith("_s") else value
              for name, value in spans.layer_metrics(tracer.spans, traced_ops).items()}
    import_s = spans.median_of(imports)
    layers.update({
        "host.kernel_s": statistics.mean(runner.pace.samples),
        "import.levelcross_s": import_s["levelcross"],
        "import.scipy_s": import_s["scipy"],
        "sweep.peak_alloc_mb": max(tracer.peaks_mb, default=0.0),
        "cli.bytes": _cli_bytes(runner),
        "trace.overhead_pct": 100.0 * (statistics.mean(traced) / statistics.mean(plain) - 1.0),
    })
    units = {"_s": "s", "_mb": "MB", "_pct": "%", "bytes": "B"}
    metrics = {
        name: (value, next((u for suffix, u in units.items() if name.endswith(suffix)), "count"))
        for name, value in layers.items()
    }
    return metrics, tracer.spans


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "levelcross").is_dir() or not (ROOT / "scenarios").is_dir():
        print("error: run from a levelcross checkout (src/levelcross and scenarios/ missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return _probe(args)

    scratch = ROOT / "bench_scratch" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        setup_times, imports = _measure_setup(args, bool(args.trace), scratch)
        import workloads

        workload = workloads.WORKLOADS[args.workload](ROOT, scratch)
        workload.prepare()
        runner = Runner(workload, args.seed)
        runner.round(warm=True)
        if args.trace:
            metrics, span_list = _per_layer(runner, args, imports)
        else:
            metrics, span_list = _end_to_end(runner, args, setup_times)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = ROOT / "bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if span_list:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in span_list:
                fh.write(json.dumps(asdict(span)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
