"""eongp benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload full_scale --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/`.  The
workloads, metrics and units are declared in BENCHMARK.json.  BLAS and
OpenMP are pinned to one thread before numpy loads: on two cores the dense
Newton step ran slower with two threads than with one.

A workload is a list of operations, each one call into eongp on one
instance drawn from the seed, checked on its own; a pass runs every
operation once, and passes repeat until --seconds is reached.  A warm-up
operation on a small instance runs first, untimed, so that no timed
operation pays for first calls.  An operation that raises or fails a check
counts as failed.

Times are reported at the reference speed of `probe.py`: the host's speed
drifts by more than the bounds allow, so each operation's wall time is
rescaled by a kernel timed alongside it, and so are the spans of a traced
operation.  The raw wall times are printed and saved too.

--trace 0 times untraced passes and reports the end-to-end metrics:
setup_s, the median of fresh processes importing eongp (numpy and
scipy.sparse already loaded) and loading the bundled instance, and
wall_ref_s, the median operation time.
--trace 1 runs each operation untraced and traced back to back, in an
order that alternates from one operation to the next, and reports the
per-layer metrics of the traced ones plus the tracing overhead (traced
minus untraced time per pass); the spans are written to .bench_out/ when
the run ends.  The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import Probe
from spans import (Tracer, assert_unwrapped, install, layer_metrics,
                   median_metrics, uninstall)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
SETUP_SAMPLES = 5
LOAD_SAMPLES = 5
LOAD_BLOCK_S = 0.2    # time enough for probe samples

# one set-up sample: import the program and load the bundled instance;
# prints the raw and the rescaled wall time.  The probe loads numpy and
# scipy.sparse, so their import falls before the timed part.
SETUP_CODE = """\
import time
from probe import Probe
probe = Probe()
probe.start()
start = time.perf_counter()
import workloads
workloads.load_base()
wall = time.perf_counter() - start
probe.stop()
print(wall, probe.scaled(wall, 0))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve()), str(BENCH_DIR)])
    return env


def measure_setup() -> tuple[float, float]:
    """Median raw and rescaled wall time of fresh processes importing eongp
    and loading the bundled instance."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        wall, rescaled = map(float, done.stdout.split())
        raw.append(wall)
        scaled.append(rescaled)
    return statistics.median(raw), statistics.median(scaled)


def measure_load(probe: Probe) -> float:
    """Median time of loading the bundled instance in this process, at the
    reference speed seen over a block of at least LOAD_SAMPLES loads."""
    import workloads

    since = probe.mark()
    block = time.perf_counter()
    loads = []
    while len(loads) < LOAD_SAMPLES or \
            time.perf_counter() - block < LOAD_BLOCK_S:
        started = time.perf_counter()
        workloads.load_base()
        loads.append(time.perf_counter() - started)
    return statistics.median(loads) * probe.factor(since)


def _git_commit() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = Path(".git") / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "commit": _git_commit(),
    }


def high_percentile(samples) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples above it, and its value.

    None when there are too few samples for any percentile to qualify.
    """
    n = len(samples)
    if n <= 10:
        return None, None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(samples)[n - 11]


def rescale(spans, origin: float, factor: float) -> float:
    """Move one operation's spans to start at `origin` and stretch them by
    `factor`; returns where the next operation's spans start."""
    start = spans[0].start
    for span in spans:
        span.start = origin + (span.start - start) * factor
        span.end = origin + (span.end - start) * factor
    return spans[0].end


class Passes:
    """Runs passes of one workload and keeps what they measured.

    A pass runs each of the workload's operations once, or with tracing
    twice, untraced and traced; every operation is timed and checked on its
    own.
    """

    def __init__(self, workload, probe: Probe):
        self.workload = workload
        self.probe = probe
        self.raw_walls = []                    # untraced operations
        self.scaled_walls = []
        self.objectives = []
        self.overheads = []
        self.layers = []
        self.spans = []
        self.attempted = 0
        self.failed = 0

    def _operation(self, op, tracer: Tracer | None = None):
        """(raw wall, rescaled wall, objective, rescaling factor) of one
        operation, traced when a tracer is given; None if it raised or
        failed a check."""
        self.attempted += 1
        assert_unwrapped()
        if tracer is not None:
            patches = install(tracer)
            root = tracer.begin("operation")
        since = self.probe.mark()
        started = time.perf_counter()
        try:
            outcome = op()
        except Exception:
            traceback.print_exc()
            outcome = None
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.end(root)
                uninstall(patches)
                assert_unwrapped()
        if outcome is not None and outcome.problems:
            print("check failed: " + "; ".join(outcome.problems),
                  file=sys.stderr)
            outcome = None
        if outcome is None:
            self.failed += 1
            return None
        return (wall, self.probe.scaled(wall, since), outcome.objective,
                self.probe.factor(since))

    def warm_up(self) -> None:
        """Run the workload's warm-up operation once, untimed."""
        self._operation(self.workload.warmup)

    def run(self, traced: bool, flip: bool) -> float:
        """One pass; returns its wall time.  With tracing, operation i runs
        untraced first when i + flip is even and traced first otherwise."""
        plain, traced_ops = [], []
        tracer = Tracer()
        started = time.perf_counter()
        for i, op in enumerate(self.workload.operations):
            if not traced:
                plain.append(self._operation(op))
                continue
            for kind in ((False, True) if (i + flip) % 2 == 0
                         else (True, False)):
                if kind:
                    traced_ops.append(self._operation(op, tracer))
                else:
                    plain.append(self._operation(op))
        elapsed = time.perf_counter() - started
        if None in plain + traced_ops:
            return elapsed
        if traced:
            self.overheads.append(sum(r[1] for r in traced_ops)
                                  - sum(r[1] for r in plain))
            roots = [i for i, s in enumerate(tracer.spans) if s.parent is None]
            origin = 0.0
            for k, first in enumerate(roots):
                last = roots[k + 1] if k + 1 < len(roots) else None
                origin = rescale(tracer.spans[first:last], origin,
                                 traced_ops[k][3])
            self.layers.append(layer_metrics(tracer.spans))
            self.spans.append([vars(s) for s in tracer.spans])
        else:
            self.raw_walls.extend(r[0] for r in plain)
            self.scaled_walls.extend(r[1] for r in plain)
            self.objectives.append(sum(r[2] for r in plain))
        return elapsed


def timed_loop(passes: Passes, seconds: float, traced: bool) -> None:
    """Run passes until the next one would end nearer past `seconds` than
    this one ends short of it; at least one pass runs."""
    started = time.perf_counter()
    costs = []
    flip = False
    while True:
        costs.append(passes.run(traced, flip))
        flip = not flip
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * statistics.median(costs) >= seconds:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads(Path("BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in declared["workloads"]]
    if args.workload not in workload_names:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not Path("src/eongp").is_dir():
        print("run from the repository root: src/eongp not found",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(Path("src").resolve()), str(BENCH_DIR)]

    if not args.trace:
        setup_raw, setup_s = measure_setup()
    probe = Probe()
    probe.start()
    import workloads

    if args.trace:
        load_s = measure_load(probe)
    base = workloads.load_base()
    table = workloads.Table2(base)
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    workload = workloads.WORKLOADS[args.workload](table, args.seed, workdir)

    passes = Passes(workload, probe)
    passes.warm_up()
    timed_loop(passes, args.seconds, bool(args.trace))
    probe.stop()
    env = environment()
    complete = bool(passes.layers if args.trace else passes.objectives)
    correct = complete and passes.failed == 0
    values = {}
    if complete and args.trace:
        values = median_metrics(passes.layers)
        values["model.load_s"] = load_s
        values["trace.overhead_s"] = statistics.median(passes.overheads)
    elif complete:
        values = {
            "setup_s": setup_s,
            "wall_ref_s": statistics.median(passes.scaled_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "objective": statistics.median(passes.objectives),
        }
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    if complete and set(values) != set(units):
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{passes.attempted} operations, {passes.failed} failed, "
          f"failed_frac {passes.failed / passes.attempted:.3g}")
    if not args.trace:
        walls = passes.scaled_walls
        pct, high = high_percentile(walls)
        print(f"setup raw wall {setup_raw:.4f} s")
        print("operation raw wall s: "
              + ", ".join(f"{w:.4f}" for w in passes.raw_walls))
        print(f"wall_ref_s samples {len(walls)}: "
              + ", ".join(f"{w:.4f}" for w in walls)
              + (f"; p{pct:.0f} {high:.4f} s" if pct is not None
                 else "; too few samples for a high percentile"))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "operation_raw_walls": passes.raw_walls,
              "operation_ref_walls": passes.scaled_walls,
              "probe_samples": probe.samples,
              "metrics": values, "spans": passes.spans}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))
    result = {"correct": correct, "attempted": passes.attempted,
              "failed": passes.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
