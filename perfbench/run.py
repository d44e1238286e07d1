"""corrgeo benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cohort_dist --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout and BLAS is pinned to
one thread. Set-up (import plus input generation) is timed in three fresh
child processes. After one untimed warm-up operation the workload runs
whole rounds, each issuing every instance of its pool once in a
seed-dependent order, until ``--seconds`` have passed; every output is
checked, and every operation is timed at reference host speed
(hostspeed.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for the metrics and the layer map.
"""

import os

# must precede the first numpy import, here and in the set-up children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
OVERHEAD = "trace.overhead_ratio"


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def metric_units(kind):
    """Metric name -> unit, for kind "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_corrgeo():
    """Import corrgeo from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "corrgeo" / "__init__.py").is_file():
        fail(f"no corrgeo package under {src}")
    sys.path.insert(0, str(src))
    import corrgeo
    import corrgeo.cli  # not imported by the package; the cohort workload drives it

    if Path(corrgeo.__file__).resolve().parent != (src / "corrgeo").resolve():
        fail(f"imported corrgeo from {corrgeo.__file__}")
    return corrgeo


def make_workdir(tag):
    path = ROOT / ".perfbench_tmp" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def probe_setup(args):
    """Child process: import and generate inputs, then clean up."""
    corrgeo = import_corrgeo()
    from workloads import WORKLOADS

    workdir = make_workdir(f"probe-{args.workload}")
    try:
        WORKLOADS[args.workload](corrgeo, workdir, args.seed)
    finally:
        remove_workdir(workdir)


def time_setup(args):
    """Median wall time of fresh processes that import and generate inputs."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times), times


def load_refs(name):
    refs = json.loads((HERE / "refs.json").read_text())
    if name not in refs:
        fail(f"refs.json has no references for {name}")
    return refs[name]


class Tally:
    """Per-operation results of a run: times, failures, outputs."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.probe = SpeedProbe()
        self.times = defaultdict(list)  # instance -> op seconds at reference speed
        self.wall = 0.0  # summed operation wall time
        self.scaled = 0.0  # the same at reference host speed
        self.outputs = {}  # instance -> last output (outputs are deterministic)
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.problems = []  # correctness problems
        self.notes = []  # program-reported failures

    def op(self, i):
        """Run and check one operation; returns its seconds at reference speed."""
        w = self.workload
        outcome, wall, scaled = self.probe.measure(lambda: w.run(i))
        self.wall += wall
        self.scaled += scaled
        problems = w.check(i, outcome, self.refs[w.ids[i]])
        self.attempted += 1
        self.work += outcome.work
        self.times[i].append(scaled)
        self.outputs[i] = outcome.output
        if outcome.failure or problems:
            self.failed += 1
        if outcome.failure:
            self.notes.append(f"{w.ids[i]}: {outcome.failure}")
        self.problems += [f"{w.ids[i]}: {p}" for p in problems]
        return scaled

    def round(self, rng):
        """Every instance once, in seed order; returns the summed scaled seconds."""
        return sum(self.op(int(i)) for i in rng.permutation(len(self.workload.ids)))


def end_to_end(tally, setup_s):
    """End-to-end metrics from each instance's median time over the rounds.

    Times are at reference host speed (see hostspeed.py). Throughput is a
    round's work over the summed per-instance medians; the latency
    percentiles are taken across instances, so they describe how the cost
    is spread over inputs.
    """
    per_inst = np.array([statistics.median(tally.times[i]) for i in sorted(tally.times)])
    rounds = tally.attempted / len(per_inst)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "throughput_per_s": tally.work / rounds / per_inst.sum(),
        "latency_ms_p50": 1e3 * float(np.percentile(per_inst, 50)),
        "latency_ms_p90": 1e3 * float(np.percentile(per_inst, 90)),
        "quality_ratio": tally.workload.quality(tally.outputs, tally.refs),
    }


def run_untraced(tally, rng, seconds):
    t0 = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - t0 < seconds:
        tally.round(rng)
        rounds += 1
    return rounds


def run_traced(tally, rng, seconds, units):
    """Alternate untraced and traced rounds; returns per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    before = tracing.namespace_snapshot()
    plain, traced, per_round = [], [], []
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < seconds:
        plain.append(tally.round(rng))
        start = tally.attempted
        tracer.reset()
        tracer.install()
        try:
            traced.append(tally.round(rng))
        finally:
            tracer.restore()
        ops = [tally.outputs[i] for i in range(len(tally.workload.ids))]
        tally.problems += tracing.consistency(tracer, tally.workload, ops, tally.attempted - start)
        per_round.append(tracing.round_metrics(tracer, [n for n in units if n != OVERHEAD]))
    if tracing.namespace_snapshot() != before:
        tally.problems.append("tracer left the corrgeo namespace changed")
    result = tracing.combine(per_round, units, tally.problems)
    result[OVERHEAD] = statistics.median(traced) / statistics.median(plain)
    return result, len(traced)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cohort_dist", "frechet_mean", "geodesic_rank"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0

    corrgeo = import_corrgeo()
    from workloads import WORKLOADS

    setup_s, setup_runs = time_setup(args)

    refs = load_refs(args.workload)
    workdir = make_workdir(args.workload)
    try:
        workload = WORKLOADS[args.workload](corrgeo, workdir, args.seed)
        rng = np.random.default_rng(args.seed)
        workload.run(0)  # warm-up: lazy imports and first-call costs
        tally = Tally(workload, refs)
        if args.trace:
            units = metric_units("per_layer")
            metrics, rounds = run_traced(tally, rng, args.seconds, units)
        else:
            units = metric_units("end_to_end")
            rounds = run_untraced(tally, rng, args.seconds)
            metrics = end_to_end(tally, setup_s)
    finally:
        remove_workdir(workdir)
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
             "or listed in BENCHMARK.json, not both")

    kind = f"{rounds} untraced + {rounds} traced" if args.trace else f"{rounds}"
    print(f"{args.workload} seed {args.seed}: {kind} rounds x {len(workload.ids)} instances"
          f" = {tally.attempted} ops ({tally.work} {workload.unit}), {tally.failed} failed")
    print(f"  operations took {tally.wall:.3f} s wall, {tally.scaled:.3f} s at reference host speed")
    print("  set-up runs took " + ", ".join(f"{t:.3f}" for t in setup_runs) + " s")
    for note in tally.notes[:20]:
        print(f"  program failure: {note}")
    for prob in tally.problems[:20]:
        print(f"  check failed: {prob}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
