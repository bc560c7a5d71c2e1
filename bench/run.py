"""Run one workload of the layered442 benchmark and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

The loop is closed with one client in this process: the next op starts when
the previous one has finished and its outputs have been checked.

``--trace 0`` measures for ``--seconds`` untraced and prints the end-to-end
metrics named in BENCHMARK.json.  ``--trace 1`` measures half the time
untraced and half traced, and prints the per-layer metrics, including the
tracing overhead between the two halves.  Either way ``setup_s`` and the
import time come from fresh interpreters (bench/setup_probe.py), median of
several.  Run facts go to stdout ahead of the result, and the result, the
facts and the spans to ``.bench_out/``.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
WARMUP_OPS = 2
PROBE_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_package():
    """Import layered442 from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "layered442" / "__init__.py").is_file():
        sys.exit(f"error: no layered442 package under {src}")
    sys.path.insert(0, str(src))
    import layered442

    if Path(layered442.__file__).resolve().parent != src / "layered442":
        sys.exit(f"error: imported layered442 from {layered442.__file__}, not {src}")
    return layered442


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[int, list[str]]] = field(default_factory=list)
    elapsed: float = 0.0
    cpu: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return (len(self.latencies) - len(self.failures)) / self.elapsed


def measure(run_one, first: int, seconds: float) -> Loop:
    """Run ops ``first, first + 1, ...`` back to back until ``seconds`` have passed.

    At least one op runs.
    """
    loop = Loop()
    index = first
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while True:
        start = time.perf_counter()
        problems = run_one(index)
        end = time.perf_counter()
        loop.latencies.append(end - start)
        if problems:
            loop.failures.append((index, problems))
        index += 1
        if end >= deadline:
            break
    loop.elapsed = end - t0
    loop.cpu = time.process_time() - cpu0
    return loop


def probe_setup(workload: str, out: Path, probes: int) -> list[tuple[float, float]]:
    """(set-up seconds, import milliseconds) from ``probes`` fresh interpreters."""
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(out)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        marks = json.loads(proc.stdout.splitlines()[-1])
        samples.append((marks["ready"] - t0, (marks["import_end"] - marks["import_start"]) * 1e3))
    return samples


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    return proc.stdout.strip() or "unknown"


def run_facts(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "per_op_sizes": workload.sizes,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "loop": "closed, 1 client, in-process",
        "waiting_time": "none: single-threaded, no queue or lock",
    }


def quantile(values, q: int) -> float:
    """The q-th decile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(loop: Loop) -> dict[str, float]:
    ms = [t * 1e3 for t in loop.latencies]
    return {
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": quantile(ms, 9),
        "cpu_ms_per_op": loop.cpu * 1e3 / len(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"ops-{args.workload}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # The first start fills the file cache and writes bytecode; the rest
        # are split around the timed loop so they sample more of the
        # machine's load than one moment does.
        probe_setup(args.workload, scratch, 1)
        probes = probe_setup(args.workload, scratch, SETUP_PROBES // 2)
        reference = workloads.prepare(args.workload, scratch)

        def run_one(index):
            return workloads.run_op(workload, reference, args.seed, index, scratch)

        # Untimed ops first, so lazy set-up and caches are warm; still checked.
        failures = [(i, p) for i in range(WARMUP_OPS) if (p := run_one(i))]
        loops = []
        if args.trace:
            untraced = measure(run_one, WARMUP_OPS, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                first = WARMUP_OPS + len(untraced.latencies)
                traced = measure(lambda i: tracer.run_op(i, run_one, i), first, args.seconds / 2)
            finally:
                tracer.uninstall()
            loops += [untraced, traced]
            values = tracer.metrics(len(traced.latencies))
            values["trace.overhead_pct"] = 100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0)
            tracer.write(OUT / f"spans-{args.workload}.csv")
        else:
            timed = measure(run_one, WARMUP_OPS, args.seconds)
            loops.append(timed)
            values = end_to_end(timed)
        probes += probe_setup(args.workload, scratch, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values["setup_s"] = statistics.median(p[0] for p in probes)
    values["import.layered442_ms"] = statistics.median(p[1] for p in probes)

    attempted = WARMUP_OPS + sum(len(loop.latencies) for loop in loops)
    failures += [f for loop in loops for f in loop.failures]
    for index, problems in failures[:5]:
        print(f"op {index} failed: {'; '.join(problems)}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    facts = run_facts(workload, args.seed, args.seconds, args.trace)
    facts["ops_timed"] = len(loops[-1].latencies)
    if not args.trace:
        facts["ops_beyond_p90"] = sum(t * 1e3 > values["op_p90_ms"] for t in loops[-1].latencies)
    facts["setup_s_samples"] = [p[0] for p in probes]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"facts": facts, "all_metrics": values, "result": result,
                   "op_latencies_s": [loop.latencies for loop in loops]}, fh, indent=1)
    print("facts: " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
