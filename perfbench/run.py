#!/usr/bin/env python3
"""Closed-loop benchmark of qmeasure: one client, each op starts when the last ends.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the library is imported from ./src.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced replay of the same ops.  Every op's output is
checked outside its timed interval.  Human-readable lines go first; the last
line of stdout is one JSON object.  Details (environment, input facts, span
summaries, spans) are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads.  One thread: on a shared host it
# spreads least between runs, and it is the single-threaded baseline.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("suite-small", "decompose-d32")
SETUP_REPEATS = 15
TAIL_BEYOND = 10

END_TO_END = [  # (name, unit, better)
    ("throughput_ops_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


def import_library():
    """Import qmeasure from this checkout's sources, never from anywhere else."""
    if not (SRC / "qmeasure" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qmeasure sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qmeasure
    if Path(qmeasure.__file__).resolve().parent != SRC / "qmeasure":
        raise SystemExit(f"perfbench: imported qmeasure from {qmeasure.__file__}, not {SRC}")
    from perfbench import workloads
    return workloads


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}


def setup_seconds(args) -> float:
    """Wall time from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process exited with {proc.returncode}")
    return elapsed


class Loop:
    """Latencies, output digests and failures of a sequence of op runs.

    A failure is (position of the run in the sequence, message).
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.digests: list[str | None] = []
        self.failures: list[tuple[int, str]] = []
        self.counts: Counter = Counter()

    def run_op(self, workload, state, k: int, check: bool, tracer=None):
        """Time op k; check its output outside the timed interval.

        An op or a check that raises is a failed op, and the loop goes on.
        """
        if tracer is not None:
            tracer.op, tracer.active = k, True
        start = time.perf_counter()
        try:
            out, problems = workload.op(state, k), []
        except Exception as exc:
            out, problems = None, [f"op raised {type(exc).__name__}: {exc}"]
        self.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if problems:
            self.digests.append(None)
        else:
            self.digests.append(workload.digest(out))
            self.counts.update(workload.counts(out))
            if check:
                try:
                    problems = workload.check(state, k, out)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.failures += [(len(self.latencies) - 1, f"op {k}: {p}") for p in problems]

    @property
    def failed_ops(self) -> int:
        return len({pos for pos, _ in self.failures})


def closed_loop(workload, state, seconds: float) -> Loop:
    workload.op(state, 0)  # warm-up: lazy imports and first-touch allocations stay untimed
    loop = Loop()
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        loop.run_op(workload, state, k, check=True)
        k += 1
    return loop


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND samples or fewer there is no such percentile, and the
    maximum is reported.
    """
    xs = sorted(latencies)
    n = len(xs)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {"value_ms": xs[idx] * 1e3, "percentile": 100.0 * (idx + 1) / n,
            "samples": n, "beyond": n - 1 - idx}


def run_untraced(args, workload, state) -> tuple[dict, list[Loop], dict]:
    loop = closed_loop(workload, state, args.seconds)
    lat = loop.latencies
    tail_info = tail(lat)
    values = {
        "throughput_ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_info["value_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, [loop], {"tail": tail_info, "latencies_ms": [x * 1e3 for x in lat]}


def run_traced(args, workload, state) -> tuple[dict, list[Loop], dict]:
    """Rounds over a fixed op set, each played untraced and then traced.

    The op set is the same in every round, so counts per op repeat exactly
    for a seed; alternating the two passes keeps slow drifts of the host out
    of the overhead ratio.  Every traced output must equal its untraced one.
    """
    from perfbench import tracer as tracing

    ops = range(workload.trace_ops)
    workload.op(state, 0)  # warm-up, as in the untraced run
    tracer = tracing.Tracer()
    plain, traced = Loop(), Loop()
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for k in ops:
            plain.run_op(workload, state, k, check=rounds == 0)
        tracer.install()
        try:
            for k in ops:
                traced.run_op(workload, state, k, check=False, tracer=tracer)
        finally:
            tracer.uninstall()
        rounds += 1
    expected = plain.digests[:len(ops)]
    for loop, what in ((plain, "untraced output changed between rounds"),
                       (traced, "traced output differs from untraced output")):
        loop.failures += [(i, f"op {i % len(ops)}: {what}")
                          for i, digest in enumerate(loop.digests)
                          if digest != expected[i % len(ops)]]
    summary = tracer.summary()
    missing = [s for s in workload.required_spans if summary.get(s, {}).get("calls", 0) == 0]
    if missing:
        traced.failures.append((-1, f"spans that never fired: {missing}"))
    values = tracing.layer_metrics(summary, tracer.counts + traced.counts, len(traced.latencies))
    values["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    tracer.save(OUT / f"{workload.name}-seed{args.seed}-spans.npz")
    return values, [plain, traced], {"rounds": rounds, "ops_per_round": len(ops),
                                     "spans": len(tracer.start), "summary": summary}


def run_one(args) -> int:
    workloads = import_library()
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workdir = Path(tempfile.mkdtemp(dir=OUT))
        try:
            workload.setup(args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir)
        return 0

    setups = [] if args.trace else [setup_seconds(args) for _ in range(SETUP_REPEATS)]
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        state = workload.setup(args.seed, workdir)
        runner = run_traced if args.trace else run_untraced
        values, loops, details = runner(args, workload, state)
        facts = workload.facts(state)
    finally:
        shutil.rmtree(workdir)

    checked = loops[0]
    facts.update({k: v / len(checked.latencies) for k, v in sorted(checked.counts.items())})
    ops = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed_ops for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    if args.trace:
        from perfbench.tracer import PER_LAYER
        units = {name: unit for name, unit, *_ in PER_LAYER}
        units["trace.overhead_ratio"] = "1"
    else:
        values["setup_s"] = statistics.median(setups)
        details["setup_samples_s"] = setups
        units = {name: unit for name, unit, _ in END_TO_END}
    env = environment()
    print(f"perfbench {workload.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {ops} ops, {failed} failed")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("facts: " + json.dumps(facts, sort_keys=True))
    for name, value in values.items():
        note = ""
        if name == "latency_tail_ms":
            t = details["tail"]
            note = f"  (p{t['percentile']:.2f} of {t['samples']} ops, {t['beyond']} beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} fresh processes)"
        print(f"  {name:<54} {value:>14.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':<54} {failed / ops:>14.6g} 1  ({failed} of {ops} ops)")
    for _, problem in failures[:10]:
        print(f"  FAILED {problem}")

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "facts": facts,
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
              "fail_ratio": failed / ops, "failures": failures[:100], **details}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": not failures, "attempted": ops, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perfbench {name}: exited with {proc.returncode}")
                return proc.returncode or 1
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "runs": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
