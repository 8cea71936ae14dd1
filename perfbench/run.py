"""lumpedq benchmark: one closed-loop client calling lumpedq's public API.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-540 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each op is timed from call to return; the next op starts when the previous
one has returned. ``--trace 0`` reports the end-to-end metrics of an
untraced run, ``--trace 1`` the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit. Metric names and units come from BENCHMARK.json.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"  # inputs, reports and span files of runs
WORKLOADS = ("sweep-540", "budget-calibrate-540", "wide-chip")
PREPARE_SAMPLES = 3  # this process plus fresh processes, each importing cold
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile


class BenchError(RuntimeError):
    """The benchmark cannot run, or a check that ends the run failed."""


def blas_threads() -> int:
    """One BLAS thread per processor this process may run on."""
    return len(os.sched_getaffinity(0))


def prepare_program(threads: int) -> None:
    """Pin the BLAS thread count, then import lumpedq from this checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    if not (SRC / "lumpedq" / "__init__.py").is_file():
        raise BenchError(f"lumpedq sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import lumpedq

    if Path(lumpedq.__file__).resolve().parent != SRC / "lumpedq":
        raise BenchError(f"imported lumpedq from {lumpedq.__file__}, not from {SRC}")


def benchmark_spec() -> dict:
    """BENCHMARK.json: run length and the metric names and units reported."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def load_reference(workload: str) -> list[dict]:
    doc = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return doc["workloads"][workload]


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it; the maximum when
    the sample is too small for such a percentile to lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND - 1
        return ordered[rank], f"p{100 * (rank + 1) // n}, {TAIL_BEYOND} samples beyond, n={n}"
    return ordered[-1], f"maximum, n={n}"


def measure(bench, probe, seconds: float, tracer=None) -> list[tuple[int, float, float]]:
    """Closed loop over whole cycles of the op pool until ``seconds`` have
    passed, so that every run takes each kind of op equally often. Returns
    (pool index, seconds, seconds at nominal host speed) of every op that
    succeeded; the host speed of an op is the mean of the probe blocks
    before and after it."""
    done = []
    start = time.perf_counter()
    before = probe.block(0.0)
    count = 0
    while count == 0 or count % len(bench.ops) or time.perf_counter() - start < seconds:
        op = bench.ops[count % len(bench.ops)]
        if tracer is None:
            elapsed = bench.execute(op, not bench.seeded)
        else:
            with tracer.op(count):
                elapsed = bench.execute(op, not bench.seeded)
        after = probe.block(elapsed or 0.0)
        if elapsed is not None:
            done.append((op.index, elapsed, probe.scale(elapsed, (before + after) / 2)))
        before = after
        count += 1
    return done


def prepare_samples(args, first: float) -> list[float]:
    """Import and input-generation time of this process and of fresh
    processes doing the same."""
    samples = [first]
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--prepare-only"]
    for _ in range(PREPARE_SAMPLES - 1):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr[-4000:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["prepare_s"])
    return samples


def trace_overhead(untraced: list[tuple], traced: list[tuple]) -> float:
    """Median over pool entries of traced / untraced median op time at
    nominal host speed, minus 1."""
    def medians(done):
        by_index = defaultdict(list)
        for index, _, scaled in done:
            by_index[index].append(scaled)
        return {index: statistics.median(v) for index, v in by_index.items()}

    plain, with_spans = medians(untraced), medians(traced)
    return statistics.median(with_spans[i] / plain[i] for i in with_spans if i in plain) - 1.0


def end_to_end(bench, done, prepared: list[float], warm_s: float) -> tuple[dict, list[str]]:
    times = [scaled for _, _, scaled in done]
    raw = [elapsed for _, elapsed, _ in done]
    tail_s, tail_note = tail(times)
    metrics = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": (bench.attempted - bench.failed) / bench.attempted,
        "setup_s": statistics.median(prepared) + warm_s,
    }
    notes = [f"op_s.p50: n={len(times)}; unscaled {statistics.median(raw):.6f} s",
             f"op_s.tail: {tail_note}",
             f"setup_s: import and inputs, median of "
             f"{', '.join(f'{s:.4f}' for s in prepared)} s, plus warm op {warm_s:.4f} s"]
    return metrics, notes


def per_layer(bench, probe, args, threads: int) -> tuple[dict, list[str]]:
    import hostprobe
    import spans
    import workloads

    untraced = measure(bench, probe, args.seconds / 2)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = measure(bench, probe, args.seconds / 2, tracer=tracer)
    tracer.write(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    try:
        spans.check_coverage(tracer.spans, workloads.EXPECTED_SPANS[args.workload])
    except spans.CoverageError as exc:
        raise BenchError(str(exc)) from exc

    pool = len(bench.ops)
    repeats = [op_id for op_id in range(pool, max(tracer.values, default=0) + 1)
               if spans.op_counts(tracer, op_id) != spans.op_counts(tracer, op_id % pool)]
    if repeats:
        bench.failed += 1
        print(f"counts of traced ops {repeats} differ from the same inputs' first run",
              file=sys.stderr)
    metrics = spans.layer_metrics(tracer, range(pool))
    metrics["trace.overhead_frac"] = trace_overhead(untraced, traced)
    metrics["run.blas_threads"] = threads
    metrics["host.probe_s"] = statistics.median(
        elapsed * hostprobe.NOMINAL_S / scaled for _, elapsed, scaled in traced)
    notes = [f"traced ops: {len(traced)}, untraced ops: {len(untraced)}, "
             f"spans: {len(tracer.spans)}"]
    return metrics, notes


def run_workload(args) -> int:
    started = time.perf_counter()
    threads = blas_threads()
    prepare_program(threads)
    import hostprobe
    import inputs
    import workloads

    if args.seed is None:
        args.seed = inputs.DEFAULT_SEED
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=WORK_ROOT))
    try:
        bench = workloads.BenchRun(args.workload, args.seed, work, load_reference(args.workload))
        prepared_raw = time.perf_counter() - started
        if args.prepare_only:
            probe = hostprobe.HostProbe()
            print(json.dumps({"prepare_s": probe.scale(prepared_raw, probe.block(prepared_raw))}))
            return 0
        bench.execute(bench.reference_ops[0], True)  # the warm op, on reference inputs
        warm_raw = time.perf_counter() - started - prepared_raw
        probe = hostprobe.HostProbe()
        speed = probe.block(prepared_raw + warm_raw)
        prepared_s, warm_s = probe.scale(prepared_raw, speed), probe.scale(warm_raw, speed)

        if args.trace:
            metrics, notes = per_layer(bench, probe, args, threads)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            prepared = prepare_samples(args, prepared_s)
            done = measure(bench, probe, args.seconds)
            if not done:
                raise BenchError("every op failed")
            metrics, notes = end_to_end(bench, done, prepared, warm_s)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print(f"lumpedq benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} clients=1 closed-loop nproc={os.cpu_count()} "
          f"blas_threads={threads}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the last line merges
    their results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--trace", str(args.trace)]
        for flag, value in (("--seed", args.seed), ("--seconds", args.seconds)):
            if value is not None:
                argv += [flag, str(value)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} exited with code {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, quantity in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = quantity
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    # a terminated run still removes its work directory and its child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None, help="default: the reference seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare-only", action="store_true",
                        help="time import and input generation, print it, and exit")
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
