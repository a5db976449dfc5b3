"""Benchmark entry point.

    python3 perfbench/run.py --workload {table,simulate,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/``; the
program under test receives only the inputs generated from ``--seed``.
``--trace 0`` measures the end-to-end metrics with nothing installed in the
package; ``--trace 1`` is a separate run that wraps the package's layers and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Traces,
exports and per-run records go to ``.bench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MAIN_PID = os.getpid()

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import multigrid_ilc.cli; print(time.perf_counter() - t)"
)
SETUP_REPEATS = 9
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def environment(workers: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
    }


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "multigrid_ilc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def measure_setup(workload) -> float:
    """Median import time of the package in a fresh interpreter plus the
    median time to resolve and build every generated input."""
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(done.stdout.strip().splitlines()[-1]))
        t0 = perf_counter()
        workload.setup()
        builds.append(perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds)


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus, when a pool ran, the pool size times
    the largest peak among the finished child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (pool_workers * children if pool_workers > 1 else 0)) / 1024.0


def timed_run(workload, args):
    """End-to-end metrics, nothing installed in the package."""
    import calibration
    import workloads

    setup_s = measure_setup(workload)
    probe = calibration.SpeedProbe() if workload.calibrated else None
    outcomes = workloads.measure(workload, args.seconds,
                                 workloads.MIN_OPS[args.workload], probe)
    raw = [o.seconds for o in outcomes]
    line = f"timed operations: {len(raw)} in {sum(raw):.3f} s, raw median " \
           f"{statistics.median(raw):.6g} s"
    if probe:
        times = [o.seconds * probe.factor(o.start, o.end) for o in outcomes]
        line += (f", calibration kernel median {probe.kernel_ms():.4g} ms "
                 f"(reference {1e3 * calibration.REFERENCE_S:g} ms)")
    else:
        times = raw
    print(line)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb(workload.workers if args.workload == "table" else 0),
    }
    return metrics, outcomes


def _serial_table_beside(workload, traced_pass):
    """Run ``traced_pass`` here while a forked process runs the same table
    untraced at one worker; returns the child's (start, end, cell seconds,
    table).  The fork happens while no tracer is installed, and unlike
    spawn it starts no resource-tracker process that would outlive the
    run."""
    import workloads

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=workloads.serial_table, args=(send, workload.resolved))
    child.start()
    send.close()
    try:
        traced_pass()
        return receive.recv()
    finally:
        child.join(timeout=600)
        if child.is_alive():
            child.terminate()
            child.join()


def traced_run(workload, args, tag: str):
    """Per-layer metrics from a traced pass, against an untraced pass over
    the same operations."""
    import tracer
    import workloads

    trc = tracer.Tracer()
    workload.setup()
    with trc:
        workload.setup()
    extra: dict[str, float] = {}
    if args.workload == "table":
        pool_run = workloads.run_one(workload, 0)
        traced = []

        def traced_pass():
            with trc:
                traced.append(workloads.run_one(workload, 0, workers=1))

        start, end, cells, table = _serial_table_beside(workload, traced_pass)
        serial_s = end - start
        untraced = [pool_run, workloads.Outcome(0, start, end, table)]
        untraced_s = serial_s
        extra = {
            "sweep.cell_p50_s": statistics.median(cells),
            "sweep.cell_max_s": max(cells),
            "sweep.serial_s": serial_s,
            "sweep.pool_efficiency": serial_s / (workload.workers * pool_run.seconds),
        }
    else:
        # untraced and traced runs of each operation alternate, and which of
        # the two goes first alternates too, so both see the same conditions
        untraced, traced = [], []
        for i in range(workloads.TRACE_OPS[args.workload]):
            index = i % workload.size()
            for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_turn:
                    with trc:
                        traced.append(workloads.run_one(workload, index))
                else:
                    untraced.append(workloads.run_one(workload, index))
        untraced_s = sum(o.seconds for o in untraced)
    traced_s = sum(o.seconds for o in traced)
    if args.workload == "simulate":
        extra["sim_rate"] = sum(o.result["sim_s"] for o in untraced
                                if o.result) / untraced_s
    if args.workload == "certify":
        extra["cert_tail_ms"] = 1e3 * tracer.percentile([o.seconds for o in untraced], 90)

    metrics = {name: 0.0 for name in tracer.LAYER_UNITS}
    metrics.update(tracer.layer_metrics(trc, traced_s))
    metrics.update(extra)
    metrics["trace.overhead_frac"] = traced_s / untraced_s
    OUT.mkdir(parents=True, exist_ok=True)
    trc.dump(OUT / f"trace-{tag}.json")
    return metrics, untraced + traced


def exact_count_check(metrics: dict, tag: str) -> list[str]:
    """Compare the exact counts with an earlier traced run of the same
    inputs on the same source; the first such run records them."""
    import tracer

    counts = {k: metrics[k] for k in tracer.EXACT_COUNTS + tracer.STEP_COUNTS}
    path = OUT / "counts" / f"{tag}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        print(f"exact counts: recorded in {path.name}")
        return []
    before = json.loads(path.read_text(encoding="utf-8"))
    diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
    print(f"exact counts: {'identical to' if not diff else 'DIFFER from'} {path.name}")
    return [f"exact counts differ from an earlier traced run: {diff}"] if diff else []


def stop_children() -> None:
    """End every process this run started and wait for each: pool workers
    or the serial-table child left by an error, and the resource tracker
    that multiprocessing starts on demand."""
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _on_sigterm(signum, frame):
    # forked children inherit this handler; only the measuring process
    # unwinds, so that its cleanup below runs
    if os.getpid() != MAIN_PID:
        os._exit(128 + signum)
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "simulate", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "multigrid_ilc" / "__init__.py").is_file():
        print(f"benchmark error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import tracer
    import workloads
    from multigrid_ilc.sweep import worker_count

    workers = max(1, min(worker_count(), len(os.sched_getaffinity(0))))
    generated = inputs.GENERATORS[args.workload](SRC, args.seed)
    digest = inputs.inputs_hash(generated)
    env = environment(workers)
    tag = f"{args.workload}-seed{args.seed}-{digest[:12]}-{source_hash()[:12]}"
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"inputs sha256: {digest}")
    print("environment: " + json.dumps(env, sort_keys=True))

    workload = workloads.WORKLOADS[args.workload](generated, args.seed, workers, OUT)
    if args.trace:
        metrics, outcomes = traced_run(workload, args, tag)
        units = {name: unit for name, (unit, _) in tracer.LAYER_UNITS.items()}
    else:
        metrics, outcomes = timed_run(workload, args)
        units = E2E_UNITS
    attempted, failed, messages = workload.check(outcomes)
    if args.trace:
        messages += exact_count_check(metrics, tag)
    for msg in messages:
        print(f"check: {msg}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs_sha256": digest, "environment": env, "messages": messages,
              "op_seconds": [o.seconds for o in outcomes], **result}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
