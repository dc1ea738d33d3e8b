"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload pipelined_submit --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones of a traced run (see ``tracing.py``).  The line
before it reports the host the run measured.  A failed correctness check
exits with code 1, a checkout without ``src/`` with code 2.

The command sets no BLAS/OpenMP thread variable and no kernel backend: it
measures the program with the host environment as it finds it.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: end-to-end metrics of the untraced run: name -> unit
END_TO_END = {
    "setup_s": "s",
    "throughput_fps": "frames/s",
    "latency_p50_ms": "ms",
    "mae_cm": "cm",
    "onboard_users_per_s": "users/s",
    "rss_mb": "MB",
}

BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (exit code 2)."""


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro").is_dir():
        raise BenchmarkError(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise BenchmarkError(f"repro imported from {repro.__file__}, not from {SRC}")


def host_context() -> Dict:
    import numpy
    import scipy
    from repro.nn.backend import active_backend_name
    from repro.serve.transport import available_codecs

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_env": {name: os.environ.get(name, "unset") for name in BLAS_VARIABLES},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "kernel_backend": active_backend_name(),
        "wire_codec": available_codecs()[-1],
    }


def percentile(values: List[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values), q))


def check(workload) -> List[str]:
    """Close the audit; returns every failure (empty when correct)."""
    from oracle import check_adapted_not_worse

    auditor = workload.auditor
    auditor.finish(workload.sent, workload.failed)
    failures = list(auditor.failures)
    if auditor.failure_count > len(failures):
        failures.append(f"... and {auditor.failure_count - len(failures)} more")
    if getattr(workload, "unmatched_replies", 0):
        failures.append(f"clients received {workload.unmatched_replies} unmatched replies")
    if getattr(workload, "calibration", None):
        failures += check_adapted_not_worse(auditor.oracle, workload.calibration)
    return failures


def measure(args, workdir: str) -> Dict:
    from tracing import PER_LAYER, Tracer
    from workloads import FULL, QUICK, make_workload

    sizes = (QUICK if args.quick else FULL)[args.workload]
    workload = make_workload(args.workload, args.seed, sizes, workdir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install_setup_layers()
        setups = []
        for repeat in range(1 if tracer is not None else sizes.setup_repeats):
            if repeat:
                workload.stop()
            start = time.perf_counter()
            workload.prepare()
            workload.start()
            setups.append(time.perf_counter() - start)

        if tracer is None:
            segment = workload.serve(args.seconds)
            if args.workload == "onboard_serve":
                onboard = segment.adapted_users / segment.adapt_s
            else:
                workload.probe_onboarding(workload.server)
                onboard = statistics.median(workload.onboard_rates)
        else:
            untraced = workload.serve(args.seconds / 2)
            workload.stop()
            trace_dir = tempfile.mkdtemp(prefix="trace-", dir=workdir)
            tracer.install_serving_layers(trace_dir)
            served_before = workload.served
            requests_before = len(workload.request_latencies)
            workload.start()
            traced = workload.serve(args.seconds / 2)
            snapshot = workload.server.metrics_snapshot()
        workload.stop()
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(5)

    failures = check(workload)
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)

    if tracer is None:
        latencies_ms = [s * 1e3 for s in segment.latencies_s]
        # The tail is reported here, not as a metric: on a 2-core host it
        # follows scheduler stalls of the oversubscribed shard processes
        # and does not repeat from run to run (see the README).
        print(
            f"timed {segment.rounds} rounds, {segment.frames} frames in {segment.wall_s:.2f} s; "
            f"round fps min/median/max {min(segment.round_fps):.1f}/"
            f"{statistics.median(segment.round_fps):.1f}/{max(segment.round_fps):.1f}; "
            f"latency p90/p99 {percentile(latencies_ms, 90):.2f}/"
            f"{percentile(latencies_ms, 99):.2f} ms over {len(latencies_ms)} samples",
            flush=True,
        )
        values = {
            "setup_s": statistics.median(setups),
            "throughput_fps": segment.throughput_fps,
            "latency_p50_ms": percentile(latencies_ms, 50),
            "mae_cm": workload.auditor.mae_cm,
            "onboard_users_per_s": onboard,
            "rss_mb": max(segment.memory_mb),
        }
        units = END_TO_END
    else:
        tracer.collect_workers()
        values = tracer.per_layer(
            served_frames=workload.served - served_before,
            request_latencies_s=workload.request_latencies[requests_before:],
            setups=len(setups),
            server_builds=2,
            snapshot=snapshot,
            overhead_pct=(untraced.throughput_fps / traced.throughput_fps - 1.0) * 100.0,
        )
        units = PER_LAYER
    for name, value in values.items():
        if not math.isfinite(value):
            failures.append(f"metric {name} is {value}")
    return {
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": len(workload.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="toy input sizes (the benchmark's own tests)"
    )
    args = parser.parse_args(argv)
    # A terminated run still stops its shard workers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        import_program()
    except (BenchmarkError, ImportError) as error:
        print(f"e2ebench: cannot import the program: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("host " + json.dumps(host_context(), sort_keys=True), flush=True)
    workdir = tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
