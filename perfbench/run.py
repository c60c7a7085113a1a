#!/usr/bin/env python3
"""motioncast benchmark: run one workload and print its result.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 36 --trace 0

Run from the root of a source tree; the library is imported from its
``src/`` directory and nowhere else. Workloads: stream, train, evaluate
(see perfbench/README.md).

With ``--trace 0`` the run measures the workload untraced for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it
measures half the time untraced and half traced, and reports the
per-layer metrics together with the tracing overhead.

Every run checks the program's outputs. Standard output lists every
metric with its unit and every check, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A failed check makes ``correct`` false and the exit code 1. The full
result (provenance, raw samples, checks) goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``, and a
traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# One BLAS thread (this machine class has 2 cores): the same on every side
# of a comparison, and steadier than letting BLAS threads share the cores.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5                # set-ups, and fresh-interpreter imports, timed before and after measuring

E2E_UNITS = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import motioncast from this tree's src/."""
    src = ROOT / "src"
    if not (src / "motioncast" / "__init__.py").is_file():
        raise SystemExit(f"error: no motioncast sources under {src}")
    sys.path.insert(0, str(src))
    import motioncast
    if Path(motioncast.__file__).resolve().parent != src / "motioncast":
        raise SystemExit(f"error: imported motioncast from {motioncast.__file__}, not {src}")
    return motioncast


def fresh_import_seconds():
    """Seconds to import motioncast in each of SETUP_REPS fresh interpreters."""
    src = str(ROOT / "src")
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import motioncast; print(time.perf_counter() - t)" % src)
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=60).stdout)
            for _ in range(SETUP_REPS)]


def provenance(mc, args, seconds_measured):
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    blas["threads"] = BLAS_THREADS
    blas["env"] = {var: os.environ.get(var) for var in BLAS_ENV}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "seconds_measured": seconds_measured, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "machine": platform.machine(), "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(), "motioncast": mc.__version__,
    }


def git_commit():
    """HEAD's commit, read from .git inside this tree; None when there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6   # ru_maxrss is KiB


def end_to_end(seg, setup_s):
    import numpy as np
    lat = seg.latencies_ms
    return {
        "setup_s": setup_s,
        "latency_p90_ms": float(np.percentile(lat, 90)) if lat else 0.0,
        "throughput_per_s": seg.throughput(),
        "ok_share": ((seg.attempted - seg.failed - seg.late - seg.unrecoverable) / seg.attempted
                     if seg.attempted else 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_metrics(mc, wl, seconds, results_stem):
    """Half the time untraced, half traced; per-layer metrics and overhead."""
    import numpy as np
    import layers
    from tracer import Tracer
    plain = wl.segment(seconds / 2)
    tracer = Tracer()
    layers.install(tracer, mc)
    with tracer:
        traced = wl.segment(seconds / 2, tracer)
    metrics = layers.layer_metrics(tracer, len(mc.trainer.HORIZONS_MS))
    p50_plain = float(np.percentile(plain.latencies_ms, 50)) if plain.latencies_ms else 0.0
    p50_traced = float(np.percentile(traced.latencies_ms, 50)) if traced.latencies_ms else 0.0
    metrics["bench.op_p50_untraced_ms"] = p50_plain
    metrics["bench.op_p50_traced_ms"] = p50_traced
    metrics["bench.trace_overhead_ms"] = p50_traced - p50_plain
    metrics["bench.generator_lag_p95_ms"] = float(np.percentile(plain.lag_ms, 95)) if plain.lag_ms else 0.0
    metrics["bench.queue_wait_p95_ms"] = float(np.percentile(plain.wait_ms, 95)) if plain.wait_ms else 0.0
    tracer.dump(RESULTS / f"{results_stem}-spans.json")
    return metrics, [plain, traced], len(tracer.spans)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in BLAS_ENV:          # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    mc = import_library()
    sys.path.insert(0, str(HERE))
    import layers
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "_work" / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](mc, args.seed, workdir)
        wl.prepare(args.seconds)
        setups = [wl.setup_once() for _ in range(SETUP_REPS)]
        imports = fresh_import_seconds()
        t0 = time.perf_counter()
        if args.trace:
            metrics, segments, n_spans = traced_metrics(mc, wl, args.seconds, stem)
            units = layers.UNITS
        else:
            segments, n_spans = [wl.segment(args.seconds)], 0
        measured_s = time.perf_counter() - t0
        # Set up again after the measured stretch. The machine's speed
        # drifts over tens of seconds, so a median over two moments half
        # a minute apart moves less from run to run than one moment's.
        setups += [wl.setup_once() for _ in range(SETUP_REPS)]
        imports += fresh_import_seconds()
        if not args.trace:
            metrics = end_to_end(segments[0], statistics.median(imports) + statistics.median(setups))
            units = E2E_UNITS
        results = wl.checks()
        results.append(("operations_completed", all(s.latencies_ms for s in segments),
                        "every measured segment completed operations"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(ok for _, ok, _ in results)
    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    doc = {
        "provenance": provenance(mc, args, measured_s),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "report": [wl.report(s) for s in segments],
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in results],
        "raw": {"import_s": imports, "setup_s": setups,
                "segments": [{"latencies_ms": s.latencies_ms, "work": s.work,
                              "busy_s": s.busy_s, "rates": s.rates, "attempted": s.attempted,
                              "failed": s.failed, "late": s.late,
                              "unrecoverable": s.unrecoverable, "phases": s.phases,
                              "errors": s.errors} for s in segments]},
        "spans": n_spans,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    print(f"motioncast benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  ({wl.item}s; "
          f"{attempted} attempted, {failed} failed)")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6f} {units[name]}")
    for k, rep in enumerate(doc["report"]):
        label = "report" if len(segments) == 1 else ("report untraced" if k == 0 else "report traced")
        print(f"  {label}: " + ", ".join(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}"
                                         for key, val in rep.items()))
    for name, ok, detail in results:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": doc["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
