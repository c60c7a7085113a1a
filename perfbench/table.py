#!/usr/bin/env python3
"""Reproduce the ROADMAP baseline table, and summarise runs, in one command.

    python3 perfbench/table.py                  # seed 0
    python3 perfbench/table.py --seeds 1 2 3    # several seeds: medians and quartiles

Runs every workload once untraced and once traced per seed, one run at a
time and each for the run length BENCHMARK.json sets, then prints the
baseline-table rows computed from the results and, per workload and
metric, the median, quartiles and every per-run value.
The summary is also written to perfbench/results/table.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
    with open(RESULTS / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


def median(values):
    return statistics.median(values) if values else float("nan")


def baseline_rows(runs):
    """(ROADMAP row, value, source) for each baseline-table row."""
    def rep(w, key):
        return median([r[0]["report"][0][key] for r in runs[w]])

    def layer(w, m):
        return median([r[1]["metrics"][m]["value"] for r in runs[w]])

    mean_ms = median([statistics.fmean(r[0]["raw"]["segments"][0]["latencies_ms"]) for r in runs["stream"]])
    euler_calls = layer("evaluate", "kinematics.frames_scored") / 25
    csv_ms = layer("evaluate", "dataset.load_csv_sequence.ms") * 2000 / layer("evaluate", "dataset.frames_parsed")
    return [
        ("predict, batch 1 (from frame due time): mean / p50 / p95 ms",
         f"{mean_ms:.1f} / {rep('stream', 'latency_p50_ms'):.1f} / {rep('stream', 'forecast_latency_p95_ms'):.1f}",
         "stream report latency_p50_ms and forecast_latency_p95_ms (mean from raw samples)"),
        ("temporal channel forward ms", f"{layer('stream', 'model.temporal_channel_forward.total_ms'):.1f}",
         "stream model.temporal_channel_forward.total_ms (traced)"),
        ("spatial channel forward ms", f"{layer('stream', 'model.spatial_channel_forward.total_ms'):.1f}",
         "stream model.spatial_channel_forward.total_ms (traced)"),
        ("one-window forward + backward (train) ms", f"{1e3 / rep('train', 'throughput_median_per_s'):.1f}",
         "1000 / train report throughput_median_per_s (optimizer step included)"),
        ("euler_mse on 25x99 ms", f"{layer('evaluate', 'kinematics.euler_mse.ms') / euler_calls:.1f}",
         "evaluate kinematics.euler_mse.ms / (kinematics.frames_scored / 25) (traced)"),
        ("evaluate_mse_horizons ms/window", f"{1e3 / rep('evaluate', 'eval_windows_per_s'):.1f}",
         "1000 / evaluate report eval_windows_per_s"),
        ("autoregressive occlusion eval ms/window", f"{1e3 / rep('evaluate', 'ar_eval_windows_per_s'):.1f}",
         "1000 / evaluate report ar_eval_windows_per_s"),
        ("load_csv_sequence, 2000x99 ms", f"{csv_ms:.1f}",
         "evaluate dataset.load_csv_sequence.ms x 2000 / dataset.frames_parsed (traced)"),
        ("CSV ingest frames/s", f"{rep('evaluate', 'ingest_frames_per_s'):.0f}",
         "evaluate report ingest_frames_per_s (phase 1)"),
        ("Tensor constructions per prediction", f"{layer('stream', 'tensor.tensors_created'):.0f}",
         "stream tensor.tensors_created (traced)"),
        ("inference profile: matmul / softmax_masked / elementwise share",
         " / ".join(f"{layer('stream', f'tensor.{op}.ms') / layer('stream', 'bench.op_p50_traced_ms'):.0%}"
                    for op in ("matmul", "softmax_masked", "elementwise")),
         "stream tensor.<op>.ms / bench.op_p50_traced_ms (traced)"),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    runs = {w: [(run(w, s, 0), run(w, s, 1)) for s in args.seeds]
            for w in WORKLOADS}

    print("ROADMAP baseline table")
    for row, value, source in baseline_rows(runs):
        print(f"  {row:62s} {value:>20s}   <- {source}")

    summary = {}
    for w, pairs in runs.items():
        for trace in (0, 1):
            for m, entry in pairs[0][trace]["metrics"].items():
                values = [p[trace]["metrics"][m]["value"] for p in pairs]
                q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
                summary.setdefault(w, {})[m] = {"unit": entry["unit"], "median": median(values),
                                                "q1": q[0], "q3": q[2], "runs": values}
    print(f"\nPer workload and metric: median [q1, q3] over seeds {args.seeds}, then every run")
    for w, metrics in summary.items():
        for m, s in metrics.items():
            runs_text = " ".join(f"{v:.6g}" for v in s["runs"])
            print(f"  {w:9s} {m:42s} {s['median']:12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"{s['unit']:9s} runs: {runs_text}")
    provenance = runs[next(iter(runs))][0][0]["provenance"]
    with open(RESULTS / "table.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "seconds": SECONDS, "provenance": provenance,
                   "baseline": [{"row": r, "value": v, "source": s} for r, v, s in baseline_rows(runs)],
                   "summary": summary}, fh, indent=1)


if __name__ == "__main__":
    main()
