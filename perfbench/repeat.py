"""Repeat one workload and summarise its spread.

    python3 perfbench/repeat.py --workload radical --runs 10 --seconds 30

Runs `run.py` --runs times, one process after another, with seeds
--first-seed, --first-seed + 1, ...  For each end-to-end metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
interquartile range as a share of the median, and the failed share of
each run.  Then it makes two traced runs on --first-seed and prints their
per-layer metrics side by side; a count that differs between them is
marked with "!=".  With --traced 0 the traced runs are skipped.  The
summary is also written to perfbench/results/repeat-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", type=int, default=2)
    args = ap.parse_args()

    results = []
    for n in range(args.runs):
        seed = args.first_seed + n
        res = run(args.workload, seed, args.seconds, 0)
        results.append(res)
        shown = ", ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed {res['failed']}/{res['attempted']}  {shown}",
              flush=True)
    summary = {"workload": args.workload, "runs": args.runs, "seconds": args.seconds,
               "first_seed": args.first_seed,
               "correct": all(r["correct"] for r in results),
               "failed_shares": sorted({f"{r['failed']}/{r['attempted']}" for r in results}),
               "metrics": {}}
    print(f"\n{'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/median':>10s}")
    for name in results[0]["metrics"]:
        s = spread([r["metrics"][name]["value"] for r in results])
        summary["metrics"][name] = s
        print(f"{name:16s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} {s['iqr_share']:10.3f}")
    print(f"correct in every run: {summary['correct']}; failed shares: {summary['failed_shares']}")

    if args.traced:
        traced = [run(args.workload, args.first_seed, args.seconds, 1) for _ in range(args.traced)]
        summary["traced"] = [t["metrics"] for t in traced]
        print(f"\ntraced runs on seed {args.first_seed}:")
        for name, m in traced[0]["metrics"].items():
            vals = [t["metrics"][name]["value"] for t in traced]
            mark = "!=" if m["unit"] == "count" and len(set(vals)) > 1 else "  "
            print(f"  {name:30s} {mark} " + "  ".join(f"{v:14.6g}" for v in vals) + f"  {m['unit']}")
        if "wall_s" in summary["metrics"]:
            traced_s = statistics.median(t["metrics"]["trace.compute_s"]["value"] for t in traced)
            wall_s = summary["metrics"]["wall_s"]["median"]
            summary["trace_overhead"] = traced_s / wall_s
            print(f"tracing overhead: traced compute {traced_s:.3f}s against untraced wall_s median "
                  f"{wall_s:.3f}s, {traced_s / wall_s:.2f}x")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"repeat-{args.workload}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
