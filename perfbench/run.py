"""Run one workload of the curvlab benchmark and print its metrics.

    python3 perfbench/run.py --workload moduli --seed 1 --seconds 30 --trace 0

Set-up (imports, then generating and validating the inputs from the seed)
is timed once, from the start of the process.  The battery of items is then
run in whole rounds, in this one process and thread, until the next round
would end after --seconds; every round computes every item on fresh copies
of its inputs.  The first round's outputs are checked (see workloads.py),
later rounds must reproduce them exactly.  Only the compute calls are
timed; `wall_s` is the sum over the items of each item's median time over
the rounds, in reference seconds (calibrate.py).  An operation fails when
it raises, or when its output shows a fault already recorded in CHANGES.md
(oracle.KnownFault); any other refused output makes `correct` false.

With --trace 1 the run instead makes one round under the profiler and
prints the per-layer metrics of layers.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details (per-item times, spans, the
profile's top functions) go to perfbench/results/.
"""

from __future__ import annotations

import time

T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
from oracle import CheckError, KnownFault  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


class Spans:
    """(id, phase, start, end) records, kept in memory until the run ends."""

    def __init__(self):
        self.records = []

    def add(self, ident, phase, start, end):
        self.records.append({"id": ident, "phase": phase, "start": start - T_IMPORT, "end": end - T_IMPORT})


def import_program():
    if not os.path.isfile(os.path.join(SRC, "curvlab", "__init__.py")):
        sys.exit(f"run.py: no curvlab package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import curvlab

    if os.path.dirname(os.path.dirname(os.path.abspath(curvlab.__file__))) != SRC:
        sys.exit(f"run.py: imported curvlab from {curvlab.__file__}, not from {SRC}")
    import workloads

    return workloads


def attempt(it, inputs, profile):
    """it.compute(*inputs), or the exception it raised."""
    try:
        if profile is None:
            return it.compute(*inputs)
        with profile:
            return it.compute(*inputs)
    except Exception as exc:  # a program fault: the operation failed
        return exc


def run_round(items, first, spans, clock, profile=None):
    """Compute every item once on fresh inputs; returns (reference times,
    raw CPU times, failures, problems, outputs)."""
    times, raw, failed, problems, outputs = [], [], [], [], []
    for n, it in enumerate(items):
        inputs = copy.deepcopy(it.inputs)
        t0 = time.perf_counter()
        out, t_ref, t_raw = clock.time(attempt, it, inputs, profile)
        t1 = time.perf_counter()
        times.append(t_ref)
        raw.append(t_raw)
        spans.add(it.name, "compute", t0, t1)
        if isinstance(out, Exception):
            failed.append(f"{it.name}: {type(out).__name__}: {out}")
            outputs.append(None)
            continue
        outputs.append(out)
        try:
            if first[n] is None:
                fault = None
                try:
                    it.check(out)
                except KnownFault as exc:
                    fault = f"{it.name}: {exc}"
                first[n] = (it.summary(out), fault)
            elif it.summary(out) != first[n][0]:
                raise CheckError("output differs from the first round's")
            if first[n][1]:
                failed.append(first[n][1])
        except CheckError as exc:
            problems.append(f"{it.name}: {exc}")
        spans.add(it.name, "check", t1, time.perf_counter())
    return times, raw, failed, problems, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["moduli", "radical", "fibration"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    cpu0 = time.process_time()
    start_probe = calibrate.probe()
    probe_cpu = time.process_time() - cpu0
    spans = Spans()
    t0 = time.perf_counter()
    workloads = import_program()
    spans.add("setup", "import", t0, time.perf_counter())
    items = []
    gen = workloads.WORKLOADS[args.workload](args.seed)
    while True:
        t0 = time.perf_counter()
        it = next(gen, None)
        if it is None:
            break
        items.append(it)
        spans.add(it.name, "generate", t0, time.perf_counter())
    t0 = time.perf_counter()
    workloads.validate_inputs(items)
    spans.add("setup", "validate", t0, time.perf_counter())
    setup_cpu = time.process_time() - probe_cpu
    clock = calibrate.Clock()
    setup_s = setup_cpu * calibrate.REFERENCE_S / ((start_probe + clock.last) / 2)

    first = [None] * len(items)
    samples = [[] for _ in items]  # per item, its reference time in each round
    raw = [[] for _ in items]  # per item, its CPU time in each round
    attempted, failures, problems = 0, [], []
    profile = None
    if args.trace:
        from layers import LayerProfile

        profile = LayerProfile()
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        times, cpu, failed, bad, outputs = run_round(items, first, spans, clock, profile)
        for s, t in zip(samples, times):
            s.append(t)
        for s, t in zip(raw, cpu):
            s.append(t)
        attempted += len(items)
        failures += failed
        problems += bad
        now = time.perf_counter()
        if profile is not None or now - start + (now - r0) > args.seconds:
            break

    totals = [sum(s[r] for s in samples) for r in range(len(samples[0]))]
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures)}
    if args.trace:
        from layers import METRICS

        pairs = sum(o.get("pairs_checked", 0) for o in outputs if isinstance(o, dict))
        values = profile.metrics(pairs, compute_s=totals[0], cpu_s=sum(s[0] for s in raw))
        result["metrics"] = {m: {"value": values[m], "unit": unit} for m, unit, _ in METRICS}
    else:
        result["metrics"] = {
            "wall_s": {"value": sum(statistics.median(s) for s in samples), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }

    os.makedirs(RESULTS, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=len(totals),
                  round_totals=totals, failures=sorted(set(failures)), problems=problems,
                  setup_cpu_s=setup_cpu, items={it.name: s for it, s in zip(items, samples)},
                  items_cpu_s={it.name: s for it, s in zip(items, raw)}, spans=spans.records)
    if args.trace:
        detail["top_functions"] = profile.top_functions()
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for line in sorted(set(failures)) + problems:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
