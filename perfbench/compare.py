#!/usr/bin/env python3
"""Compare a parent and a change on the benchmark, by interleaved pairs.

Run pairs (each pair runs both checkouts on one seed, alternating which
goes first), then report:

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --workload quest-query --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

`run` appends one JSON line per pair to --out.  Pair i runs seed
FIRST_SEED + i for BENCHMARK.json's run_seconds.  `report` prints, per
(metric, workload), both medians and quartiles and the change's win
fraction, then one verdict: improved, no worse within the bound, or
unresolved.  It exits 1 on a regression beyond a metric's bound or when
the change fails a larger share of operations than the parent.

The rule: a metric is improved when the change wins at least 9 of 10
pairs (ties count for neither) and the medians differ by more than the
parent's own quartile spread; it regresses when the change's median is
worse than the parent's by more than the bound in BENCHMARK.json; it is
unresolved when the parent's spread is wider than the bound, unless
every change run beats every parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
FIRST_SEED = 1000


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def cmd_run(args):
    seconds = load_bench(args.bench)["run_seconds"]
    with open(args.out, "a") as out:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            pair = {"workload": args.workload, "seed": seed, "first": order[0][0]}
            for side, checkout in order:
                pair[side] = run_once(checkout, args.workload, seed, seconds)
            out.write(json.dumps(pair) + "\n")
            out.flush()
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)


def load_bench(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, parent, change):
    """One (metric, workload) row: its numbers and its verdict."""
    lower = metric["better"] == "lower"
    bound = metric.get("bound")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / p_med if p_med else 0.0
    p_spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if bound is not None and worse_by > bound and not all_better:
        state = "regression"
    elif bound is not None and p_spread > bound and not all_better:
        state = "unresolved"
    elif win_frac >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1):
        state = "improved"
    else:
        state = "no worse within the bound"
    row = dict(parent=(p_q1, p_med, p_q3), change=(c_q1, c_med, c_q3),
               win_frac=win_frac, worse_by=worse_by, bound=bound, state=state)
    return row


def cmd_report(args):
    bench = load_bench(args.bench)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    pairs = {}
    with open(args.pairs_file) as f:
        for line in f:
            if line.strip():
                p = json.loads(line)
                pairs.setdefault(p["workload"], []).append(p)
    states = []
    failed_worse = False
    for workload, ps in sorted(pairs.items()):
        if len(ps) < MIN_PAIRS:
            print(f"{workload}: only {len(ps)} pairs; need {MIN_PAIRS}", file=sys.stderr)
            states.append("unresolved")
        frac = {side: sum(p[side]["failed"] for p in ps) / max(1, sum(p[side]["attempted"] for p in ps))
                for side in ("parent", "change")}
        print(f"== {workload}: {len(ps)} pairs, failed_frac parent {frac['parent']:.6f} change {frac['change']:.6f}")
        if frac["change"] > frac["parent"] or not all(p["change"]["correct"] for p in ps):
            failed_worse = True
        print(f"{'metric':22s} {'parent q1/med/q3':>36s} {'change q1/med/q3':>36s} {'win':>5s} {'worse':>7s}  verdict")
        for name, metric in metrics.items():
            try:
                parent = [p["parent"]["metrics"][name]["value"] for p in ps]
                change = [p["change"]["metrics"][name]["value"] for p in ps]
            except KeyError:
                continue
            r = verdict(metric, parent, change)
            states.append(r["state"])
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{name:22s} {fmt(r['parent']):>36s} {fmt(r['change']):>36s} "
                  f"{r['win_frac']:5.2f} {r['worse_by']:+7.3f}  {r['state']}")
    if failed_worse:
        print("VERDICT: regression (the change fails more operations)")
        return 1
    if "regression" in states:
        print("VERDICT: regression")
        return 1
    if "unresolved" in states:
        print("VERDICT: unresolved")
    elif "improved" in states:
        print("VERDICT: improved")
    else:
        print("VERDICT: no worse within the bound")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run interleaved parent/change pairs")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--workload", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="verdict from a pairs file")
    p.add_argument("pairs_file")
    args = ap.parse_args()
    if args.cmd == "run":
        if args.pairs < MIN_PAIRS:
            ap.error(f"--pairs must be at least {MIN_PAIRS}")
        cmd_run(args)
        return 0
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
