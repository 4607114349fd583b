#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's median,
quartiles and spread (inter-quartile distance over median):

    python3 perfbench/steadiness.py --workload serve_unique --seeds 1-10 \
        [--seconds 6] [--trace 0]

Run from the root of a checkout. This is how the table in
perfbench/README.md was made.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seeds)
    ap.add_argument("--seconds", type=int, default=6)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
             "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
            continue
        *_, detail, last = proc.stdout.strip().splitlines()
        result, steal = json.loads(last), json.loads(detail)["host"]["steal_share"]
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']} steal {steal:.3f} took {took:.1f}s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"| metric | unit | runs | median | q1 | q3 | spread |\n|---|---|---|---|---|---|---|")
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = stats.quartiles(vs)
        print(f"| `{name}` | {units[name]} | {len(vs)} | {med:.4g} | {q1:.4g} | {q3:.4g} "
              f"| {stats.spread(vs):.3f} |")


if __name__ == "__main__":
    main()
