"""Spread study: run one workload once per seed and summarize each metric.

    python3 bench/spread.py --workload certify --seeds 1-10 [--seconds 20]

Prints one line per run, then per end-to-end metric its median, first and
third quartiles (statistics.quantiles, n=4) and (Q3 - Q1) / median, for
the corrected values on stdout's result line and for the uncorrected
values the worker prints on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def summary(name: str, values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{name:14s} median {med:12.4f}  Q1 {q1:12.4f}  Q3 {q3:12.4f}  spread {(q3 - q1) / med:.4f}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    corrected, raw, shares = {}, {}, set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        unc = next(json.loads(line)["uncorrected"] for line in proc.stderr.splitlines()
                   if line.startswith('{"uncorrected"'))
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            corrected.setdefault(k, []).append(v["value"])
            if k in unc:
                raw.setdefault(k, []).append(unc[k])
    print("corrected:")
    for k, v in corrected.items():
        print("  " + summary(k, v))
    print("uncorrected:")
    for k, v in raw.items():
        print("  " + summary(k, v))
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
