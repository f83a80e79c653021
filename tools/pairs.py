"""Paired benchmark runs of a parent tree and a change tree.

    python3 tools/pairs.py PARENT CHANGE --pairs 10 --seconds 20 --out BENCH_<date>.json
    python3 tools/pairs.py PARENT CHANGE --workloads certify cli_configs --pairs 4

Each pair runs ``bench/run.py --trace 0`` of both trees, each tree's own
benchmark on its own library, one after the other; the tree that goes
first alternates from pair to pair (the parent first in pair 1).  Per
workload and end-to-end metric, the JSON result holds both trees' values,
their medians and quartiles, the relative change of the medians, the
number of pairs in which the change was better, and whether the gap
between the medians exceeds the parent's interquartile range.  A run that
fails, or that reports ``correct: false`` or failed operations, is kept
and counted.  Beside ``peak_rss_mb`` it records, for each tree, the
``tracemalloc`` peak of one warm round of every item at the seed: memory
that the program allocates, which heap placement does not move.  Each
tree is named by its directory's name and, when it is a git checkout, by its commit,
the git tree hash of its ``src/`` at that commit, and whether its files
differ from that commit.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("certify", "classify_roundtrip", "cli_configs")


def git(tree: str, *args: str):
    """Stripped stdout of ``git args`` in ``tree``, or None."""
    try:
        done = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe(tree: str) -> dict:
    name = os.path.basename(tree)
    if git(tree, "rev-parse", "--show-toplevel") != tree:
        return {"name": name, "commit": None, "src_tree": None, "modified": None}
    status = git(tree, "status", "--porcelain")
    return {"name": name, "commit": git(tree, "rev-parse", "HEAD"),
            "src_tree": git(tree, "rev-parse", "HEAD:src"),
            "modified": None if status is None else bool(status)}


def bench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py`` run: its result line and its uncorrected figures."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    out = {"exit": done.returncode}
    lines = done.stdout.splitlines()
    if lines and lines[-1].startswith("{"):
        out["result"] = json.loads(lines[-1])
    for line in done.stderr.splitlines():
        if line.startswith('{"uncorrected"'):
            out.update(json.loads(line))
    return out


def warm_peak_kib(workload: str, seed: int) -> float:
    """The ``tracemalloc`` peak of one round of every item after a warm-up
    round, in KiB, in this process; the tree comes from ``sys.path``."""
    import tracemalloc

    import workloads as bench_workloads

    workdir = tempfile.mkdtemp(prefix=f"pairs-{workload}-")
    try:
        items = bench_workloads.WORKLOADS[workload](seed, workdir)

        def round_of_items():
            for item in items:
                try:
                    item.run()
                except (item.fault,) if item.fault else ():  # a known program fault
                    pass

        round_of_items()
        tracemalloc.start()
        round_of_items()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return peak / 1024


def run_warm_peak(tree: str, workload: str, seed: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "bench")]),
        PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--warm-peak", workload, str(seed)]
    done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"pairs: the tracemalloc round in {tree} failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per metric: both trees' spreads, the change of the medians, the
    pairs the change won, and whether the gap exceeds the parent's IQR."""
    ok = [r for r in runs if all("result" in side for side in r["runs"].values())]
    out = {}
    for name, direction in better.items() if ok else ():
        parent = [r["runs"]["parent"]["result"]["metrics"][name]["value"] for r in ok]
        change = [r["runs"]["change"]["result"]["metrics"][name]["value"] for r in ok]
        sign = 1 if direction == "higher" else -1
        p, c = spread(parent), spread(change)
        out[name] = {
            "better": direction, "parent": p, "change": c,
            "median_change": (c["median"] - p["median"]) / p["median"],
            "change_won": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(ok),
            "gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="TREE")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=["certify"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    ap.add_argument("--warm-peak", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.warm_peak:
        print(warm_peak_kib(args.warm_peak[0], int(args.warm_peak[1])))
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees: PARENT CHANGE")
    trees = dict(zip(("parent", "change"), map(os.path.abspath, args.trees)))
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    result = {
        "date": datetime.date.today().isoformat(),
        "trees": {side: describe(tree) for side, tree in trees.items()},
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {side: bench(trees[side], workload, args.seed, args.seconds) for side in order}
            runs.append({"first": order[0], "runs": pair})
            print(f"{workload}: pair {k + 1} of {args.pairs} done", file=sys.stderr)
        faults = [f"pair {k + 1} {side}" for k, r in enumerate(runs)
                  for side, run in r["runs"].items()
                  if run["exit"] or not run.get("result", {}).get("correct")
                  or run.get("result", {}).get("failed")]
        result["workloads"][workload] = {
            "metrics": summarize(runs, better),
            "tracemalloc_peak_kib": {side: run_warm_peak(tree, workload, args.seed)
                                     for side, tree in trees.items()},
            "faulty_runs": faults,
            "runs": runs,
        }
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
