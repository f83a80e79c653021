"""Compare the benchmark items' outputs and table calls between two trees.

    python3 tools/item_keys.py PARENT CHANGE
    python3 tools/item_keys.py PARENT CHANGE --workloads certify --seeds 1

For each tree, in its own process (``PYTHONPATH=<tree>/src:<tree>/bench``,
``PYTHONHASHSEED=0``, one BLAS thread, run from the tree's root), builds
every item of the chosen workloads of ``bench/workloads.py`` at each seed
and runs each item twice.  From the second run it records
``repr(item.key(out))`` (or the exception an item raised) and the number
of ``dynrmat.rmatrix.raw_tables`` calls, counted through every
``dynrmat`` module that imports it.  Prints the item and call counts of
each tree and the first differences; exits 1 on any difference, 0 when
every item agrees.  Uses the standard library only; the trees' own
Python packages are imported in the child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("certify", "classify_roundtrip", "cli_configs")
SHOWN = 5


def collect(workloads: list[str], seeds: list[int]) -> list[list]:
    """[workload, seed, index, name, key, calls] of every item, in this
    process; the tree comes from ``sys.path``."""
    import dynrmat.rmatrix
    import workloads as bench

    original = dynrmat.rmatrix.raw_tables
    calls = [0]

    def counted(R, lams):
        calls[0] += 1
        return original(R, lams)

    for name, module in list(sys.modules.items()):
        if name.startswith("dynrmat") and getattr(module, "raw_tables", None) is original:
            module.raw_tables = counted
    out = []
    for workload in workloads:
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix=f"item-keys-{workload}-")
            try:
                for idx, item in enumerate(bench.WORKLOADS[workload](seed, workdir)):
                    for _ in range(2):
                        calls[0] = 0
                        try:
                            key = repr(item.key(item.run()))
                        except Exception as exc:  # an item that raises is compared by its error
                            key = f"raised {type(exc).__name__}: {exc}"
                    out.append([workload, seed, idx, item.name, key, calls[0]])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    return out


def run_tree(tree: str, workloads: list[str], seeds: list[int]) -> list[list]:
    tree = os.path.abspath(tree)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([os.path.join(tree, "src"), os.path.join(tree, "bench")]),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    cmd = [sys.executable, os.path.abspath(__file__), "--collect",
           "--workloads", *workloads, "--seeds", *map(str, seeds)]
    done = subprocess.run(cmd, env=env, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"item_keys: collecting in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def compare(old: list[list], new: list[list]) -> list[str]:
    """One line per item whose key or call count differs, or that only one
    tree has."""
    a = {tuple(r[:4]): r[4:] for r in old}
    b = {tuple(r[:4]): r[4:] for r in new}
    lines = []
    for item in list(a) + [item for item in b if item not in a]:
        if item not in a or item not in b:
            lines.append(f"{item}: only in the {'first' if item in a else 'second'} tree")
            continue
        (key_a, calls_a), (key_b, calls_b) = a[item], b[item]
        parts = []
        if calls_a != calls_b:
            parts.append(f"raw_tables calls {calls_a} != {calls_b}")
        if key_a != key_b:
            k = next((k for k, (x, y) in enumerate(zip(key_a, key_b)) if x != y),
                     min(len(key_a), len(key_b)))
            parts.append(f"keys differ from character {k}: "
                         f"{key_a[k:k + 40]!r} != {key_b[k:k + 40]!r}")
        if parts:
            lines.append(f"{item}: {'; '.join(parts)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="TREE")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        print(json.dumps(collect(args.workloads, args.seeds)))
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees: PARENT CHANGE")
    records = [run_tree(tree, args.workloads, args.seeds) for tree in args.trees]
    for tree, rows in zip(args.trees, records):
        per = {w: sum(r[0] == w for r in rows) for w in args.workloads}
        print(f"{tree}: {len(rows)} items ({', '.join(f'{w} {k}' for w, k in per.items())}), "
              f"{sum(r[5] for r in rows)} raw_tables calls")
    diffs = compare(*records)
    for line in diffs[:SHOWN]:
        print(line)
    print(f"{len(diffs)} of {len(records[0])} items differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
