"""Benchmark of dynrmat: certify, classify round-trip and CLI configs.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh worker process with a pinned environment
(BLAS_THREADS BLAS threads, hash seed 0, no bytecode writing) against the
library in ``src/`` of this checkout, and relays its output; the last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from the span trace with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("certify", "classify_roundtrip", "cli_configs")
DEFAULT_SEED = 1
BLAS_THREADS = "1"
TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dynrmat", "__init__.py")):
        print(f"bench: no dynrmat sources under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({
        "PYTHONPATH": src,
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
