"""One benchmark run of one workload, in its own process (started by run.py).

Phases: imports; set-up (input generation and config writing, repeated
SETUP_REPEATS times, then one warm-up pass over every item); the
benchmark's own correctness checks on the warm-up outputs (not timed);
the timed phase, which runs whole rounds of every item, interleaved
round-robin, until ``--seconds`` have passed and at least
MIN_OPS[workload] operations were made.  Every timed output must equal the
warm-up output of the same item.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import dynrmat  # noqa: E402
import workloads  # noqa: E402

T_IMPORTED = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 3
#: minimum operations per run; with it the tail percentile below keeps at
#: least ten operations beyond it
MIN_OPS = {"certify": 57, "classify_roundtrip": 102, "cli_configs": 200}
TAIL = {"certify": 80, "classify_roundtrip": 90, "cli_configs": 95}

END_TO_END_UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# The machine's speed drifts by +-20 % over tens of seconds (other tenants
# share the cores), which moves every timing of a run together.  A fixed
# probe -- a Python loop, small numpy operations and one BLAS product, the
# kinds of work the library does -- is timed before every operation, and
# each operation's latency is scaled by PROBE_REF_S over the median probe
# time around it: times are reported at the machine speed at which the
# probe takes PROBE_REF_S.  The probe never calls the library.
PROBE_REF_S = 5.0e-3
PROBE_WINDOW = 4
_PROBE_RNG = np.random.default_rng(0)
_PROBE_BIG = _PROBE_RNG.standard_normal((256, 256)) + 1j * _PROBE_RNG.standard_normal((256, 256))
_PROBE_SMALL = _PROBE_RNG.standard_normal((12, 12)) + 1j * _PROBE_RNG.standard_normal((12, 12))


def probe() -> float:
    t0 = time.perf_counter()
    acc, seen = 0j, {}
    for i in range(1200):
        z = complex(i, 1.0)
        acc += z * z / (z + 1.0)
        seen[i % 17] = acc
    small = _PROBE_SMALL
    for _ in range(40):
        small = small / float(np.abs(small).max()) + _PROBE_SMALL
    _PROBE_BIG @ _PROBE_BIG
    return time.perf_counter() - t0


def speed_factors(probes: list, count: int) -> list:
    """Per operation: PROBE_REF_S over the median of the probes within
    PROBE_WINDOW positions (probe k runs just before operation k)."""
    out = []
    for k in range(count):
        window = probes[max(0, k - PROBE_WINDOW + 1): k + PROBE_WINDOW + 1]
        out.append(PROBE_REF_S / statistics.median(window))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(dynrmat.__file__).startswith(src + os.sep):
        print(f"dynrmat imported from {dynrmat.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    make_items = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return _run(args, make_items, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, make_items, workdir, tracer) -> int:
    gen_times = []
    if tracer:
        tracer.phase = "setup"
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = make_items(args.seed, workdir)
        gen_times.append(time.perf_counter() - t0)
    if tracer:
        tracer.phase = None

    correct = True
    faults = [(it.fault,) if it.fault else () for it in items]

    def run_one(k):
        nonlocal correct
        item = items[k]
        t0 = time.perf_counter()
        try:
            out = item.run()
        except faults[k]:
            return None, time.perf_counter() - t0, True
        except Exception:  # an unexpected failure: counted, reported, not correct
            correct = False
            print(f"operation failed: {item.name}", file=sys.stderr)
            traceback.print_exc()
            return None, time.perf_counter() - t0, True
        return out, time.perf_counter() - t0, False

    # warm-up: every item once, each after one probe
    warm_time = 0.0
    warm_keys, warm_probes = [], []
    for k, item in enumerate(items):
        warm_probes.append(probe())
        out, dt, failed = run_one(k)
        warm_time += dt
        if failed:
            warm_keys.append(None)
            continue
        try:
            item.check(out)
        except AssertionError as exc:
            correct = False
            print(f"check failed: {item.name}: {exc}", file=sys.stderr)
        warm_keys.append(item.key(out))
    setup_raw = (T_IMPORTED - T_START) + statistics.median(gen_times) + warm_time

    # timed phase: whole rounds, round-robin over the items, a probe before each
    min_ops = MIN_OPS[args.workload]
    latencies, probes, done = [], [], []
    if tracer:
        tracer.phase = "timed"
    t_begin = time.perf_counter()
    while True:
        for k, item in enumerate(items):
            probes.append(probe())  # calls no library function, so records no span
            if tracer:
                tracer.item = f"{len(latencies)}:{item.name}"
            out, dt, fail = run_one(k)
            if tracer:
                tracer.end_item()
            latencies.append(dt)
            done.append(not fail)
            if not fail and item.key(out) != warm_keys[k]:
                correct = False
                print(f"output changed between rounds: {item.name}", file=sys.stderr)
        elapsed = time.perf_counter() - t_begin
        if elapsed >= args.seconds and len(latencies) >= min_ops:
            break
    if tracer:
        tracer.phase = None
    probes.append(probe())
    attempted, failed = len(latencies), done.count(False)

    def end_to_end(lat, setup):
        ms = sorted(1000.0 * v for v, ok in zip(lat, done) if ok)
        return {
            "items_per_s": (attempted - failed) / sum(lat),
            "item_p50_ms": statistics.median(ms),
            "item_tail_ms": percentile(ms, TAIL[args.workload]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup,
        }

    speed = speed_factors(probes, attempted)
    values = end_to_end([dt * f for dt, f in zip(latencies, speed)],
                        setup_raw * PROBE_REF_S / statistics.median(warm_probes))
    uncorrected = dict(end_to_end(latencies, setup_raw),
                       probe_median_ms=1000 * statistics.median(probes), elapsed_s=elapsed)
    print(json.dumps({"uncorrected": uncorrected}), file=sys.stderr)
    if tracer:
        from spans import unit
        metrics = tracer.metrics(attempted, SETUP_REPEATS)
        result = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
        stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
        tracer.write(stem + ".jsonl")
        with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "attempted": attempted,
                       "failed": failed, "spans": len(tracer.spans),
                       "traced_end_to_end": values, "uncorrected": uncorrected,
                       "per_layer": metrics}, fh, indent=2)
    else:
        result = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and fail the run without printing a result
        traceback.print_exc()
        sys.exit(1)
