"""Warm per-layer timings of the certify path against n.

    python3 tools/layers.py                         # n = 4 6 8 9 16 32, JSON to stdout
    python3 tools/layers.py --n 4 8 --out layers.json
    python3 tools/layers.py --tree OTHER_CHECKOUT   # time another tree's library

For each n, builds ``random_datum(n, default_rng(1), "trivial")``, draws 8
samples with ``sample_lambda(R, default_rng(1), 8)`` and times, in this one
process with one BLAS thread, the median of warm calls (microseconds) of:

- ``check_system``: the whole report of the 8 samples;
- ``global_half``: the global residual of each of the 8 stencils, as
  :func:`~dynrmat.verifier.check_system` takes it;
- ``equations``: the sixteen component equations of the 8 stencils;
- ``peaks``: the largest residual of each equation and sample, and where;
- ``check_invertibility``: the determinants at the 8 samples;
- ``stacked_tables``: a warm read of the 8 stencils' tables, as
  ``check_system`` reads them, and ``stacked_tables_point``: a warm read
  at one sample, as ``check_invertibility`` reads it;
- ``unit_scale``: the determinant factors of one sample, one array, and
  ``unit_scale_columns``: the 8 stencils' tables, a column each.

A layer whose function the tree lacks reads null.  Uses numpy and the
tree's own library only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (4, 6, 8, 9, 16, 32)
SAMPLES = 8
#: each timed repeat runs about this long
REPEAT_S = 0.02


def median_us(call, make_args=None, repeat: int = 15) -> float:
    """Median over ``repeat`` timed batches of the time of one call, in µs;
    ``make_args()`` gives each call's arguments, made before its batch."""
    make_args = make_args or tuple
    t0 = time.perf_counter()
    call(*make_args())
    number = max(1, int(REPEAT_S / max(time.perf_counter() - t0, 1e-7)))
    times = []
    for _ in range(repeat):
        batch = [make_args() for _ in range(number)]
        t0 = time.perf_counter()
        for args in batch:
            call(*args)
        times.append((time.perf_counter() - t0) / number)
    return 1e6 * statistics.median(times)


def layers(n: int, repeat: int) -> dict:
    import numpy as np
    import dynrmat as dr
    from dynrmat import rmatrix, verifier

    R = dr.build(*dr.random_datum(n, np.random.default_rng(1), "trivial"))
    samples = verifier.sample_lambda(R, np.random.default_rng(1), SAMPLES)
    stencils = rmatrix.stencil_points(np.array(samples)).reshape(-1, n)
    delta, d = R.stacked_tables(stencils)
    table = np.concatenate([delta.reshape(SAMPLES, -1).T, d.reshape(SAMPLES, -1).T])
    scaled = table.copy()
    ks, _ = rmatrix.unit_scale(scaled, axis=0)
    values = verifier._equation_values(scaled, n)
    factors = np.concatenate([t.ravel() for t in R.tables(samples[0])]).take(
        verifier._factor_positions(n))
    peaks = getattr(verifier, "_family_peaks", None)
    layout = verifier._equation_layout(n)

    def global_half():
        for s, k in enumerate(ks):
            verifier._global_residual(np.ascontiguousarray(scaled[:, s]), n, k)

    def invertibility():
        for lam in samples:
            verifier.check_invertibility(R, lam)

    timed = {
        "check_system": (lambda: verifier.check_system(R, samples), None),
        "global_half": (global_half, None),
        "equations": (lambda: verifier._equation_values(scaled, n), None),
        "peaks": (peaks and (lambda: peaks(values, layout)), None),
        "check_invertibility": (invertibility, None),
        "stacked_tables": (lambda: R.stacked_tables(stencils), None),
        "stacked_tables_point": (lambda: R.stacked_tables(samples[0][None]), None),
        "unit_scale": (rmatrix.unit_scale, lambda: (factors.copy(),)),
        "unit_scale_columns": (lambda T: rmatrix.unit_scale(T, axis=0), lambda: (table.copy(),)),
    }
    R.stacked_tables(stencils)  # the memo keeps the stencils, as after sample_lambda
    return {name: call and round(median_us(call, make_args, repeat), 2)
            for name, (call, make_args) in timed.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", nargs="+", type=int, default=list(SIZES))
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--tree", default=ROOT, help="checkout whose src/ is timed")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.tree), "src"))
    import dynrmat
    import numpy as np

    by_layer: dict = {}
    for n in args.n:
        for name, value in layers(n, args.repeat).items():
            by_layer.setdefault(name, {})[str(n)] = value
    result = {
        "unit": "us",
        "library": os.path.dirname(os.path.abspath(dynrmat.__file__)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "samples": SAMPLES,
        "repeat": args.repeat,
        "layers": by_layer,
    }
    text = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
