"""Warm per-layer timings of the build, certify and classify paths against n.

    python3 tools/layers.py                         # n = 4 6 8 9 16 32, JSON to stdout
    python3 tools/layers.py --n 4 8 --out layers.json
    python3 tools/layers.py --tree OTHER_CHECKOUT   # time another tree's library

For each n, builds ``random_datum(n, default_rng(1), "trivial")``, draws 8
samples with ``sample_lambda(R, default_rng(1), 8)`` and times, in this one
process with one BLAS thread, warm calls (microseconds, the minimum over
timed batches of each batch's mean; the JSON's ``statistic``) of:

- ``build``: the closed-form matrix of the datum;
- ``validate_params``: the checks of the datum;
- ``sample_lambda``: the 8 samples, each call on a matrix built fresh
  before its batch, so that no table memo serves it;
- ``check_system``: the whole report of the 8 samples;
- ``global_half``: the global residual of each of the 8 stencils, as
  :func:`~dynrmat.verifier.check_system` takes it: the defect's sides of
  the 8 stencils, then each stencil's normalization;
- ``residual_one_stencil``: the global residual at one sample alone, by
  :func:`~dynrmat.verifier.dqybe_residual_normalized`, as a CLI transform
  reads it;
- ``equation_peaks``: the per-tag peak step of the 8 stencils, the
  largest |left - right| of each equation and stencil, read off the
  entries of each pass of their sides;
- ``check_invertibility``: the determinants at the 8 samples;
- ``stacked_tables``: a warm read of the 8 stencils' tables, as
  ``check_system`` reads them, and ``stacked_tables_point``: a warm read
  at one sample, as ``check_invertibility`` reads it;
- ``unit_scale``: the determinant factors of one sample, one array, and
  ``unit_scale_columns``: the 8 stencils' tables, a column each;
- ``classify``: the structure of the matrix, at its default samples;
- its stages one at a time, each on the output of the one before, at
  those samples: ``detect_relations``, ``build_equivalences``,
  ``incidence_matrices``, ``check_propagation``, ``triangularize`` and
  ``block_structure``;
- ``recover_params``: the datum, from that structure;
- ``hecke_classify``: the spectral verdict, at its default samples.

A layer whose function the tree lacks reads null.  Beside the layers, the
JSON's ``check_system_minor_faults`` holds, per n, the minor page faults
per warm ``check_system`` call, read from this process's
``resource.getrusage`` over 20 calls: pages that the call's memory had to
be given anew.  ``loadavg`` holds the machine's 1, 5 and 15 minute load
averages (``os.getloadavg()``) before and after the timings: a load near
or above the CPU count marks a run whose minima other work may have
raised.  Uses numpy and the tree's own library only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (4, 6, 8, 9, 16, 32)
SAMPLES = 8
#: each timed repeat runs about this long
REPEAT_S = 0.02


def min_us(call, make_args=None, repeat: int = 15) -> float:
    """Minimum over ``repeat`` timed batches of the mean time of one call,
    in µs; ``make_args()`` gives each call's arguments, made before its
    batch.  Other load on the machine only slows a batch down, so the
    minimum is the statistic that holds still."""
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
    return 1e6 * min(times)


def minor_faults(call, calls: int = 20) -> float:
    """Minor page faults of this process per warm call of ``call``."""
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def layers(n: int, repeat: int) -> tuple[dict, float]:
    import numpy as np
    import dynrmat as dr
    from dynrmat import classifier, hecke, params, rmatrix, verifier

    datum = dr.random_datum(n, np.random.default_rng(1), "trivial")
    R = dr.build(*datum)
    samples = verifier.sample_lambda(R, np.random.default_rng(1), SAMPLES)
    stencils = rmatrix.stencil_points(np.array(samples)).reshape(-1, n)
    delta, d = R.stacked_tables(stencils)
    table = np.concatenate([delta.reshape(SAMPLES, -1).T, d.reshape(SAMPLES, -1).T])
    scaled = table.copy()
    ks, _ = rmatrix.unit_scale(scaled, axis=0)
    factors = np.concatenate([t.ravel() for t in R.tables(samples[0])]).take(
        verifier._factor_positions(n))
    structure = classifier.classify(R)
    # classify's own samples and stages
    cls_samples = verifier.sample_lambda(R, np.random.default_rng(0), classifier.DEFAULT_SAMPLES,
                                         stencil=False)
    rel = classifier.detect_relations(R, cls_samples)
    delta_classes = classifier.build_equivalences(rel, n)["delta_classes"]
    M, M_R = classifier.incidence_matrices(rel, delta_classes, n)
    sigma, _ = classifier.triangularize(M_R)

    defects = getattr(verifier, "_defects", None)
    peaks = getattr(verifier, "_equation_peaks", None)
    passes = peaks and [mags for _, mags, _ in verifier._side_passes(scaled, n)]
    layout = verifier._equation_layout(n)

    def global_half():
        raws, scales = (v.tolist() for v in defects(scaled, n))
        for s, k in enumerate(ks):
            verifier._global_residual(raws[s], scales[s], k)

    def invertibility():
        for lam in samples:
            verifier.check_invertibility(R, lam)

    timed = {
        "build": (lambda: dr.build(*datum), None),
        "validate_params": (lambda: params.validate_params(datum[1]), None),
        "sample_lambda": (lambda R, rng: verifier.sample_lambda(R, rng, SAMPLES),
                          lambda: (dr.build(*datum), np.random.default_rng(1))),
        "check_system": (lambda: verifier.check_system(R, samples), None),
        "global_half": (defects and global_half, None),
        "residual_one_stencil": (lambda: verifier.dqybe_residual_normalized(R, samples[0]), None),
        "equation_peaks": (peaks and (lambda: [peaks(mags, layout) for mags in passes]), None),
        "check_invertibility": (invertibility, None),
        "stacked_tables": (lambda: R.stacked_tables(stencils), None),
        "stacked_tables_point": (lambda: R.stacked_tables(samples[0][None]), None),
        "unit_scale": (rmatrix.unit_scale, lambda: (factors.copy(),)),
        "unit_scale_columns": (lambda T: rmatrix.unit_scale(T, axis=0), lambda: (table.copy(),)),
        "classify": (lambda: classifier.classify(R), None),
        "detect_relations": (lambda: classifier.detect_relations(R, cls_samples), None),
        "build_equivalences": (lambda: classifier.build_equivalences(rel, n), None),
        "incidence_matrices": (lambda: classifier.incidence_matrices(rel, delta_classes, n), None),
        "check_propagation": (lambda: classifier.check_propagation(M), None),
        "triangularize": (lambda: classifier.triangularize(M_R), None),
        "block_structure": (lambda: classifier.block_structure(M_R, sigma), None),
        "recover_params": (lambda: classifier.recover_params(R, structure), None),
        "hecke_classify": (lambda: hecke.hecke_classify(R), None),
    }
    R.stacked_tables(stencils)  # the memo keeps the stencils, as after sample_lambda
    us = {name: call and round(min_us(call, make_args, repeat), 2)
          for name, (call, make_args) in timed.items()}
    return us, minor_faults(timed["check_system"][0])


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
    faults: dict = {}
    before = os.getloadavg()
    for n in args.n:
        us, faults[str(n)] = layers(n, args.repeat)
        for name, value in us.items():
            by_layer.setdefault(name, {})[str(n)] = value
    result = {
        "unit": "us",
        "statistic": "min",
        "library": os.path.dirname(os.path.abspath(dynrmat.__file__)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "samples": SAMPLES,
        "repeat": args.repeat,
        "layers": by_layer,
        "check_system_minor_faults": faults,
        "loadavg": {"before": list(before), "after": list(os.getloadavg())},
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
