"""Per-entry statistics of the classifier and Hecke stages, kept as the
reference that the whole-stack reductions are tested against.

Each function reads one entry's samples at a time as a 1-D column, with
numpy reductions on that column and element reads inside Python loops:
:func:`detect_relations` as :func:`dynrmat.classifier.detect_relations`,
:func:`pair_constants` as the factory ``dynrmat.classifier._pair_constants``
and :func:`planes` as ``dynrmat.hecke._planes``, with the same signatures,
results and first error.

:func:`first_fit_verdict` is the verdict of ``dynrmat.hecke.hecke_classify``
on :func:`planes`' results, taken one value at a time in Python loops, and
:func:`assert_matches_first_fit` checks a ``HeckeReport`` against it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dynrmat.classifier import MIN_SAMPLES, RECOVER_TOL, RelationReport
from dynrmat.errors import AmbiguityError, NotInFamilyError
from dynrmat.params import principal_sqrt
from dynrmat.rmatrix import DynamicalRMatrix, pair_invariants

from system_oracle import at_unit_scale


def detect_relations(R: DynamicalRMatrix, samples: Sequence[np.ndarray],
                     tol: float) -> RelationReport:
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"at least {MIN_SAMPLES} samples are required")
    n = R.n
    delta_mag, d_mag = map(np.abs, R.stacked_tables(np.asarray(samples, dtype=complex)))
    scale = max(float(delta_mag.max()), float(d_mag.max()))
    if scale == 0:
        raise NotInFamilyError("matrix is identically zero at all samples")
    cut = tol * scale

    def classify(mag_max: float, mag_min: float, what: str) -> bool:
        if mag_max < cut:
            return True
        if mag_min < cut and mag_max < 1e3 * cut:
            raise AmbiguityError(
                f"{what} is below threshold at some samples but never far "
                "above it; add samples or move them"
            )
        return False

    delta_zero: set[tuple[int, int]] = set()
    d_zero_ordered: set[tuple[int, int]] = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            col = delta_mag[:, i - 1, j - 1]
            if classify(float(col.max()), float(col.min()), f"Delta_{i}{j}"):
                delta_zero.add((i, j))
            if i != j:
                col = d_mag[:, i - 1, j - 1]
                if classify(float(col.max()), float(col.min()), f"d_{i}{j}"):
                    d_zero_ordered.add((i, j))
    d_zero = {(i, j) for (i, j) in d_zero_ordered if i < j and (j, i) in d_zero_ordered}
    return RelationReport(d_zero=d_zero, delta_zero=delta_zero,
                          d_zero_ordered=d_zero_ordered, scale=scale)


def pair_constants(sum_st: np.ndarray, det_st: np.ndarray):
    def constants(i0: int, j0: int) -> tuple[complex, complex]:
        i, j = min(i0, j0) - 1, max(i0, j0) - 1
        sums, dets = sum_st[:, i, j], det_st[:, i, j]
        # max(|S|, sqrt|Sigma|): c times that of R for c R
        scale = max(float(np.abs(sums).max()), math.sqrt(float(np.abs(dets).max())))
        if (
            np.abs(sums - sums.mean()).max() > RECOVER_TOL * scale
            or np.abs(dets - dets.mean()).max() > RECOVER_TOL * scale * scale
        ):
            raise NotInFamilyError(f"pair invariants of ({i0},{j0}) vary across samples")
        return complex(sums.mean()), complex(dets.mean())

    return constants


def planes(delta_st: np.ndarray, d_st: np.ndarray, lim: float, scale: float):
    n = delta_st.shape[1]

    def constant(col: np.ndarray, lim: float = lim) -> tuple[complex, bool]:
        mean = col.mean()
        return complex(mean), bool(np.abs(col - mean).max() > lim)

    diag = {}
    for i in range(n):
        diag[i + 1], varies = constant(delta_st[:, i, i])
        if varies:
            raise NotInFamilyError(f"Delta_{i + 1}{i + 1} varies with the dynamical point")
    sums, dets = pair_invariants(delta_st, d_st)
    off = np.abs(d_st).max(axis=0)
    off = np.maximum(off, off.T)
    skew = np.abs(delta_st - np.swapaxes(delta_st, 1, 2)).max(axis=0)
    pair_eigs, pair_diagonalizable = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            s, s_varies = constant(sums[:, i, j])
            det, det_varies = constant(dets[:, i, j], lim * scale)
            for what, varies in (("pair sum", s_varies), ("pair determinant", det_varies)):
                if varies:
                    raise NotInFamilyError(
                        f"{what} ({i + 1},{j + 1}) varies with the dynamical point")
            disc = principal_sqrt(s * s + 4 * det)
            scalar = bool(off[i, j] <= lim and skew[i, j] <= lim)
            # a scalar block's double root, exactly
            pair_eigs[(i + 1, j + 1)] = (
                (s / 2, s / 2) if scalar else ((s + disc) / 2, (s - disc) / 2))
            pair_diagonalizable[(i + 1, j + 1)] = scalar if abs(disc) <= lim else True
    return diag, pair_eigs, pair_diagonalizable, not np.triu(off > lim, 1).any()


def first_fit_verdict(diag: dict, pair_eigs: dict, pair_diagonalizable: dict,
                      d_small: bool, lim: float):
    """The (kind, rho, kappa, eigenvalue clusters, detail) of the spectrum
    that :func:`planes` returns at threshold ``lim``: the clusters are None
    where the report has none.  Eigenvalues within 1e4 * lim of a
    cluster's first value join the earliest such cluster."""
    n = len(diag)
    if n == 1 or (n > 1 and d_small):
        delta = diag[1]
        uniform = all(abs(diag[i] - delta) <= 1e4 * lim for i in diag) and all(
            abs(e1 - delta) <= 1e4 * lim and abs(e2 - delta) <= 1e4 * lim
            for (e1, e2) in pair_eigs.values()
        )
        if uniform:
            return ("DegenerateSingleDClass", delta, -delta, None,
                    "single d-class: minimal polynomial has degree one")

    values: list[complex] = list(diag.values())
    for e1, e2 in pair_eigs.values():
        values.extend((e1, e2))
    clusters: list[list[complex]] = []
    for v in values:
        for cl in clusters:
            if abs(v - cl[0]) <= 1e4 * lim:
                cl.append(v)
                break
        else:
            clusters.append([v])
    centers = [complex(np.mean(cl)) for cl in clusters]

    if len(centers) != 2:
        return ("NotHecke", None, None, centers,
                f"{len(centers)} distinct eigenvalue(s), need exactly 2")
    if not all(pair_diagonalizable.values()):
        bad = [p for p, okd in pair_diagonalizable.items() if not okd]
        return ("NotHecke", None, None, centers,
                f"non-diagonalizable repeated-eigenvalue plane(s) {bad}")

    def near(a: complex, b: complex) -> bool:
        return abs(a - b) <= 1e4 * lim

    e1, e2 = centers
    on_e1 = [i for i, v in diag.items() if near(v, e1)]
    on_e2 = [i for i, v in diag.items() if not near(v, e1)]
    if len(on_e2) > len(on_e1) or (len(on_e2) == len(on_e1) and min(on_e2) < min(on_e1)):
        e1, e2 = e2, e1
    rho, kappa = e1, -e2
    hecke = not (on_e1 and on_e2)
    if hecke:
        for f1, f2 in pair_eigs.values():
            if not ((near(f1, rho) and near(f2, -kappa))
                    or (near(f1, -kappa) and near(f2, rho))):
                hecke = False
                break
    if rho == 0 or kappa == 0 or near(rho, -kappa):
        return ("NotHecke", None, None, centers, "degenerate parameters (rho, kappa)")
    return ("Hecke" if hecke else "WeakHecke", rho, kappa, centers, "")


def assert_matches_first_fit(R: DynamicalRMatrix, tol: float, report) -> None:
    """``report``, the result of ``hecke_classify(R, tol=tol)``, is the
    per-value verdict on the per-entry spectrum at its own samples, to the
    last bit."""
    # every value is read at unit scale, times 2^k, and scaled back by 2^-k
    k, scale, (delta_st, d_st) = at_unit_scale(
        *R.stacked_tables(np.array(report.lambda_samples, dtype=complex)))
    back = math.ldexp(1.0, -k)
    lim = tol * scale
    diag, pair_eigs, *rest = planes(delta_st, d_st, lim, scale)
    kind, rho, kappa, clusters, detail = first_fit_verdict(diag, pair_eigs, *rest, lim)
    rho, kappa = (None if v is None else v * back for v in (rho, kappa))
    evidence = {"diagonal": {i: v * back for i, v in diag.items()},
                "pair_eigenvalues": {p: (a * back, b * back) for p, (a, b) in pair_eigs.items()},
                "scale": scale * back}
    if clusters is not None:
        evidence["eigenvalue_clusters"] = [v * back for v in clusters]
    assert repr((report.kind, report.rho, report.kappa, report.evidence, report.detail)) == repr(
        (kind, rho, kappa, evidence, detail))
