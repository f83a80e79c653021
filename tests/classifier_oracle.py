"""Per-entry statistics of the classifier and Hecke stages, kept as the
reference that the whole-stack reductions are tested against.

Each function reads one entry's samples at a time as a 1-D column, with
numpy reductions on that column and element reads inside Python loops:
:func:`detect_relations` as :func:`dynrmat.classifier.detect_relations`,
:func:`pair_constants` as the factory ``dynrmat.classifier._pair_constants``
and :func:`planes` as ``dynrmat.hecke._planes``, with the same signatures,
results and first error.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dynrmat.classifier import MIN_SAMPLES, RECOVER_TOL, RelationReport
from dynrmat.errors import AmbiguityError, NotInFamilyError
from dynrmat.params import principal_sqrt
from dynrmat.rmatrix import DynamicalRMatrix, pair_invariants


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
        scale = max(1.0, float(np.abs(sums).max()), float(np.abs(dets).max()))
        if (
            np.abs(sums - sums.mean()).max() > RECOVER_TOL * scale
            or np.abs(dets - dets.mean()).max() > RECOVER_TOL * scale
        ):
            raise NotInFamilyError(f"pair invariants of ({i0},{j0}) vary across samples")
        return complex(sums.mean()), complex(dets.mean())

    return constants


def planes(delta_st: np.ndarray, d_st: np.ndarray, lim: float):
    n = delta_st.shape[1]

    def constant(col: np.ndarray) -> tuple[complex, bool]:
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
            det, det_varies = constant(dets[:, i, j])
            for what, varies in (("pair sum", s_varies), ("pair determinant", det_varies)):
                if varies:
                    raise NotInFamilyError(
                        f"{what} ({i + 1},{j + 1}) varies with the dynamical point")
            disc = principal_sqrt(s * s + 4 * det)
            pair_eigs[(i + 1, j + 1)] = ((s + disc) / 2, (s - disc) / 2)
            pair_diagonalizable[(i + 1, j + 1)] = (
                bool(off[i, j] <= lim and skew[i, j] <= lim) if abs(disc) <= lim else True
            )
    return diag, pair_eigs, pair_diagonalizable, not np.triu(off > lim, 1).any()
