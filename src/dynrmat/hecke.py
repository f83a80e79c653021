"""Spectral classification of the flip-composed matrix.

After composing with the factor flip, a zero-weight matrix acts as the
scalar Delta_ii on each e_i (x) e_i line and as the 2x2 block
[[Delta_ji, d_ji], [d_ij, Delta_ij]] on each plane span{e_i (x) e_j,
e_j (x) e_i}.  The eigenvalue structure decides the classification:

* ``DegenerateSingleDClass`` -- the whole index set is one d-class; the
  matrix is a multiple of the flip and has the single eigenvalue Delta;
* ``WeakHecke`` -- exactly two distinct eigenvalues {rho, -kappa} occur
  and every block with a repeated eigenvalue is diagonalizable, so the
  minimal polynomial is (X - rho)(X + kappa);
* ``Hecke`` -- additionally rho occurs on every diagonal line and every
  off-diagonal plane carries both eigenvalues;
* ``NotHecke`` -- anything else (e.g. more than two distinct values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .classifier import DEFAULT_SAMPLES, classify, mean_and_spread, recover_params
from .errors import NotInFamilyError
from .params import principal_sqrt
from .rmatrix import DynamicalRMatrix, pair_invariants
from .verifier import _require_positive, sample_lambda

DEFAULT_TOL = 1e-9


@dataclass
class HeckeReport:
    kind: str  # "Hecke" | "WeakHecke" | "DegenerateSingleDClass" | "NotHecke"
    rho: Optional[complex] = None
    kappa: Optional[complex] = None
    evidence: dict = field(default_factory=dict)
    lambda_samples: list = field(default_factory=list)
    detail: str = ""


def _planes(delta_st: np.ndarray, d_st: np.ndarray, lim: float):
    """The spectrum of the flip-composed matrix from (S, n, n) table stacks:
    the diagonal eigenvalues {i: Delta_ii}, the eigenvalue pair of each
    plane {(i, j): (e+, e-)} for i < j, whether each plane is
    diagonalizable, and whether no d_ij with i != j exceeds ``lim``.
    Delta_ii and the per-plane invariants must be constants: the first that
    deviates from its mean over the samples by more than ``lim``, diagonals
    first, then pairs in row-major order with the sum before the
    determinant, is reported."""
    n = delta_st.shape[1]
    diag_mean, diag_spread = mean_and_spread(np.diagonal(delta_st, axis1=1, axis2=2))
    # (n, n, 2): the sum, then the determinant
    pair_mean, pair_spread = mean_and_spread(np.stack(pair_invariants(delta_st, d_st), axis=-1))
    for i, varies in enumerate((diag_spread > lim).tolist(), 1):
        if varies:
            raise NotInFamilyError(f"Delta_{i}{i} varies with the dynamical point")
    # peak |d_ij| or |d_ji|, and peak |Delta_ij - Delta_ji|, over the samples
    off = np.abs(d_st).max(axis=0)
    off = np.maximum(off, off.T)
    skew = np.abs(delta_st - np.swapaxes(delta_st, 1, 2)).max(axis=0)
    # a repeated eigenvalue is diagonalizable iff the block is scalar
    scalar = ((off <= lim) & (skew <= lim)).tolist()
    pair_mean, pair_varies = pair_mean.tolist(), (pair_spread > lim).tolist()
    pair_eigs: dict[tuple[int, int], tuple[complex, complex]] = {}
    pair_diagonalizable: dict[tuple[int, int], bool] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for what, varies in zip(("pair sum", "pair determinant"), pair_varies[i][j]):
                if varies:
                    raise NotInFamilyError(
                        f"{what} ({i + 1},{j + 1}) varies with the dynamical point"
                    )
            s, det = pair_mean[i][j]
            disc = principal_sqrt(s * s + 4 * det)
            pair_eigs[(i + 1, j + 1)] = ((s + disc) / 2, (s - disc) / 2)
            pair_diagonalizable[(i + 1, j + 1)] = scalar[i][j] if abs(disc) <= lim else True
    diag = dict(enumerate(diag_mean.tolist(), 1))
    return diag, pair_eigs, pair_diagonalizable, not bool(np.triu(off > lim, 1).any())


def hecke_classify(
    R: DynamicalRMatrix,
    samples: Optional[Sequence[np.ndarray]] = None,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> HeckeReport:
    """Decide the spectral class of the flip-composed matrix.

    Without ``samples``, ``DEFAULT_SAMPLES`` points are drawn from
    ``seed``; each is checked for poles and the entry cap at that point
    alone, since the analysis reads no shifted point.  ``tol`` must be
    finite and > 0.
    """
    _require_positive("tol", tol)
    n = R.n
    if samples is None:
        rng = np.random.default_rng(seed)
        samples = sample_lambda(R, rng, DEFAULT_SAMPLES, stencil=False)
    delta_st, d_st = R.stacked_tables(np.asarray(samples, dtype=complex))
    scale = max(float(np.abs(delta_st).max()), float(np.abs(d_st).max()))
    lim = tol * max(1.0, scale)

    diag, pair_eigs, pair_diagonalizable, d_small = _planes(delta_st, d_st, lim)
    all_d_zero = n > 1 and d_small

    evidence = {
        "diagonal": diag,
        "pair_eigenvalues": pair_eigs,
        "scale": scale,
    }
    lam_list = [tuple(np.asarray(l, dtype=complex).tolist()) for l in samples]

    if n == 1 or all_d_zero:
        # one d-class covering everything: all diagonal coefficients vanish
        # and every exchange entry equals the same constant, so the
        # flip-composed matrix is that constant times the identity
        delta = diag[1]
        uniform = all(abs(diag[i] - delta) <= lim for i in diag) and all(
            abs(e1 - delta) <= lim and abs(e2 - delta) <= lim
            for (e1, e2) in pair_eigs.values()
        )
        if uniform:
            return HeckeReport(
                kind="DegenerateSingleDClass",
                rho=delta,
                kappa=-delta,
                evidence=evidence,
                lambda_samples=lam_list,
                detail="single d-class: minimal polynomial has degree one",
            )

    # cluster all eigenvalues
    values: list[complex] = list(diag.values())
    for e1, e2 in pair_eigs.values():
        values.extend((e1, e2))
    clusters: list[list[complex]] = []
    eq_tol = max(lim, 1e-12)
    for v in values:
        for cl in clusters:
            if abs(v - cl[0]) <= 1e4 * eq_tol:
                cl.append(v)
                break
        else:
            clusters.append([v])
    centers = [complex(np.mean(cl)) for cl in clusters]
    evidence["eigenvalue_clusters"] = centers

    if len(centers) != 2:
        return HeckeReport(
            kind="NotHecke",
            evidence=evidence,
            lambda_samples=lam_list,
            detail=f"{len(centers)} distinct eigenvalue(s), need exactly 2",
        )
    if not all(pair_diagonalizable.values()):
        bad = [p for p, okd in pair_diagonalizable.items() if not okd]
        return HeckeReport(
            kind="NotHecke",
            evidence=evidence,
            lambda_samples=lam_list,
            detail=f"non-diagonalizable repeated-eigenvalue plane(s) {bad}",
        )

    def near(a: complex, b: complex) -> bool:
        return abs(a - b) <= 1e4 * eq_tol

    e1, e2 = centers
    on_e1 = [i for i, v in diag.items() if near(v, e1)]
    on_e2 = [i for i, v in diag.items() if not near(v, e1)]
    # rho is the eigenvalue carried by more diagonal lines, ties resolved
    # toward the smallest index; -kappa is the other one
    if len(on_e2) > len(on_e1) or (len(on_e2) == len(on_e1) and min(on_e2) < min(on_e1)):
        e1, e2 = e2, e1
    rho, kappa = e1, -e2

    # Hecke: a single eigenvalue on every diagonal line and both
    # eigenvalues on every off-diagonal plane
    hecke = not (on_e1 and on_e2)
    if hecke:
        # either assignment: on the square-root cut the two eigenvalues
        # share a real part, so no ordering of them is stable to one ulp
        for f1, f2 in pair_eigs.values():
            if not ((near(f1, rho) and near(f2, -kappa))
                    or (near(f1, -kappa) and near(f2, rho))):
                hecke = False
                break
    kind = "Hecke" if hecke else "WeakHecke"
    if rho == 0 or kappa == 0 or near(rho, -kappa):
        return HeckeReport(
            kind="NotHecke",
            evidence=evidence,
            lambda_samples=lam_list,
            detail="degenerate parameters (rho, kappa)",
        )
    return HeckeReport(
        kind=kind,
        rho=rho,
        kappa=kappa,
        evidence=evidence,
        lambda_samples=lam_list,
    )


def basic_form_distance(R: DynamicalRMatrix, report: HeckeReport) -> dict:
    """Recipe reducing a (weak) Hecke matrix to its basic normal form.

    Returns a scalar factor and a pairwise 2-form multiplier: scaling the
    whole matrix by ``scalar`` and multiplying each diagonal coefficient
    d_ij by ``two_form(i, j, lam)`` produces a matrix whose recovered
    2-form is identically -1 (the basic form convention).  The scalar is
    1/kappa, which is the identity on the basic trigonometric datum.
    """
    if report.kind not in ("Hecke", "WeakHecke"):
        raise NotInFamilyError(
            f"basic-form reduction needs a (weak) Hecke matrix, got {report.kind}"
        )
    struct = classify(R)
    params = recover_params(R, struct)

    def two_form_multiplier(i: int, j: int, lam: np.ndarray) -> complex:
        return -1.0 / params.two_form.value(i, j, lam)

    return {
        "scalar": 1.0 / report.kappa,
        "two_form": two_form_multiplier,
        "params": params,
    }
