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

Every threshold is relative to ``scale``, the largest coefficient modulus
over the samples: values are constant within ``tol * scale`` (``tol *
scale**2`` for a plane determinant) and eigenvalues equal within ``1e4 *
tol * scale``, so c R has the verdict of R, with rho and kappa times c.
The tables are decided at unit scale, times the power of two
:func:`dynrmat.rmatrix.unit_scale` gives, so that no plane determinant
overflows or underflows; the report is scaled back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .classifier import (
    DEFAULT_SAMPLES,
    classify,
    mean_and_spread,
    recover_params,
    require_nonzero,
)
from .errors import NotInFamilyError
from .params import principal_sqrt
from .rmatrix import DynamicalRMatrix, pair_invariants, unit_scale
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


def _planes(delta_st: np.ndarray, d_st: np.ndarray, lim: float, scale: float):
    """The spectrum of the flip-composed matrix from (S, n, n) table stacks:
    the diagonal eigenvalues {i: Delta_ii}, the eigenvalue pair of each
    plane {(i, j): (e+, e-)} for i < j, whether each plane is
    diagonalizable, and whether no d_ij with i != j exceeds ``lim``.
    Delta_ii and the per-plane invariants must be constants: the first that
    deviates from its mean over the samples by more than ``lim`` (``lim *
    scale`` for the determinant, a product of two entries), diagonals
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
    pair_mean, pair_varies = pair_mean.tolist(), (pair_spread > [lim, lim * scale]).tolist()
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
            # a block scalar within lim has the double root s/2; from disc,
            # its two values would split by about sqrt(eps) scale
            pair_eigs[(i + 1, j + 1)] = (
                (s / 2, s / 2) if scalar[i][j] else ((s + disc) / 2, (s - disc) / 2))
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
    ``seed`` as :func:`~dynrmat.classifier.classify` draws them.  ``tol``
    must be finite and > 0.  The verdict reads one array of the n + n(n-1)
    eigenvalues: the diagonal values, then each plane's pair.  A matrix
    that is zero at every sample raises :class:`NotInFamilyError`, as
    :func:`~dynrmat.classifier.classify` does.
    """
    _require_positive("tol", tol)
    if samples is None:
        samples = sample_lambda(R, np.random.default_rng(seed), DEFAULT_SAMPLES, stencil=False)
    tables = np.array(R.stacked_tables(np.asarray(samples, dtype=complex)))
    k, scale = unit_scale(tables)
    require_nonzero(scale)
    lambda_samples = [tuple(np.asarray(l, dtype=complex).tolist()) for l in samples]
    return _scaled_report(_verdict(*tables, scale, tol, lambda_samples), math.ldexp(1.0, -k))


def _scaled_report(report: HeckeReport, c: float) -> HeckeReport:
    """``report`` of R as the report of c R: every eigenvalue, rho, kappa
    and the scale times c."""
    ev = report.evidence
    evidence = {
        "diagonal": {i: v * c for i, v in ev["diagonal"].items()},
        "pair_eigenvalues": {p: (a * c, b * c) for p, (a, b) in ev["pair_eigenvalues"].items()},
        "scale": ev["scale"] * c,
    }
    if "eigenvalue_clusters" in ev:
        evidence["eigenvalue_clusters"] = [v * c for v in ev["eigenvalue_clusters"]]
    return replace(report, evidence=evidence,
                   rho=None if report.rho is None else report.rho * c,
                   kappa=None if report.kappa is None else report.kappa * c)


def _verdict(delta_st: np.ndarray, d_st: np.ndarray, scale: float, tol: float,
             lambda_samples: list) -> HeckeReport:
    """The report of (S, n, n) table stacks whose largest modulus is
    ``scale``."""
    lim = tol * scale
    reach = 1e4 * lim
    diag, pair_eigs, pair_diagonalizable, d_small = _planes(delta_st, d_st, lim, scale)
    evidence = {"diagonal": diag, "pair_eigenvalues": pair_eigs, "scale": scale}
    report = partial(HeckeReport, evidence=evidence, lambda_samples=lambda_samples)
    values = np.array([*diag.values(), *(e for pair in pair_eigs.values() for e in pair)])

    if d_small and (np.abs(values - values[0]) <= reach).all():
        # one d-class: the flip-composed matrix is a constant times the identity
        return report("DegenerateSingleDClass", diag[1], -diag[1],
                      detail="single d-class: minimal polynomial has degree one")

    # first-fit clusters: each head takes every value left within reach
    left = np.ones(len(values), dtype=bool)
    centers = []
    while left.any():
        head = left.argmax()
        members = left & (np.abs(values - values[head]) <= reach)
        # the head always leaves ``left``, so the loop ends on any input, a NaN included
        members[head] = True
        centers.append(complex(values[members].mean()))
        left &= ~members
    evidence["eigenvalue_clusters"] = centers

    if len(centers) != 2:
        return report("NotHecke", detail=f"{len(centers)} distinct eigenvalue(s), need exactly 2")
    bad = [p for p, okd in pair_diagonalizable.items() if not okd]
    if bad:
        return report("NotHecke", detail=f"non-diagonalizable repeated-eigenvalue plane(s) {bad}")

    n = len(diag)
    e1, e2 = centers
    on_e1 = np.abs(values[:n] - e1) <= reach
    count = int(on_e1.sum())
    # rho is the eigenvalue carried by more diagonal lines, ties resolved
    # toward the smallest index; -kappa is the other one
    if 2 * count < n or (2 * count == n and not on_e1[0]):
        e1, e2 = e2, e1
    rho, kappa = e1, -e2
    if rho == 0 or kappa == 0 or abs(e1 - e2) <= reach:
        return report("NotHecke", detail="degenerate parameters (rho, kappa)")

    # Hecke: one eigenvalue on every diagonal line, both on every plane in
    # either order (on the square-root cut no order is stable to one ulp)
    pairs = values[n:].reshape(-1, 2)
    on_rho, on_e2 = np.abs(pairs - rho) <= reach, np.abs(pairs - e2) <= reach
    hecke = count in (0, n) and bool((on_rho & on_e2[:, ::-1]).any(axis=1).all())
    return report("Hecke" if hecke else "WeakHecke", rho, kappa)


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
