"""Closed-form construction of the classified solution family.

Given a validated partition and its classification datum, the coefficient
fields are fully determined:

* inside a d-class: the exchange coefficient is a constant (one value per
  d-class) and the diagonal coefficient vanishes;
* between two d-classes of the same exchange class: the exchange
  coefficient is trigonometric, S / (1 - e^{A x} f_i/f_j), or rational,
  sqrt(Sigma) / (x + f_i - f_j), in the shifted class-sum coordinate
  x = eps_i Lam_i - eps_j Lam_j (Lam_I = sum of lam over the d-class I);
  the diagonal coefficient is g_ij (B - Delta_ij);
* between two exchange classes of the same block (earlier class i, later
  class j): Delta_ij = S, Delta_ji = 0, d = sqrt(Sigma) g;
* between two blocks: Delta = 0 both ways, d = sqrt(Sigma_{qq'}) g.

All square roots and logarithms use the principal branch, taken once per
block in :attr:`dynrmat.params.BlockConstants.derived`; the residual branch
freedom is absorbed by the sign family and the 2-form.
"""

from __future__ import annotations

import cmath
from itertools import combinations

import numpy as np

from .errors import ParameterError
from .params import (POLE_GUARD, BlockConstants, ClassificationParams, principal_sqrt,
                     validate_params)
from .partition import IndexPartition, index_table
from .rmatrix import DynamicalRMatrix, Provenance


def _class_constant(consts: BlockConstants, sign: int) -> complex:
    """The constant exchange coefficient of one d-class."""
    if consts.rational:
        return sign * consts.derived.sqrt_det
    denom = 1 - cmath.exp(consts.derived.log_ratio * sign)
    if abs(denom) < POLE_GUARD:
        raise ParameterError("degenerate constants: 1 - e^{A eps} = 0")
    return consts.sum_const / denom


def check_datum(p: IndexPartition, c: ClassificationParams) -> list[complex]:
    """Raise the :class:`ParameterError` that :func:`build` raises on a
    datum it cannot build, and return each d-class's constant exchange
    coefficient, in declaration order.  Every block's derived constants
    are read before any class constant, so a degenerate block raises first."""
    result = validate_params(c)
    if not result:
        raise ParameterError(result.message)
    if c.partition != p:
        raise ParameterError("partition does not match the one inside the params")
    for b in c.per_block:
        b.derived  # a degenerate block raises here, before any class constant
    return [_class_constant(c.per_block[q], int(c.signs[cls])) for q, _, _, cls in p.d_classes()]


def build(p: IndexPartition, c: ClassificationParams) -> DynamicalRMatrix:
    """Construct the closed-form matrix for a validated, f-normalized datum.

    The index arrays and constant tables are resolved here once; a (P, n)
    stack of evaluation points then costs one class-sum product per point
    and masked numpy expressions for the lambda-dependent pairs, all over
    the stack.
    """
    class_const = check_datum(p, c)
    n = p.n
    block, xclass, cls_of = index_table(p).T
    classes = p.all_d_classes()
    sign = np.array([c.signs[cls] for cls in classes], dtype=float)[cls_of]
    f = np.array([c.f_consts[cls] for cls in classes], dtype=complex)[cls_of]
    member = np.zeros((len(classes), n), dtype=complex)
    member[cls_of, np.arange(n)] = 1

    other_class = cls_of[:, None] != cls_of[None, :]  # nd_mask(p), from the table read
    same_block = block[:, None] == block[None, :]
    coupled = same_block & (xclass[:, None] == xclass[None, :]) & other_class
    earlier = same_block & (xclass[:, None] < xclass[None, :])

    # per-block constants; sqrt_sigma[q, q'] is sqrt(Sigma_q) at q = q' and
    # sqrt(Sigma_qq') else, read from the keys q < q' alone, the ones that
    # validate_params requires
    sum_const = np.array([b.sum_const for b in c.per_block], dtype=complex)
    sqrt_det = np.array([b.derived.sqrt_det for b in c.per_block], dtype=complex)
    sqrt_sigma = np.diag(sqrt_det)
    for q, qq in combinations(range(len(c.per_block)), 2):
        sqrt_sigma[q, qq] = sqrt_sigma[qq, q] = principal_sqrt(c.cross_det[(q, qq)])

    # lambda-independent entries; coupled pairs are filled per point
    delta0 = np.where(~other_class, np.array(class_const, dtype=complex)[cls_of, None],
                      np.where(earlier, sum_const[block, None], 0j))
    d0 = np.where(other_class, sqrt_sigma[block[:, None], block[None, :]], 0j)

    # coupled pairs, as flat positions split by block kind
    rational = np.array([b.rational for b in c.per_block])[block]
    rat = np.flatnonzero(coupled & rational[:, None])
    trig = np.flatnonzero(coupled & ~rational[:, None])
    ri, rj = np.divmod(rat, n)
    ti, tj = np.divmod(trig, n)
    r_num = sqrt_det[block[ri]]
    t_log = np.array([c.per_block[q].derived.log_ratio for q in block[ti]], dtype=complex)
    t_sum = sum_const[block[ti]]
    root = np.array([b.derived.root for b in c.per_block], dtype=complex)[block, None]
    two_form = c.two_form

    def tables(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x_ij = eps_i Lam_I(i) - eps_j Lam_I(j), with Lam_I the class sums
        # (one matrix-vector product per point, as for a single point)
        lams = np.ascontiguousarray(lams)
        P = len(lams)
        signed = sign * (member @ lams[:, :, None])[:, cls_of, 0]
        x = (signed[:, :, None] - signed[:, None, :]).reshape(P, -1)
        delta = np.repeat(delta0[None], P, axis=0)
        flat = delta.reshape(P, -1)
        if rat.size:
            den = x[:, rat] + f[ri] - f[rj]
            flat[:, rat] = np.where(np.abs(den) < POLE_GUARD, np.nan, r_num / den)
        if trig.size:
            den = 1 - np.exp(t_log * x[:, trig]) * f[ti] / f[tj]
            ok = np.isfinite(den) & (np.abs(den) >= POLE_GUARD)
            flat[:, trig] = np.where(ok, t_sum / den, np.nan)
        g = two_form.table(n, lams, other_class)
        d = g * np.where(coupled, root - delta, d0)
        return delta, d

    return DynamicalRMatrix.from_tables(
        n, tables, provenance=Provenance(partition=p, params=c)
    )


def build_commuting_ops(p: IndexPartition, c: ClassificationParams) -> dict:
    """Constant operators commuting with the built matrix and one another.

    ``free_part`` collects the free indices: sum of Delta_ii e_ii (x) e_ii.
    ``family`` maps each multi-element d-class I to
    (Delta_I / |I|) * sum_{j,j' in I} e_jj' (x) e_j'j.
    """
    R = build(p, c)
    n = p.n
    class_const = check_datum(p, c)
    free_part = np.zeros((n, n, n, n), dtype=complex)
    family: dict[tuple[int, ...], np.ndarray] = {}
    for cls, const in zip(p.all_d_classes(), class_const):
        k = np.subtract(cls, 1)
        if len(cls) == 1:
            free_part[k, k, k, k] = const
        else:
            op = np.zeros((n, n, n, n), dtype=complex)
            op[k[:, None], k, k, k[:, None]] = const / len(cls)
            family[cls] = op.reshape(n * n, n * n)
    return {"R0": free_part.reshape(n * n, n * n), "family": family, "matrix": R}
