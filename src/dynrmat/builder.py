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

All square roots and logarithms use the principal branch (see
:func:`dynrmat.params.derive`); the residual branch freedom is absorbed by
the sign family and the 2-form.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PoleError
from .params import (
    POLE_GUARD,
    ClassificationParams,
    DerivedBlockConstants,
    derive,
    principal_sqrt,
    validate_params,
)
from .partition import IndexPartition
from .rmatrix import DynamicalRMatrix, Provenance, composite_index


@dataclass(frozen=True)
class _IndexInfo:
    """Per-index lookup data resolved once at build time."""

    block: int                 # 0-based block ordinal
    delta_class: int           # global 0-based exchange-class ordinal
    d_class: tuple[int, ...]   # member tuple of the containing d-class
    sign: int
    f: complex


def _index_table(p: IndexPartition, c: ClassificationParams) -> dict[int, _IndexInfo]:
    table: dict[int, _IndexInfo] = {}
    delta_ordinal = 0
    for q, block in enumerate(p.blocks):
        for dclass in block:
            for cls in dclass.all_d_classes():
                info = _IndexInfo(
                    block=q,
                    delta_class=delta_ordinal,
                    d_class=cls,
                    sign=int(c.signs[cls]),
                    f=complex(c.f_consts[cls]),
                )
                for i in cls:
                    table[i] = info
            delta_ordinal += 1
    return table


def _class_constant(consts, derived: DerivedBlockConstants, sign: int) -> complex:
    """The constant exchange coefficient of one d-class."""
    if consts.rational:
        return sign * principal_sqrt(consts.det_const)
    denom = 1 - cmath.exp(derived.log_ratio * sign)
    if abs(denom) < POLE_GUARD:
        raise ParameterError("degenerate constants: 1 - e^{A eps} = 0")
    return consts.sum_const / denom


def build(p: IndexPartition, c: ClassificationParams) -> DynamicalRMatrix:
    """Construct the closed-form matrix for a validated, f-normalized datum."""
    result = validate_params(c)
    if not result:
        raise ParameterError(result.message)
    if c.partition != p:
        raise ParameterError("partition does not match the one inside the params")

    info = _index_table(p, c)
    derived = [derive(b.sum_const, b.det_const) for b in c.per_block]
    sqrt_det = [principal_sqrt(b.det_const) for b in c.per_block]
    sqrt_cross = {k: principal_sqrt(v) for k, v in c.cross_det.items()}
    class_const = {
        cls: _class_constant(c.per_block[info[cls[0]].block],
                             derived[info[cls[0]].block],
                             int(c.signs[cls]))
        for cls in p.all_d_classes()
    }
    two_form = c.two_form

    def class_sum(cls: tuple[int, ...], lam: np.ndarray) -> complex:
        return complex(sum(lam[k - 1] for k in cls))

    def delta_field(i: int, j: int, lam: np.ndarray) -> complex:
        fi, fj = info[i], info[j]
        if fi.d_class == fj.d_class:
            return class_const[fi.d_class]
        if fi.block != fj.block:
            return 0j
        consts = c.per_block[fi.block]
        if fi.delta_class != fj.delta_class:
            return consts.sum_const if fi.delta_class < fj.delta_class else 0j
        x = fi.sign * class_sum(fi.d_class, lam) - fj.sign * class_sum(fj.d_class, lam)
        if consts.rational:
            denom = x + fi.f - fj.f
            if abs(denom) < POLE_GUARD:
                raise PoleError(f"rational pole at lam={lam} for pair ({i},{j})")
            return sqrt_det[fi.block] / denom
        denom = 1 - cmath.exp(derived[fi.block].log_ratio * x) * fi.f / fj.f
        if abs(denom) < POLE_GUARD:
            raise PoleError(f"trigonometric pole at lam={lam} for pair ({i},{j})")
        return consts.sum_const / denom

    def d_field(i: int, j: int, lam: np.ndarray) -> complex:
        fi, fj = info[i], info[j]
        if fi.d_class == fj.d_class:
            return 0j
        g = two_form.value(i, j, lam)
        if fi.block != fj.block:
            qq = (min(fi.block, fj.block), max(fi.block, fj.block))
            return sqrt_cross[qq] * g
        if fi.delta_class != fj.delta_class:
            return sqrt_det[fi.block] * g
        return g * (derived[fi.block].root - delta_field(i, j, lam))

    return DynamicalRMatrix(
        n=p.n,
        delta=delta_field,
        d=d_field,
        provenance=Provenance(partition=p, params=c),
    )


def build_commuting_ops(p: IndexPartition, c: ClassificationParams) -> dict:
    """Constant operators commuting with the built matrix and one another.

    ``free_part`` collects the free indices: sum of Delta_ii e_ii (x) e_ii.
    ``family`` maps each multi-element d-class I to
    (Delta_I / |I|) * sum_{j,j' in I} e_jj' (x) e_j'j.
    """
    R = build(p, c)
    n = p.n
    info = _index_table(p, c)
    derived = [derive(b.sum_const, b.det_const) for b in c.per_block]
    free_part = np.zeros((n * n, n * n), dtype=complex)
    family: dict[tuple[int, ...], np.ndarray] = {}
    for cls in p.all_d_classes():
        const = _class_constant(
            c.per_block[info[cls[0]].block], derived[info[cls[0]].block],
            int(c.signs[cls]),
        )
        if len(cls) == 1:
            i = cls[0]
            pos = composite_index(n, i, i)
            free_part[pos, pos] = const
        else:
            op = np.zeros((n * n, n * n), dtype=complex)
            for j in cls:
                for jp in cls:
                    op[composite_index(n, j, jp), composite_index(n, jp, j)] = (
                        const / len(cls)
                    )
            family[cls] = op
    return {"R0": free_part, "family": family, "matrix": R}
