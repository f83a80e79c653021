"""Per-entry closure implementations of the coefficient fields, kept as the
reference that the whole-table evaluators are tested against.

Each function mirrors one table function of the library (builder,
transforms, sampled matrices) one entry at a time, with Python scalar
arithmetic and ``cmath``, raising :class:`PoleError` at the first pole it
meets.  :func:`oracle_tables` evaluates such a matrix in row-major order.
:func:`oracle_recovered_two_form` keeps the classifier's per-pair closures
of the recovered 2-form, and :func:`oracle_pair_table` the per-pair loop
that made their table.  :func:`oracle_exact_table` is the exact 2-form's
table with every potential called at every distinct point.
"""

from __future__ import annotations

import cmath
from dataclasses import replace

import numpy as np

from dynrmat.builder import _class_constant, _index_table, build
from dynrmat.errors import ParameterError, PoleError
from dynrmat.params import (
    POLE_GUARD,
    ExactTwoForm,
    TableTwoForm,
    TrivialTwoForm,
    derive,
    principal_sqrt,
)
from dynrmat.partition import class_id_map, nd_pairs
from dynrmat.rmatrix import DynamicalRMatrix, stencil_points, tables_from_dense
from dynrmat.serialize import sample_keys


class OraclePole(Exception):
    """The oracle met a pole; ``pair`` is the first one in row-major order."""

    def __init__(self, pair):
        super().__init__(f"pole at pair {pair}")
        self.pair = pair


def oracle_tables(R: DynamicalRMatrix, lam) -> tuple[np.ndarray, np.ndarray]:
    """Tables from per-entry calls in row-major order (exchange, then
    diagonal, per pair); raises :class:`OraclePole` at the first pair that
    raises :class:`PoleError` or, failing that, holds a non-finite value."""
    lam = np.asarray(lam, dtype=complex)
    n = R.n
    delta = np.empty((n, n), dtype=complex)
    d = np.zeros((n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            try:
                delta[i - 1, j - 1] = R.delta(i, j, lam)
                if i != j:
                    d[i - 1, j - 1] = R.d(i, j, lam)
            except PoleError:
                raise OraclePole((i, j)) from None
    bad = ~(np.isfinite(delta) & np.isfinite(d))
    if bad.any():
        i, j = divmod(int(np.flatnonzero(bad)[0]), n)
        raise OraclePole((i + 1, j + 1))
    return delta, d


def oracle_two_form(g, i: int, j: int, lam) -> complex:
    """g_ij at one point, read from ``g.beta`` (exact 2-forms) or ``g.g``
    (table 2-forms) in Python scalar arithmetic; raises :class:`PoleError`
    where a potential or the stored orientation's value falls below
    ``POLE_GUARD``."""
    lam = np.asarray(lam, dtype=complex)
    if isinstance(g, TrivialTwoForm):
        return 1.0 + 0j
    if isinstance(g, ExactTwoForm):
        shifted_j = lam.copy()
        shifted_j[j - 1] += 1
        shifted_i = lam.copy()
        shifted_i[i - 1] += 1
        bi, bj = g.beta[i], g.beta[j]
        bi0, bj0 = complex(bi(lam)), complex(bj(lam))
        bij, bji = complex(bi(shifted_j)), complex(bj(shifted_i))
        for v in (bi0, bj0, bji):
            if abs(v) < POLE_GUARD:
                raise PoleError(f"potential of 2-form vanishes near lam={lam}")
        return (bij / bi0) * (bj0 / bji)
    if isinstance(g, TableTwoForm):
        a, b = min(i, j), max(i, j)
        v = complex(g.g[(a, b)](lam))
        if abs(v) < POLE_GUARD:
            raise PoleError(f"2-form table entry ({a},{b}) vanishes at lam={lam}")
        return v if i < j else 1.0 / v
    raise TypeError(f"no oracle for the 2-form {type(g).__name__}")


def oracle_recovered_two_form(R: DynamicalRMatrix, params, inv) -> dict:
    """The recovered 2-form of ``params`` (a datum over the canonical labels
    of R's classification, ``inv`` mapping a canonical index to R's) as
    one closure per cross-class pair (i, j), i < j: R's d_ij over the bare
    rebuild's, read one entry at a time, raising :class:`PoleError` where
    either is not finite or the bare one is below ``POLE_GUARD`` times the
    datum's largest |S|, sqrt|Sigma| or sqrt of a cross constant."""
    base = replace(params, two_form=TrivialTwoForm())
    magnitude = 0.0
    for block in base.per_block:
        magnitude = max(magnitude, abs(block.sum_const), abs(block.det_const) ** 0.5)
    for sigma in base.cross_det.values():
        magnitude = max(magnitude, abs(sigma) ** 0.5)
    bare = build(base.partition, base)
    cid = class_id_map(base.partition)
    n = base.partition.n
    to_orig = np.array([inv[a] - 1 for a in range(1, n + 1)])
    closures = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if cid[i] == cid[j]:
                continue

            def g_func(lam, _i=i, _j=j):
                lam = np.asarray(lam, dtype=complex)
                orig_lam = np.empty(n, dtype=complex)
                orig_lam[to_orig] = lam
                denom = bare.d(_i, _j, lam)
                if abs(denom) < POLE_GUARD * magnitude:
                    raise PoleError(f"bare diagonal coefficient vanishes at {lam}")
                return R.d(inv[_i], inv[_j], orig_lam) / denom

            closures[(i, j)] = g_func
    return closures


def oracle_pair_table(closures: dict, n: int, lams, mask) -> np.ndarray:
    """The (P, n, n) table of per-pair closures: one call per point and
    needed pair i < j, NaN where it raises :class:`PoleError` or falls
    below ``POLE_GUARD``, and the reciprocal (Python division) on the
    reverse orientation."""
    lams = np.asarray(lams, dtype=complex)
    out = np.ones((len(lams), n, n), dtype=complex)
    mask = np.broadcast_to(mask, out.shape)
    need = (mask | mask.transpose(0, 2, 1)).any(axis=0)
    for i, j in zip(*np.nonzero(np.triu(need, 1))):
        fn = closures[(int(i) + 1, int(j) + 1)]
        values = []
        for lam in lams:
            try:
                v = complex(fn(lam))
            except PoleError:
                v = np.nan
            values.append(np.nan if abs(v) < POLE_GUARD else v)
        out[:, i, j] = values
        out[:, j, i] = [1.0 / v for v in values]
    return np.where(mask, out, 1)


def oracle_exact_table(beta, n: int, lams, mask) -> np.ndarray:
    """:meth:`ExactTwoForm.table` as it was before it skipped unread
    potentials: every potential called once at every distinct point among
    ``lams`` and lams + e_k, then the same whole-stack arithmetic."""
    lams = np.asarray(lams, dtype=complex)
    pts = stencil_points(lams).reshape(-1, n)
    first: dict[bytes, int] = {}
    row = [first.setdefault(pt.tobytes(), p) for p, pt in enumerate(pts)]
    values = {p: [complex(beta[i](pts[p])) for i in range(1, n + 1)] for p in first.values()}
    b = np.array([values[p] for p in row]).reshape(len(lams), n + 1, n)
    b0, bk = b[:, 0], b[:, 1:]
    g = (bk.transpose(0, 2, 1) / b0[:, :, None]) * (b0[:, None, :] / bk)
    small = np.abs(b0) < POLE_GUARD
    g[small[:, :, None] | small[:, None, :] | (np.abs(bk) < POLE_GUARD)] = np.nan
    return np.where(mask, g, 1)


def oracle_build(p, c) -> DynamicalRMatrix:
    """The closed-form matrix of a validated datum, one closure per field."""
    info = _index_table(p, c)
    derived = [derive(b.sum_const, b.det_const) for b in c.per_block]
    sqrt_det = [principal_sqrt(b.det_const) for b in c.per_block]
    sqrt_cross = {k: principal_sqrt(v) for k, v in c.cross_det.items()}
    class_const = {
        cls: _class_constant(c.per_block[info[cls[0]].block],
                             derived[info[cls[0]].block], int(c.signs[cls]))
        for cls in p.all_d_classes()
    }
    two_form = c.two_form

    def class_sum(cls, lam):
        return complex(sum(lam[k - 1] for k in cls))

    def delta_field(i, j, lam):
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
                raise PoleError(f"rational pole for pair ({i},{j})")
            return sqrt_det[fi.block] / denom
        denom = 1 - cmath.exp(derived[fi.block].log_ratio * x) * fi.f / fj.f
        if abs(denom) < POLE_GUARD:
            raise PoleError(f"trigonometric pole for pair ({i},{j})")
        return consts.sum_const / denom

    def d_field(i, j, lam):
        fi, fj = info[i], info[j]
        if fi.d_class == fj.d_class:
            return 0j
        g = oracle_two_form(two_form, i, j, lam)
        if fi.block != fj.block:
            qq = (min(fi.block, fj.block), max(fi.block, fj.block))
            return sqrt_cross[qq] * g
        if fi.delta_class != fj.delta_class:
            return sqrt_det[fi.block] * g
        return g * (derived[fi.block].root - delta_field(i, j, lam))

    return DynamicalRMatrix(n=p.n, delta=delta_field, d=d_field)


def oracle_twist(R: DynamicalRMatrix, beta) -> DynamicalRMatrix:
    multiplier = ExactTwoForm(beta=beta)

    def new_d(i, j, lam):
        base = R.d(i, j, lam)
        if i == j or base == 0:
            return base
        return oracle_two_form(multiplier, i, j, lam) * base

    return DynamicalRMatrix(n=R.n, delta=R.delta, d=new_d)


def oracle_2form(R: DynamicalRMatrix, g, partition) -> DynamicalRMatrix:
    coupled = set(nd_pairs(partition)) | {(j, i) for (i, j) in nd_pairs(partition)}

    def new_d(i, j, lam):
        base = R.d(i, j, lam)
        if (i, j) not in coupled or base == 0:
            return base
        return oracle_two_form(g, i, j, lam) * base

    return DynamicalRMatrix(n=R.n, delta=R.delta, d=new_d)


def oracle_contract(R: DynamicalRMatrix, subset) -> DynamicalRMatrix:
    def lift(lam):
        full = np.zeros(R.n, dtype=complex)
        for pos, orig in enumerate(subset):
            full[orig - 1] = lam[pos]
        return full

    def new_delta(a, b, lam):
        return R.delta(subset[a - 1], subset[b - 1], lift(np.asarray(lam, dtype=complex)))

    def new_d(a, b, lam):
        return R.d(subset[a - 1], subset[b - 1], lift(np.asarray(lam, dtype=complex)))

    return DynamicalRMatrix(n=len(subset), delta=new_delta, d=new_d)


def oracle_compose(Ra: DynamicalRMatrix, Rb: DynamicalRMatrix, g_ab, g_ba) -> DynamicalRMatrix:
    na = Ra.n
    g_ab, g_ba = complex(g_ab), complex(g_ba)

    def new_delta(i, j, lam):
        lam = np.asarray(lam, dtype=complex)
        if i <= na and j <= na:
            return Ra.delta(i, j, lam[:na])
        if i > na and j > na:
            return Rb.delta(i - na, j - na, lam[na:])
        return 0j

    def new_d(i, j, lam):
        lam = np.asarray(lam, dtype=complex)
        if i <= na and j <= na:
            return Ra.d(i, j, lam[:na])
        if i > na and j > na:
            return Rb.d(i - na, j - na, lam[na:])
        return g_ab if i <= na else g_ba

    return DynamicalRMatrix(n=na + Rb.n, delta=new_delta, d=new_d)


def oracle_samples(points) -> DynamicalRMatrix:
    n = points[0].n
    tables = {sample_keys([pt.lam])[0]: tables_from_dense(pt.matrix, n) for pt in points}

    def lookup(lam):
        key = sample_keys(np.asarray(lam)[None])[0]
        if key not in tables:
            raise ParameterError("sampled matrix is only evaluable at its own sample points")
        return tables[key]

    def delta_fn(i, j, lam):
        return complex(lookup(lam)[0][i - 1, j - 1])

    def d_fn(i, j, lam):
        if i == j:
            return 0j
        return complex(lookup(lam)[1][i - 1, j - 1])

    return DynamicalRMatrix(n=n, delta=delta_fn, d=d_fn)
