"""Evaluable zero-weight dynamical R-matrices.

A matrix of this family acts on C^n (x) C^n and has nonzero entries only in
two sparsity patterns: exchange entries at (row (i,j), col (j,i)) with
coefficient ``delta(i, j, lam)`` and diagonal entries at (row (i,j),
col (i,j)), i != j, with coefficient ``d(i, j, lam)``.  Both coefficient
fields are functions of the dynamical vector lam in C^n; dynamical shifts
move one component of lam by exactly 1 (the shift step is a fixed
normalization, not a parameter).

Each field is called per entry, ``field(i, j, lam)``.  Matrices made by the
builder, the transforms and sampled configs evaluate both fields at once:
their ``delta`` and ``d`` are two :class:`TableField` views of one
:class:`TableSource`.  Its table function maps a (P, n) stack of points to
the (P, n, n) exchange and diagonal table stacks, filled with numpy, and
marks a pole with NaN instead of raising; ``R.tables(lam)`` is a stack of
one point.  A per-entry call reads the shared table and raises
:class:`PoleError` on a non-finite entry.  Plain callables remain valid
fields: :meth:`DynamicalRMatrix.tables` then falls back to one call per
entry, point by point.  A wrapper such as
``DynamicalRMatrix(n, delta=my_delta, d=R.d)`` still has one visible
source, R's: :func:`raw_tables` evaluates it on the whole stack first and
hands it each point's tables before that point's entries are read, so
``my_delta``'s reads of ``R.delta`` find them.  A source remembers one
point only, as a copy, so no stack outlives the call.

:meth:`DynamicalRMatrix.stacked_tables` evaluates a whole stack of points
in one call (the uncached ones), and :func:`shift_stencil` uses it for the
n+1 points lam, lam + e_1, ..., lam + e_n.

Composite row/column indices follow the convention (a, b) -> (a-1)*n + b,
1-based on both levels.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import PoleError
from .params import ClassificationParams
from .partition import IndexPartition

#: Fixed dynamical shift step (the normalization used throughout).
SHIFT_STEP = 1.0

#: An entry outside the two sparsity patterns counts as zero when its
#: modulus is below this.
ZERO_WEIGHT_TOL = 1e-14

_TABLE_CACHE_MAX = 512


@dataclass(frozen=True)
class Provenance:
    """Construction record attached to builder-produced matrices."""

    partition: IndexPartition
    params: Optional[ClassificationParams] = None


CoefficientField = Callable[[int, int, np.ndarray], complex]
TableFunction = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _pole_message(i: int, j: int, lam: np.ndarray) -> str:
    return f"non-finite coefficient at pair ({i},{j}), lam={lam}"


def _as_stack(lams: np.ndarray, n: int) -> np.ndarray:
    lams = np.asarray(lams, dtype=complex)
    if lams.ndim != 2 or lams.shape[1] != n:
        raise ValueError(f"lambda stack must have shape (P, {n}), got {lams.shape}")
    return lams


class TableSource:
    """Whole-table evaluator ``lams -> (delta_tabs, d_tabs)`` behind the two
    fields of one matrix.

    ``fn`` takes a (P, n) stack of points and fills both (P, n, n) table
    stacks at once, with 0 on the diagonal of each diagonal table and NaN
    (never an exception) at a pole.  The source remembers one point: the
    last one read, or the one :func:`raw_tables` handed it with
    :meth:`remember`.  A run of per-entry calls at that point evaluates
    nothing; :meth:`entries` converts its tables to nested lists once.
    The returned tables are read-only.
    """

    def __init__(self, fn: TableFunction):
        self._fn = fn
        # (point key, its two tables, the tables as nested lists or None)
        self._memo: Optional[tuple[bytes, tuple[np.ndarray, np.ndarray],
                                   Optional[tuple[list, list]]]] = None

    def __call__(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lams = np.asarray(lams, dtype=complex)
        if len(lams) == 1:
            value = self.point(lams[0])
            return value[0][None], value[1][None]
        return self.evaluate(lams)

    def evaluate(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (P, n, n) table stacks at a (P, n) stack, in one
        call of ``fn``, bypassing the remembered point."""
        with np.errstate(all="ignore"):
            value = self._fn(lams)
        for tab in value:
            tab.setflags(write=False)
        return value

    def remember(self, lam: np.ndarray, delta: np.ndarray, d: np.ndarray) -> None:
        """Serve the point ``lam`` from read-only copies of its tables
        ``delta`` and ``d``; copies, so that no larger stack stays alive."""
        tables = delta.copy(), d.copy()
        for tab in tables:
            tab.setflags(write=False)
        self._memo = np.asarray(lam, dtype=complex).tobytes(), tables, None

    def point(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two n x n tables at one point, remembered until the next."""
        lam = np.asarray(lam, dtype=complex)
        key = lam.tobytes()
        if self._memo is None or self._memo[0] != key:
            delta, d = self.evaluate(lam[None])
            self._memo = key, (delta[0], d[0]), None
        return self._memo[1]

    def entries(self, lam: np.ndarray) -> tuple[list, list]:
        """:meth:`point` as two nested lists of Python complex, one row per
        list, converted once per remembered point."""
        tables = self.point(lam)
        key, _, lists = self._memo
        if lists is None:
            lists = tables[0].tolist(), tables[1].tolist()
            self._memo = key, tables, lists
        return lists


@dataclass(frozen=True, eq=False)
class TableField:
    """One coefficient field read from a :class:`TableSource`: ``part`` 0
    is the exchange table, 1 the diagonal table."""

    source: TableSource
    part: int

    def table(self, lam: np.ndarray) -> np.ndarray:
        """The whole n x n table at one point, NaN at poles."""
        return self.source.point(lam)[self.part]

    def __call__(self, i: int, j: int, lam: np.ndarray) -> complex:
        v = self.source.entries(lam)[self.part][i - 1][j - 1]
        if not cmath.isfinite(v):
            raise PoleError(_pole_message(i, j, lam))
        return v


def _field_table(coeff: CoefficientField, n: int, lam: np.ndarray,
                 diagonal: bool) -> np.ndarray:
    """n x n table of one field at one point, NaN where it raises
    PoleError; a plain callable is called once per entry (the diagonal is
    left 0 unless ``diagonal``)."""
    if isinstance(coeff, TableField):
        return coeff.table(lam)
    tab = np.zeros((n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j or diagonal:
                try:
                    tab[i - 1, j - 1] = coeff(i, j, lam)
                except PoleError:
                    tab[i - 1, j - 1] = np.nan
    return tab


@dataclass(frozen=True)
class DynamicalRMatrix:
    """Zero-weight dynamical R-matrix given by its two coefficient fields."""

    n: int
    delta: CoefficientField
    d: CoefficientField
    provenance: Optional[Provenance] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_tables(cls, n: int, fn: TableFunction,
                    provenance: Optional[Provenance] = None) -> "DynamicalRMatrix":
        """Matrix whose two fields share the whole-table evaluator ``fn``,
        a function from a (P, n) stack of points to the (P, n, n) exchange
        and diagonal table stacks (see :class:`TableSource`)."""
        source = TableSource(fn)
        return cls(n=n, delta=TableField(source, 0), d=TableField(source, 1),
                   provenance=provenance)

    def tables(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense n x n coefficient tables (exchange, diagonal) at ``lam``.

        Cached per evaluation point; raises :class:`PoleError` naming the
        first pair, in row-major order, with a non-finite coefficient.
        """
        lam = np.asarray(lam, dtype=complex)
        if lam.shape != (self.n,):
            raise ValueError(f"lambda must have length {self.n}, got {lam.shape}")
        hit = self._cache.get(lam.tobytes())
        if hit is None:
            delta, d = self.stacked_tables(lam[None])
            hit = delta[0], d[0]
        return hit

    def stacked_tables(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, n, n) exchange and diagonal tables at a (P, n) stack of points.

        Raises :class:`PoleError` at the first point, in stack order, with a
        non-finite coefficient, naming its first pair in row-major order.
        """
        lams = _as_stack(lams, self.n)
        delta, d = self.lookup(lams)
        bad = ~(np.isfinite(delta) & np.isfinite(d))
        if bad.any():
            p, i, j = np.unravel_index(int(np.flatnonzero(bad)[0]), bad.shape)
            raise PoleError(_pole_message(i + 1, j + 1, lams[p]))
        return delta, d

    def lookup(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, n, n) tables at a (P, n) stack of points, NaN at poles.

        The points missing from the cache are evaluated in one call; the
        finite ones are then cached per point, read-only.
        """
        lams = _as_stack(lams, self.n)
        keys = [lam.tobytes() for lam in lams]
        tabs = [self._cache.get(key) for key in keys]
        cold = [p for p, hit in enumerate(tabs) if hit is None]
        if cold:
            delta, d = raw_tables(self, lams[cold])
            delta.setflags(write=False)
            d.setflags(write=False)
            finite = np.isfinite(delta).all(axis=(1, 2)) & np.isfinite(d).all(axis=(1, 2))
            for k, p in enumerate(cold):
                tabs[p] = delta[k], d[k]
                if finite[k]:
                    if len(self._cache) >= _TABLE_CACHE_MAX:
                        self._cache.clear()
                    self._cache[keys[p]] = tabs[p]
            if len(cold) == len(keys):
                return delta, d
        return np.stack([t[0] for t in tabs]), np.stack([t[1] for t in tabs])


def raw_tables(R: DynamicalRMatrix, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R's (P, n, n) exchange and diagonal tables at a (P, n) stack of
    points, with NaN at poles: the input of a transform's table function.
    Bypasses R's table cache and never raises :class:`PoleError`.

    Two fields of one :class:`TableSource` are evaluated in one call.  Any
    other pair of fields is evaluated point by point, both fields at each
    point.  Before that loop, the source of each of R's fields that is a
    :class:`TableField` (say the untouched field of a wrapper around a
    built matrix) is evaluated once on the whole stack, and each point's
    tables are handed to it (:meth:`TableSource.remember`) before that
    point's fields are read, so per-entry reads of that source, direct or
    through the other field, find them without evaluating it again.
    """
    lams = np.asarray(lams, dtype=complex)
    if (isinstance(R.delta, TableField) and isinstance(R.d, TableField)
            and R.delta.source is R.d.source):
        value = R.delta.source(lams)
        return value[R.delta.part], value[R.d.part]
    delta = np.empty((len(lams), R.n, R.n), dtype=complex)
    d = np.empty_like(delta)
    sources = dict.fromkeys(f.source for f in (R.delta, R.d) if isinstance(f, TableField))
    stacks = [(source, source.evaluate(lams)) for source in sources]
    for p, lam in enumerate(lams):
        for source, (delta_st, d_st) in stacks:
            source.remember(lam, delta_st[p], d_st[p])
        delta[p] = _field_table(R.delta, R.n, lam, diagonal=True)
        d[p] = _field_table(R.d, R.n, lam, diagonal=False)
    return delta, d


@dataclass(frozen=True)
class DensePoint:
    """Dense n^2 x n^2 evaluation of a matrix at one dynamical point."""

    n: int
    lam: tuple[complex, ...]
    matrix: np.ndarray

    def entry(self, row: tuple[int, int], col: tuple[int, int]) -> complex:
        return complex(self.matrix[composite_index(self.n, *row),
                                   composite_index(self.n, *col)])


def composite_index(n: int, a: int, b: int) -> int:
    """0-based position of the composite basis vector (a, b), 1-based inputs."""
    return (a - 1) * n + (b - 1)


class ZeroWeightLayout(NamedTuple):
    """Composite positions of the two sparsity patterns for one n.

    Row (i, j) holds Delta_ij in column ``swap[(i, j)]``, the position of
    (j, i), and d_ij on the diagonal when (i, j) is among ``offdiag``.
    Positions are 0-based and row-major over (i, j), as in
    :func:`composite_index`.
    """

    rows: np.ndarray      # every composite position, in order
    swap: np.ndarray      # position of (j, i) for each (i, j)
    offdiag: np.ndarray   # positions of the (i, j) with i != j


@lru_cache(maxsize=None)
def zero_weight_layout(n: int) -> ZeroWeightLayout:
    """The :class:`ZeroWeightLayout` of size n (cached, read-only arrays)."""
    rows = np.arange(n * n)
    swap = rows.reshape(n, n).T.ravel()
    offdiag = rows[rows // n != rows % n]
    for arr in (rows, swap, offdiag):
        arr.setflags(write=False)
    return ZeroWeightLayout(rows, swap, offdiag)


def tables_from_dense(M: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the layout: the (exchange, diagonal) n x n tables read off
    a dense n^2 x n^2 matrix, or (..., n, n) stacks off a (..., n^2, n^2)
    stack.  Only the two patterns are read, and entries elsewhere are not
    checked here: :func:`dynrmat.verifier.check_zero_weight` tests them, and
    :func:`dynrmat.serialize.matrix_from_samples` rejects a dense sample
    that has one."""
    rows, swap, offdiag = zero_weight_layout(n)
    lead = M.shape[:-2]
    d_flat = np.zeros(lead + (n * n,), dtype=complex)
    d_flat[..., offdiag] = M[..., offdiag, offdiag]
    return M[..., rows, swap].reshape(lead + (n, n)), d_flat.reshape(lead + (n, n))


def shifted(lam: np.ndarray, k: int) -> np.ndarray:
    """lam with component k (1-based) moved by the unit dynamical shift."""
    out = np.asarray(lam, dtype=complex).copy()
    out[k - 1] += SHIFT_STEP
    return out


def stencil_points(lam: np.ndarray) -> np.ndarray:
    """The points lam, lam + e_1, ..., lam + e_n stacked along a new
    second-to-last axis: (n,) -> (n+1, n), or (m, n) -> (m, n+1, n).  Each
    shifted point equals :func:`shifted` bit for bit."""
    lam = np.asarray(lam, dtype=complex)
    n = lam.shape[-1]
    pts = np.repeat(lam[..., None, :], n + 1, axis=-2)
    k = np.arange(n)
    pts[..., k + 1, k] += SHIFT_STEP
    return pts


def shift_stencil(R: DynamicalRMatrix, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (exchange, diagonal) tables of shape (n+1, n, n): index 0 at
    ``lam``, index k at lam + e_k.

    The n+1 points are evaluated in one call; a :class:`PoleError` names
    the first of them, in that order, with a non-finite coefficient.
    """
    return R.stacked_tables(stencil_points(lam))


def evaluate(R: DynamicalRMatrix, lam: np.ndarray) -> DensePoint:
    """Dense evaluation at ``lam``; only the two sparsity patterns are filled."""
    lam = np.asarray(lam, dtype=complex)
    delta_tab, d_tab = R.tables(lam)
    n = R.n
    rows, swap, offdiag = zero_weight_layout(n)
    M = np.zeros((n * n, n * n), dtype=complex)
    M[rows, swap] = delta_tab.ravel()
    M[offdiag, offdiag] = d_tab.ravel()[offdiag]
    return DensePoint(n=n, lam=tuple(lam.tolist()), matrix=M)


def embed_with_shift(
    R: DynamicalRMatrix,
    slot_pair: tuple[int, int],
    shift_slot: Optional[int],
    lam: np.ndarray,
) -> np.ndarray:
    """Embed R into the triple tensor product acting on two designated slots.

    The returned n^3 x n^3 operator applies R to the slots in ``slot_pair``
    (1-based, among 1..3) and the identity to the remaining slot.  When
    ``shift_slot`` is given, the block acting alongside basis vector e_k in
    that slot is evaluated at lam + e_k (the dynamical shift produced by the
    weight of the spectating factor); otherwise everything is evaluated at
    lam.

    O(n^6) memory: :func:`dynrmat.verifier.dqybe_defect` does not use it;
    it is the dense reference its tests compare against.
    """
    a, b = slot_pair
    if sorted((a, b)) != list(slot_pair) or a == b or not {a, b} <= {1, 2, 3}:
        raise ValueError(f"slot_pair must be an increasing pair among 1..3, got {slot_pair}")
    spectator = ({1, 2, 3} - {a, b}).pop()
    if shift_slot is not None and shift_slot != spectator:
        raise ValueError(
            f"shift slot {shift_slot} must be the spectating slot {spectator}"
        )
    lam = np.asarray(lam, dtype=complex)
    n = R.n
    T = np.zeros((n, n, n, n, n, n), dtype=complex)
    unshifted = None if shift_slot is not None else evaluate(R, lam).matrix
    for k in range(1, n + 1):
        block = unshifted if unshifted is not None else evaluate(R, shifted(lam, k)).matrix
        # fix the spectator's output and input axes to e_k
        at = [slice(None)] * 6
        at[spectator - 1] = at[spectator + 2] = k - 1
        T[tuple(at)] = block.reshape(n, n, n, n)
    return T.reshape(n ** 3, n ** 3)


def permuted(P: DensePoint) -> np.ndarray:
    """The flip-composed matrix: apply the factor swap v_i (x) v_j -> v_j (x) v_i
    after the matrix.  On span{e_i (x) e_j, e_j (x) e_i} the restriction is
    [[delta_ji, d_ji], [d_ij, delta_ij]]; on e_i (x) e_i it is delta_ii.
    """
    return P.matrix[zero_weight_layout(P.n).swap]


def pair_invariants(delta: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two invariants of each plane span{e_i (x) e_j, e_j (x) e_i} from
    (..., n, n) exchange and diagonal table stacks: the (..., n, n) stacks of
    sums Delta_ij + Delta_ji and of 2x2-block determinants
    d_ij d_ji - Delta_ij Delta_ji.

    Read the entries with i < j.  The (j, i) entry multiplies the same
    factors in the other order, which need not round to the same bits.
    """
    delta_t = np.swapaxes(delta, -1, -2)
    return delta + delta_t, d * np.swapaxes(d, -1, -2) - delta * delta_t


# -- JSON export -----------------------------------------------------------

def dense_point_to_json(P: DensePoint) -> dict:
    n = P.n
    delta, d = tables_from_dense(P.matrix, n)
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = complex(delta[i - 1, j - 1])
            if v != 0:
                entries.append(
                    {"row": [i, j], "col": [j, i], "re": v.real, "im": v.imag}
                )
            v = complex(d[i - 1, j - 1])
            if v != 0:
                entries.append(
                    {"row": [i, j], "col": [i, j], "re": v.real, "im": v.imag}
                )
    return {
        "n": n,
        "lambda": [{"re": z.real, "im": z.imag} for z in P.lam],
        "entries": entries,
    }
