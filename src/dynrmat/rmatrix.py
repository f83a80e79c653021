"""Evaluable zero-weight dynamical R-matrices.

A matrix of this family acts on C^n (x) C^n and has nonzero entries only in
two sparsity patterns, placed as the last paragraph states: the exchange
coefficients ``delta(i, j, lam)`` and the diagonal coefficients
``d(i, j, lam)``, i != j.  Both coefficient fields are functions of the
dynamical vector lam in C^n; dynamical shifts move one component of lam by
exactly 1 (the shift step is a fixed normalization, not a parameter).

A :class:`DynamicalRMatrix` holds one table function and one memo.  The
table function maps a (P, n) stack of points to the (P, n, n) exchange and
diagonal table stacks, filled with numpy, and marks a pole with NaN instead
of raising.  The memo is the last stack :meth:`DynamicalRMatrix.lookup`
evaluated, with its tables; they serve any contiguous, row-aligned run of
its points (the whole stack as the kept arrays themselves, a chunk that
:func:`dynrmat.verifier.check_system` reads after
:func:`dynrmat.verifier.sample_lambda`, one point), and any other stack is
evaluated in one call and kept instead.  So a point read after another
stack is evaluated again, and so are the accepted stencils after a sampling
round that rejected draws.  ``R.tables(lam)``, ``R.delta(i, j, lam)`` and
``R.d(i, j, lam)`` look up one point and raise :class:`PoleError` on a
non-finite entry.

The builder, the transforms and sampled configs make their matrices with
:meth:`DynamicalRMatrix.from_tables`.  The keyword constructor
``DynamicalRMatrix(n, delta=..., d=...)`` adapts per-entry fields, callables
``(i, j, lam) -> complex``, and pins the readers of other matrices, as
:func:`_field_tables` states; ``DynamicalRMatrix(n, delta=R.delta,
d=R.d)`` shares R's table function behind an empty memo of its own.

Rows and columns of the dense n^2 x n^2 form are composite indices
(a, b) -> (a-1)*n + b, 1-based on both levels; in its (n, n, n, n) reshape,
0-based, Delta_ij sits at row (i,j), column (j,i), [i, j, j, i], and d_ij,
i != j, on the diagonal at (i,j), [i, j, i, j].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PoleError
from .params import ClassificationParams
from .partition import IndexPartition

#: Fixed dynamical shift step (the normalization used throughout).
SHIFT_STEP = 1.0

#: An entry outside the two sparsity patterns counts as zero when its
#: modulus is below this.
ZERO_WEIGHT_TOL = 1e-14

_isfinite = cmath.isfinite


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


def _coefficient_reader(part: int):
    """The reader ``R.delta`` (part 0) or ``R.d`` (part 1)."""
    row = part + 1

    def read(self, i: int, j: int, lam) -> complex:
        """Entry (i, j) of the exchange (``delta``) or diagonal (``d``, 0 for
        i = j) table at ``lam``: from the pin when ``lam`` is the pinned
        object (see :func:`_field_tables`), else from :meth:`lookup` at
        that one point (a list or a real ``lam`` reads the same point).
        Raises :class:`PoleError` on a non-finite entry."""
        pin = self._pin
        if pin is not None and lam is pin[0]:
            v = pin[row][i - 1][j - 1]
        else:
            v = self.lookup(np.asarray(lam, dtype=complex)[None])[part].item(0, i - 1, j - 1)
        if _isfinite(v):
            return v
        raise PoleError(_pole_message(i, j, lam))

    return read


class DynamicalRMatrix:
    """Zero-weight dynamical R-matrix given by one table function."""

    def __init__(self, n: int, delta: CoefficientField, d: CoefficientField,
                 provenance: Optional[Provenance] = None):
        """The matrix of two per-entry coefficient fields (see the module
        docstring); :meth:`from_tables` makes a matrix from its table
        function."""
        readers = _reader(delta), _reader(d)
        owner = readers[0] and readers[0][0]
        if readers == ((owner, 0), (owner, 1)):
            fn = owner._fn
        else:
            fn = _field_tables(n, (delta, d), readers)
        self._init(n, fn, provenance)

    def _init(self, n: int, fn: TableFunction, provenance: Optional[Provenance]) -> None:
        self.n = n
        self.provenance = provenance
        self._fn = fn
        # (points as bytes, delta, d) of the last stack lookup evaluated
        self._last: Optional[tuple] = None
        # (lam, delta rows, d rows): the point a per-entry adapter is
        # running its callables at, read by identity (see _field_tables)
        self._pin: Optional[tuple] = None

    @classmethod
    def from_tables(cls, n: int, fn: TableFunction,
                    provenance: Optional[Provenance] = None) -> "DynamicalRMatrix":
        """Matrix of the table function ``fn``, from a (P, n) stack of points
        to the (P, n, n) exchange and diagonal table stacks, with 0 on the
        diagonal of each diagonal table and NaN (never an exception) at a
        pole."""
        R = cls.__new__(cls)
        R._init(n, fn, provenance)
        return R

    delta = _coefficient_reader(0)
    d = _coefficient_reader(1)

    def tables(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense n x n coefficient tables (exchange, diagonal) at ``lam``:
        :meth:`stacked_tables` at that one point, read-only; raises
        :class:`PoleError` naming the first pair, in row-major order, with a
        non-finite coefficient.
        """
        lam = np.asarray(lam, dtype=complex)
        if lam.shape != (self.n,):
            raise ValueError(f"lambda must have length {self.n}, got {lam.shape}")
        delta, d = self.stacked_tables(lam[None])
        return delta[0], d[0]

    def stacked_tables(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, n, n) exchange and diagonal tables at a (P, n) stack of points.

        Raises :class:`PoleError` at the first point, in stack order, with a
        non-finite coefficient, naming its first pair in row-major order.
        """
        delta, d = self.lookup(lams)
        finite = np.isfinite(delta) & np.isfinite(d)
        if np.logical_and.reduce(finite, axis=None):  # ndarray.all() adds a Python call
            return delta, d
        p, i, j = np.unravel_index(int(np.flatnonzero(~finite)[0]), finite.shape)
        raise PoleError(_pole_message(i + 1, j + 1, _as_stack(lams, self.n)[p]))

    def lookup(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, n, n) read-only tables at a (P, n) stack of points, NaN at
        poles, from or into the memo (see the module docstring)."""
        lams = _as_stack(lams, self.n)
        blob = lams.tobytes()
        last = self._last
        if last is not None:
            if last[0] == blob:
                return last[1], last[2]
            width = 16 * self.n
            at = last[0].find(blob)
            while at > 0 and at % width:  # a match across rows
                at = last[0].find(blob, at + 1)
            if at >= 0:
                p = at // width
                return last[1][p:p + len(lams)], last[2][p:p + len(lams)]
        delta, d = raw_tables(self, lams)
        self._last = blob, delta, d
        return delta, d


def _reader(field: CoefficientField) -> Optional[tuple[DynamicalRMatrix, int]]:
    """(M, 0) for ``M.delta``, (M, 1) for ``M.d``, None for any other field."""
    owner = getattr(field, "__self__", None)
    if isinstance(owner, DynamicalRMatrix):
        for part, name in enumerate(("delta", "d")):
            if field == getattr(owner, name):
                return owner, part
    return None


def _field_tables(n: int, fields: tuple[CoefficientField, CoefficientField],
                  readers: tuple) -> TableFunction:
    """The table function of the per-entry fields ``(delta, d)``, whose
    :func:`_reader` results are ``readers``: a reader's table is copied from
    its matrix's stack, and each plain callable is called once per entry and
    point, point by point (the diagonal of d is left 0), NaN where it raises
    :class:`PoleError`.  The callables get each point as a read-only row of
    a private copy of the stack.  While they run at a point, each matrix
    behind a reader pins that row object with its two tables as nested
    lists; a read at any other object is a lookup of the matrix."""
    owners = list(dict.fromkeys(r[0] for r in readers if r is not None))
    plain = [(part, f) for part, (f, r) in enumerate(zip(fields, readers)) if r is None]
    nan = complex("nan")
    # the (i, j) at which a plain delta or d is called, and their positions
    # in a row-major table
    entries = [[(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if part == 0 or i != j]
               for part in (0, 1)]
    flat = [np.array([(i - 1) * n + j - 1 for i, j in e], dtype=np.intp) for e in entries]

    def tables(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        stacks = {M: raw_tables(M, lams) for M in owners}
        out = np.zeros((2, len(lams), n, n), dtype=complex)
        for part, r in enumerate(readers):
            if r is not None:
                out[part] = stacks[r[0]][r[1]]
        lams = lams.copy()
        lams.setflags(write=False)
        saved = [(M, M._pin) for M in owners]
        try:
            for p, lam in enumerate(lams):
                for M, stack in stacks.items():
                    M._pin = lam, stack[0][p].tolist(), stack[1][p].tolist()
                for part, field in plain:
                    vals = []
                    for i, j in entries[part]:
                        try:
                            vals.append(field(i, j, lam))
                        except PoleError:
                            vals.append(nan)
                    out[part, p].reshape(-1)[flat[part]] = vals
        finally:
            for M, pin in saved:
                M._pin = pin
        return out[0], out[1]

    return tables


def raw_tables(R: DynamicalRMatrix, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R's (P, n, n) exchange and diagonal tables at a (P, n) stack of
    points, with NaN at poles, from one call of R's table function: the
    input of a transform's table function.  Bypasses R's memo, never
    raises :class:`PoleError`, and returns read-only tables."""
    with np.errstate(all="ignore"):
        value = R._fn(np.asarray(lams, dtype=complex))
    for tab in value:
        tab.setflags(write=False)
    return value


@dataclass(frozen=True)
class DensePoint:
    """Dense n^2 x n^2 evaluation of a matrix at one dynamical point."""

    n: int
    lam: tuple[complex, ...]
    matrix: np.ndarray


def composite_index(n: int, a: int, b: int) -> int:
    """0-based position of the composite basis vector (a, b), 1-based inputs."""
    return (a - 1) * n + (b - 1)


def tables_from_dense(M: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (exchange, diagonal) tables read off the (n, n, n, n) view of a
    dense n^2 x n^2 matrix, or (..., n, n) stacks off a (..., n^2, n^2)
    stack, with +0j on d's diagonal: the inverse of :func:`dense_from_tables`.
    Entries outside the two patterns are not read."""
    i, j = np.arange(n)[:, None], np.arange(n)
    T = M.reshape(M.shape[:-2] + (n, n, n, n))
    d = T[..., i, j, i, j].astype(complex)
    d[..., j, j] = 0  # the diagonal: [i, i, i, i] holds Delta_ii
    return T[..., i, j, j, i], d


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


def dense_from_tables(delta_tab: np.ndarray, d_tab: np.ndarray) -> np.ndarray:
    """The dense n^2 x n^2 matrix of one point's n x n exchange and diagonal
    tables, written through its (n, n, n, n) view."""
    n = len(delta_tab)
    i, j = np.arange(n)[:, None], np.arange(n)
    T = np.zeros((n, n, n, n), dtype=complex)
    T[i, j, i, j] = d_tab
    T[i, j, j, i] = delta_tab  # after d: Delta_ii overwrites d_ii at [i, i, i, i]
    return T.reshape(n * n, n * n)


def evaluate(R: DynamicalRMatrix, lam: np.ndarray) -> DensePoint:
    """Dense evaluation at ``lam``; only the two sparsity patterns are filled."""
    lam = np.asarray(lam, dtype=complex)
    M = dense_from_tables(*R.tables(lam))
    return DensePoint(n=R.n, lam=tuple(lam.tolist()), matrix=M)


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


def unit_scale(T: np.ndarray, axis: Optional[int] = None) -> tuple:
    """Multiply the finite complex array ``T``, in place, by 2^k, k = 1 - e
    for e the binary exponent of its largest modulus C (of each column for
    ``axis=0``), so that C 2^k is in [1, 2); C = 0 has k = 1.  ``np.ldexp``
    on the float view is exact, also where 2^k is no float (C < 2^-1022).
    Returns k and C 2^k: numbers, or lists of one per column."""
    F = T[..., None].view(np.float64)
    if axis is None:  # Python scalars: cheaper than 0-d arrays
        mant, e = math.frexp(np.abs(T).max())
        np.ldexp(F, 1 - e, out=F)
        return 1 - e, 2 * mant
    mant, e = np.frexp(np.abs(T).max(axis=axis))
    k = 1 - e
    np.ldexp(F, k[..., None], out=F)
    return k.tolist(), (2 * mant).tolist()


# -- JSON export -----------------------------------------------------------

def point_to_json(lam, delta: np.ndarray, d: np.ndarray) -> dict:
    """The JSON of one point from its n x n exchange and diagonal tables:
    row-major over (i, j), the exchange entry and then the diagonal one,
    each only when it is nonzero, and no diagonal entry for i = j."""
    entries = []
    for i, (delta_row, d_row) in enumerate(zip(delta.tolist(), d.tolist()), 1):
        for j, (v, w) in enumerate(zip(delta_row, d_row), 1):
            if v != 0:
                entries.append({"row": [i, j], "col": [j, i], "re": v.real, "im": v.imag})
            if w != 0 and i != j:
                entries.append({"row": [i, j], "col": [i, j], "re": w.real, "im": w.imag})
    return {
        "n": len(delta),
        "lambda": [{"re": z.real, "im": z.imag}
                   for z in np.asarray(lam, dtype=complex).tolist()],
        "entries": entries,
    }


def dense_point_to_json(P: DensePoint) -> dict:
    """The JSON of a dense point, read through :func:`tables_from_dense`."""
    return point_to_json(P.lam, *tables_from_dense(P.matrix, P.n))
