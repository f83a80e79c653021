"""Numerical certification of a dynamical R-matrix.

Two complementary checks are provided: the global residual of the shifted
Yang-Baxter relation on the triple tensor product, and the sixteen
component equations the relation reduces to for zero-weight matrices
(one diagonal family G0, nine two-index families F1..F9, six three-index
families E1..E6).  The component equations are evaluated exactly as
written -- products only, no divisions -- so identically-zero coefficients
never cause spurious failures.

The global residual never forms the n^3 x n^3 operators.  A zero-weight
factor sends e_x (x) e_y to at most two basis vectors, its swap and
itself, so each side of the relation sends a basis triple to 8 weighted
path products, all landing on permutations of that triple.  Which table
entries each path product kept by :class:`DefectLayout` multiplies, and
which (column, row) entry it is summed into, depends on n only: that layout
is built once per n.  Every entry receives one or two of them, so a
sample's defect is three gathers from its shift stencil's flattened tables
and two from the products, O(n^3) time and memory instead of the O(n^9)
time and O(n^6) memory of dense products.

The component equations have a layout per n as well, :class:`EquationLayout`.
An index tuple with a repeated index is no equation of its family, and
counts as a residual of 0.  :func:`check_system` reads each family with one
gather per chunk of samples (see ``_SYSTEM_CHUNK``); the global defect is
taken per sample.

Residuals are cubic in the matrix coefficients, so all pass/fail decisions
are made on *normalized* residuals, read from each sample's tables times
the 2^k of :func:`dynrmat.rmatrix.unit_scale` for C, the largest coefficient
modulus at the sample.  A component residual is the raw max-abs value there
over (C 2^k)^3, so 2^j R has the residuals of R bit for bit, and C = 0
gives 0.  The global residual is raw / max(1, scale), scale the largest
entry of the two three-factor products, absolute below scale 1: at unit
scale, raw / max(2^(3k), scale).

The determinant is read from its factors alone (:func:`check_invertibility`):
no dense n^2 x n^2 matrix is formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import PoleError
from .partition import index_table
from .rmatrix import (
    DynamicalRMatrix,
    _as_stack,
    shift_stencil,
    shifted,
    stencil_points,
    unit_scale,
)

EQUATION_TAGS = ("G0",) + tuple(f"F{k}" for k in range(1, 10)) + tuple(
    f"E{k}" for k in range(1, 7)
)

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 8

#: Rejection-sampler bound on coefficient magnitudes; keeps cubic products
#: well inside the meaningful range of double precision.
DEFAULT_ENTRY_CAP = 1e3

#: :func:`sample_lambda` evaluates at most this many points per table call.
_SAMPLE_CALL_POINTS = 512


@dataclass
class WorstCase:
    equation: str
    indices: tuple[int, ...]
    lam: tuple[complex, ...]
    value: float


@dataclass
class ResidualReport:
    global_residuals: list[float]          # normalized defect per sample
    per_equation: dict[str, float]         # normalized max residual per tag
    samples: list[tuple[complex, ...]]
    worst_case: Optional[WorstCase]
    tol: float

    @property
    def passed(self) -> bool:
        if any(r >= self.tol for r in self.global_residuals):
            return False
        return all(v < self.tol for v in self.per_equation.values())


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def sample_lambda(
    R: DynamicalRMatrix,
    rng: np.random.Generator,
    count: int,
    box: float = 2.0,
    entry_cap: float = DEFAULT_ENTRY_CAP,
    max_tries: int = 2000,
    stencil: bool = True,
) -> list[np.ndarray]:
    """Draw dynamical points with independent uniform real/imaginary parts
    in [-box, box], rejecting points where the matrix hits a pole or exceeds
    the entry cap.

    With ``stencil=True`` a draw is checked on its whole shift stencil,
    lam, lam + e_1, ..., lam + e_n, as the shifted relation reads it.  With
    ``stencil=False`` only the drawn point itself is checked, for callers
    that read the tables at the samples alone.

    Each round draws exactly as many points as are still missing, so the
    accepted points and the final state of ``rng`` are those of drawing
    one point at a time.  The checked points of a round are evaluated
    together, at most ``_SAMPLE_CALL_POINTS`` points per table call.
    ``box`` and ``entry_cap`` must be finite and > 0.
    """
    _require_positive("box", box)
    _require_positive("entry_cap", entry_cap)
    n = R.n
    width = n + 1 if stencil else 1
    per_call = max(1, _SAMPLE_CALL_POINTS // width)
    out: list[np.ndarray] = []
    tries = 0
    while len(out) < count:
        k = min(count - len(out), max_tries - tries)
        if k <= 0:
            raise PoleError(
                f"could not find {count} well-conditioned sample points in "
                f"{max_tries} draws"
            )
        tries += k
        draws = rng.uniform(-box, box, (k, 2, n))
        lams = draws[:, 0] + 1j * draws[:, 1]
        for start in range(0, k, per_call):
            chunk = lams[start:start + per_call]
            out.extend(chunk[well_conditioned(R, chunk, entry_cap, stencil)])
    return out


def well_conditioned(R: DynamicalRMatrix, lams: np.ndarray, entry_cap: float,
                     stencil: bool) -> np.ndarray:
    """Which points of the (m, n) stack ``lams`` have every entry finite and
    not above ``entry_cap`` on their shift stencil (``stencil=True``) or
    alone, read in one ``R.lookup``, whose stack R keeps."""
    points = stencil_points(lams).reshape(-1, R.n) if stencil else lams
    delta, d = R.lookup(points)
    mags = np.concatenate([np.abs(delta), np.abs(d)], axis=1).reshape(len(lams), -1)
    return np.isfinite(mags).all(axis=1) & ~(mags.max(axis=1) > entry_cap)


#: The three factors of each side in the order they act on a column (the
#: rightmost first): the 0-based slot pair and whether the spectating slot's
#: index shifts the evaluation point.
_LEFT = (((1, 2), True), ((0, 2), False), ((0, 1), True))    # R12(lam+h3) R13(lam) R23(lam+h1)
_RIGHT = (((0, 1), False), ((0, 2), True), ((1, 2), False))  # R23(lam) R13(lam+h2) R12(lam)


class DefectLayout(NamedTuple):
    """Where the path products of both sides come from and go to.

    Of the 8 n^3 path products of each side, those through a diagonal
    coefficient d_xx, 0 by construction, are left out: each would add an
    exact zero to its entry.  ``T`` is a stencil's tables flattened into
    one vector, ``concat(delta_st.ravel(), d_st.ravel())``.  Product k
    multiplies ``T[gather[0][k]] * T[gather[1][k]] * T[gather[2][k]]``,
    its factors in the order they act.  The left side's products come
    first, then the right side's, each side's kept in the order of its
    paths: path j of column c at j n^3 + c.  The (column, row) entries are
    numbered left entries in [0, m) and right entries in [m, 2m); every
    entry a path reaches is reached by a kept one on each side, so m is
    that of all 16 n^3 products.  Entry b receives kept products
    ``first[b]`` and ``second[b]``, in path order, or only ``first[b]``
    and ``second[b]`` is K, the pad: a product after the K kept ones that
    reads d_11 three times, 0 by construction.
    """

    gather: tuple[np.ndarray, np.ndarray, np.ndarray]
    first: np.ndarray
    second: np.ndarray
    m: int


@lru_cache(maxsize=None)
def _defect_layout(n: int) -> DefectLayout:
    """The :class:`DefectLayout` of size n (cached, read-only ``np.intp``
    arrays, the index type ``take`` reads without a conversion).

    Starting from each basis triple, a factor on slots (p, q) sends
    e_x (x) e_y to Delta_yx e_y (x) e_x + d_xy e_x (x) e_y, with its tables
    taken at stencil index 0, or at spectator index + 1 when shifted.
    """
    size = n ** 3
    d_offset = (n + 1) * n * n
    rows, gathers, kept = [], [], []
    for factors in (_LEFT, _RIGHT):
        state = np.indices((n, n, n)).reshape(3, -1)
        picks: list[np.ndarray] = []
        keep = np.ones(size, dtype=bool)
        for (p, q), shift in factors:
            x, y = state[p], state[q]
            at = state[3 - p - q] + 1 if shift else 0
            swapped = state.copy()
            swapped[p], swapped[q] = y, x
            state = np.concatenate([swapped, state], axis=1)
            picks = [np.concatenate([g, g]) for g in picks]
            picks.append(np.concatenate([(at * n + y) * n + x,
                                         d_offset + (at * n + x) * n + y]))
            # d_xx is 0 by construction: a path through it adds an exact zero
            keep = np.concatenate([keep, keep & (x != y)])
        rows.append((state[0] * n + state[1]) * n + state[2])
        gathers.append(picks)
        kept.append(keep)
    keys, inv = np.unique(np.tile(np.arange(size), 16) * size + np.concatenate(rows),
                          return_inverse=True)
    m = keys.size
    kept = np.concatenate(kept)
    # the cached arrays are made before the temporaries: made after them,
    # they would sit on top of the heap and keep it, and the RSS, up
    gather, pairs = np.empty((3, kept.sum() + 1), np.intp), np.empty((2, 2 * m), np.intp)
    for g, pair in zip(gather, zip(*gathers)):
        g[:-1] = np.concatenate(pair)[kept]
    gather[:, -1] = d_offset  # the pad, product K, is d_11 d_11 d_11 at lam: 0 by construction
    del gathers, picks  # copied: freed before the entries are paired, a lower peak
    bins = (inv + np.repeat([0, m], 8 * size))[kept]
    # a side's 8 paths reach each row of a column at most twice (the 4 paths
    # of each parity reach its 3 permutations), so an entry receives one or
    # two kept products: its first in path order, and its last
    counts = np.bincount(bins)
    ends = np.cumsum(counts)
    order = np.argsort(bins * bins.size + np.arange(bins.size))  # by entry, then path
    first, last = order[ends - counts], order[ends - 1]
    pairs[:] = first, np.where(last > first, last, bins.size)
    gather.setflags(write=False)
    pairs.setflags(write=False)
    return DefectLayout(tuple(gather), *pairs, m)


def _path_weights(T: np.ndarray, n: int) -> np.ndarray:
    """The weights of the path products that :func:`_defect_layout` keeps,
    and of its pad, at one stencil's flattened tables ``T``."""
    gather = _defect_layout(n).gather
    # the product so far times the next factor, as the factors act (complex
    # products are not bitwise commutative); take() beats T[indices]
    w = T.take(gather[0])
    w *= T.take(gather[1])
    w *= T.take(gather[2])
    return w


def _defect(T: np.ndarray, n: int) -> tuple[float, float]:
    """Raw max-abs defect and scale of the relation at one shift stencil's
    flattened tables ``T``, ``concat(delta_st.ravel(), d_st.ravel())``."""
    layout = _defect_layout(n)
    w = _path_weights(T, n)
    # each entry adds its second product, or the pad's exact 0, to its first
    sums = w.take(layout.first)
    sums += w.take(layout.second)
    raw = float(np.abs(sums[:layout.m] - sums[layout.m:]).max())
    return raw, float(np.abs(sums).max())


def _stencil_defect(delta_st: np.ndarray, d_st: np.ndarray) -> tuple[float, float]:
    """Raw max-abs defect and scale of the relation at one shift stencil's
    (n+1, n, n) tables."""
    return _defect(np.concatenate([delta_st.ravel(), d_st.ravel()]), delta_st.shape[1])


def dqybe_defect(R: DynamicalRMatrix, lam: np.ndarray) -> tuple[float, float]:
    """Raw max-abs defect of the shifted Yang-Baxter relation and the
    max-abs entry of the two three-factor products (the natural scale)."""
    return _stencil_defect(*shift_stencil(R, np.asarray(lam, dtype=complex)))


def _global_residual(T: np.ndarray, n: int, k: int) -> float:
    """The global residual of one stencil from its flattened tables at unit
    scale, times 2^k: raw / max(2^(3k), scale), without 2^(3k), which is no
    float when C is below 2^-341 or above 2^358."""
    raw, scale = _defect(T, n)
    if scale and math.frexp(scale)[1] > 3 * k:  # scale >= 2^(3k)
        return raw / scale
    return math.ldexp(raw, -3 * k)


def dqybe_residual_normalized(R: DynamicalRMatrix, lam: np.ndarray) -> float:
    """The global residual that :func:`check_system` reports at ``lam``."""
    T = np.concatenate([t.ravel() for t in shift_stencil(R, np.asarray(lam, dtype=complex))])
    k, _ = unit_scale(T)
    return _global_residual(T, R.n, k)


class EquationLayout(NamedTuple):
    """Where the component equations of size n read their factors.

    ``positions`` holds one (factors, entries) array per family: G0, the
    pair families F1..F9 and the triple families E1..E6.  Row k holds the
    position of the family's k-th factor in :func:`_equation_values`, at
    every entry the family constrains, in a stencil's flattened tables
    ``concat(delta_st.ravel(), d_st.ravel())``.  The entries are each i for
    G0, the pairs i != j for F and the triples of distinct indices for E,
    in row-major order; ``indices`` holds their 1-based indices, one
    (entries, 1), (entries, 2) or (entries, 3) array per family.
    """

    positions: tuple[np.ndarray, np.ndarray, np.ndarray]
    indices: tuple[np.ndarray, np.ndarray, np.ndarray]


#: The equation tags of each family, in the order of the layout's arrays.
_FAMILIES = (EQUATION_TAGS[:1], EQUATION_TAGS[1:10], EQUATION_TAGS[10:])


@lru_cache(maxsize=None)
def _equation_layout(n: int) -> EquationLayout:
    """The :class:`EquationLayout` of size n (cached, read-only ``np.intp``
    arrays)."""
    I, J = np.indices((n, n)).reshape(2, -1)
    I, J = I[I != J], J[I != J]
    I3, J3, K3 = np.indices((n, n, n)).reshape(3, -1)
    distinct = (I3 != J3) & (J3 != K3) & (I3 != K3)
    I3, J3, K3 = I3[distinct], J3[distinct], K3[distinct]
    r = np.arange(n)

    def D(at, x, y):  # Delta_xy at stencil index ``at``: 0, or m + 1 at lam + e_(m+1)
        return (at * n + x) * n + y

    def s(at, x, y):  # d_xy at stencil index ``at``
        return (n + 1) * n * n + D(at, x, y)

    i, j, k = I3 + 1, J3 + 1, K3 + 1  # the stencil indices of the shifts
    positions = (
        [D(0, r, r), D(r + 1, r, r)],
        [D(J + 1, I, I), D(0, I, I), D(0, I, J), D(0, J, I), D(I + 1, I, J),
         D(I + 1, J, I), s(0, I, J), s(0, J, I), s(I + 1, I, J), s(I + 1, J, I)],
        [s(k, I3, J3), s(i, J3, K3), s(j, I3, K3), s(k, J3, I3),
         s(0, I3, J3), s(0, J3, K3), s(0, I3, K3), s(0, K3, J3),
         D(k, I3, J3), D(k, J3, I3), D(i, J3, K3), D(j, I3, K3),
         D(0, I3, J3), D(0, J3, K3), D(0, I3, K3), D(0, K3, J3)],
    )
    arrays = [np.array(rows, dtype=np.intp).reshape(len(rows), -1) for rows in positions]
    arrays += [np.stack(group, axis=1) + 1 for group in ([r], [I, J], [I3, J3, K3])]
    for arr in arrays:
        arr.setflags(write=False)
    return EquationLayout(tuple(arrays[:3]), tuple(arrays[3:]))


def _equation_values(T: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """All sixteen component-equation value arrays of S flattened shift
    stencils, the columns of ``T``, (2 (n+1) n^2, S).

    Each value array is (entries, S) over the entries its family
    constrains, in the order of :func:`_equation_layout`.  A stencil per
    column makes each factor's gather one contiguous block.
    """
    g_pos, f_pos, e_pos = _equation_layout(n).positions

    diag, diag_sh = T.take(g_pos, axis=0)
    g0 = diag * diag_sh * (diag_sh - diag)

    (dii_j, dii_0, dij_0, dji_0, dij_i, dji_i,
     sij_0, sji_0, sij_i, sji_i) = T.take(f_pos, axis=0)

    brace_34 = dii_j * dij_i - dii_j * dij_0 - dji_0 * dij_i
    brace_56 = dii_0 * dji_i - dii_0 * dji_0 + dji_0 * dij_i

    out = {
        "G0": g0,
        "F1": sij_0 * sij_i * (dii_j - dii_0),
        "F2": sji_0 * sji_i * (dii_j - dii_0),
        "F3": sij_0 * brace_34,
        "F4": sji_0 * brace_34,
        "F5": sij_i * brace_56,
        "F6": sji_i * brace_56,
        "F7": dii_j ** 2 * dij_0 - sij_0 * sji_0 * dij_i - dii_j * dij_0 ** 2,
        "F8": dii_0 ** 2 * dji_i - sij_i * sji_i * dji_0 - dii_0 * dji_i ** 2,
        "F9": dii_0 * sij_i * sji_i - dii_j * sij_0 * sji_0
        + dij_i * dji_0 * (dij_i - dji_0),
    }

    (s_ij_k, s_jk_i, s_ik_j, s_ji_k, s_ij_0, s_jk_0, s_ik_0, s_kj_0,
     D_ij_k, D_ji_k, D_jk_i, D_ik_j, D_ij_0, D_jk_0, D_ik_0,
     D_kj_0) = T.take(e_pos, axis=0)

    out.update({
        "E1": s_ij_k * s_jk_i * s_ik_0 - s_ij_0 * s_jk_0 * s_ik_j,
        "E2": s_jk_0 * s_ik_j * (D_ij_k - D_ij_0),
        "E3": s_ij_k * s_ik_0 * (D_jk_i - D_jk_0),
        "E4": s_ij_k * (D_ij_k * D_jk_0 + D_ji_k * D_ik_0 - D_ik_0 * D_jk_0),
        "E5": s_jk_0 * (D_ij_k * D_jk_0 + D_ik_j * D_kj_0 - D_ij_k * D_ik_j),
        "E6": s_ij_k * s_ji_k * D_ik_0 - s_jk_0 * s_kj_0 * D_ik_j
        + D_ij_k * D_jk_0 * (D_ij_k - D_jk_0),
    })
    return out


@lru_cache(maxsize=None)
def _peak_offsets(tags: int, entries: int, count: int) -> np.ndarray:
    """The flat positions of entry 0 of each tag and sample in a (tags,
    entries, count) array (cached, read-only)."""
    out = np.arange(0, tags * entries * count, entries * count)[:, None] + np.arange(count)
    out.setflags(write=False)
    return out


def _family_peaks(values: dict[str, np.ndarray], layout: EquationLayout) -> list[tuple]:
    """``(tag, peaks, args, indices)`` of each equation of the families with
    entries (an empty family keeps its 0.0), from :func:`_equation_values`
    of ``count`` samples: per sample, the largest modulus of the equation's
    values, the first entry at which it occurs, and the family's indices."""
    out = []
    for tags, indices in zip(_FAMILIES, layout.indices):
        if len(indices):
            mags = np.abs(np.stack([values[tag] for tag in tags]))  # (tags, entries, count)
            # one reduction, then the peak read at its entry: a max over the
            # middle axis would be a second, strided, reduction
            arg = mags.argmax(axis=1)
            at = arg * mags.shape[2]
            at += _peak_offsets(*mags.shape)
            out.extend(zip(tags, mags.take(at).tolist(), arg.tolist(), repeat(indices)))
    return out


#: Most entries of one operand of the batched equations in
#: :func:`check_system`: a chunk holds max(1, _SYSTEM_CHUNK // n^3) samples,
#: and a family has at most n^3 entries per sample.  8192 complex entries
#: are 128 KiB, below the 256 KiB from which numpy evaluates
#: ``a * fresh_temporary`` in place with the operands swapped (complex
#: products are not bitwise commutative), so a batch rounds as one sample.
_SYSTEM_CHUNK = 8192

def check_system(
    R: DynamicalRMatrix,
    samples: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Evaluate all sixteen component equations and the global relation at
    every sample point.

    The shift stencils of a chunk of samples are evaluated in one table
    call, so a :class:`PoleError` names the first pole of the first sample
    that has one; a sample of the wrong length raises ``ValueError`` before
    anything is evaluated.  ``tol`` must be finite and > 0.
    """
    _require_positive("tol", tol)
    if len(samples) < 1:
        raise ValueError("at least one sample point is required")
    n = R.n
    lams = [np.asarray(lam, dtype=complex) for lam in samples]
    for lam in lams:
        if lam.shape != (n,):
            _as_stack(stencil_points(lam), n)  # raises the stencil's stack error
    stencils = stencil_points(np.array(lams))
    per_eq = {tag: 0.0 for tag in EQUATION_TAGS}
    worst: Optional[WorstCase] = None
    global_res: list[float] = []
    sample_list = [tuple(lam.tolist()) for lam in lams]
    chunk = max(1, _SYSTEM_CHUNK // n ** 3)
    layout = _equation_layout(n)
    for start in range(0, len(stencils), chunk):
        part = stencils[start:start + chunk]
        count = len(part)
        delta, d = R.stacked_tables(part.reshape(-1, n))
        # one column per sample at unit scale: concat(delta_st.ravel(), d_st.ravel())
        T = np.concatenate([delta.reshape(count, -1).T, d.reshape(count, -1).T])
        ks, units = unit_scale(T, axis=0)
        peaks = _family_peaks(_equation_values(T, n), layout)
        for s, (k, unit) in enumerate(zip(ks, units)):
            norm = unit ** 3 or 1.0  # C = 0 has residuals of 0
            for tag, raw, arg, indices in peaks:
                res = raw[s] / norm
                if res > per_eq[tag]:
                    per_eq[tag] = res
                    if worst is None or res > worst.value:
                        worst = WorstCase(
                            equation=tag,
                            indices=tuple(indices[arg[s]].tolist()),
                            lam=sample_list[start + s],
                            value=res,
                        )
            global_res.append(_global_residual(np.ascontiguousarray(T[:, s]), n, k))
    return ResidualReport(
        global_residuals=global_res,
        per_equation=per_eq,
        samples=sample_list,
        worst_case=worst,
        tol=tol,
    )


def _exp(z: complex) -> complex:
    """e^z; above the float range, modulus inf (not OverflowError) and
    phase Im z, so that a real z gives a real inf."""
    try:
        return cmath.exp(z)
    except OverflowError:
        return cmath.rect(math.inf, z.imag)


@lru_cache(maxsize=None)
def _factor_positions(n: int) -> np.ndarray:
    """Where the determinant's factors sit in one point's ``concat(delta.ravel(),
    d.ravel())`` (cached, read-only ``np.intp``): each Delta_ii, then d_ij, d_ji,
    Delta_ij and Delta_ji, each over the pairs i < j in row-major order."""
    pos = np.empty(n * (2 * n - 1), dtype=np.intp)  # made first, as in _defect_layout
    I, J = np.indices((n, n)).reshape(2, -1)
    I, J = I[I < J], J[I < J]
    pos[:] = np.concatenate([np.arange(n) * (n + 1), n * n + I * n + J, n * n + J * n + I,
                             I * n + J, J * n + I])
    pos.setflags(write=False)
    return pos


def check_invertibility(R: DynamicalRMatrix, lam: np.ndarray) -> dict:
    """The determinant of R at ``lam`` from its factors, and whether R is
    invertible there.

    A zero-weight matrix is a direct sum of the 1x1 blocks Delta_ii and the
    plane blocks of the pairs i < j, so its determinant is the product of
    the Delta_ii and the plane determinants d_ij d_ji - Delta_ij Delta_ji.
    The factors are read at unit scale, times 2^k and 2^(2k), so that none
    overflows or underflows and c R is invertible where R is.
    At unit scale every factor is finite, and ``agree`` says that none is
    zero.  ``det_factorized`` is the exponential of the sum of their
    complex logarithms, less k n^2 log 2, inf or 0 outside the float range,
    or 0 when a factor is zero; ``det_dense`` holds the same value.
    ``detail`` names the first zero factor (diagonal ones first, then pairs
    in row-major order) and its value, or is None.
    """
    n = R.n
    tables = R.tables(np.asarray(lam, dtype=complex))
    g = np.concatenate([t.ravel() for t in tables]).take(_factor_positions(n))
    k, _ = unit_scale(g)  # g is all but d's zero diagonal: its C is the tables'
    d_ij, d_ji, delta_ij, delta_ji = g[n:].reshape(4, -1)
    factors = g[:n].tolist() + (d_ij * d_ji - delta_ij * delta_ji).tolist()
    if 0 not in factors:
        det = _exp(sum(map(cmath.log, factors)) - k * n ** 2 * math.log(2))
        detail = None
    else:
        bad = factors.index(0)
        if bad < n:
            where = f"Delta_ii at index {bad + 1}"
        else:
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            where = "det_ij at pair ({},{})".format(*pairs[bad - n])
        det = math.prod(factors)
        detail = f"factor {where} is {factors[bad]}"
    return {"det_factorized": det, "det_dense": det, "agree": detail is None,
            "detail": detail}


def shift_identities(R: DynamicalRMatrix, lam: np.ndarray) -> dict[tuple[int, int], float]:
    """Residuals of the characteristic shift identities of builder outputs.

    For a cross-d-class pair (i, j) inside one exchange class of a block
    with nonzero sum constant, the ratio Delta_ji/Delta_ij gains the factor
    e^{A eps_I} under a unit shift of any lam_k with k in the d-class of i;
    in a rational block the quotient sqrt(Sigma)/Delta_ij instead gains the
    additive increment eps_I.  Requires builder provenance.
    """
    if R.provenance is None or R.provenance.params is None:
        raise ValueError("shift identities require builder provenance")
    p = R.provenance.partition
    c = R.provenance.params
    block, xclass, cls_of = index_table(p).T.tolist()
    classes = p.all_d_classes()
    lam = np.asarray(lam, dtype=complex)
    dt0 = R.tables(lam)[0]
    out: dict[tuple[int, int], float] = {}
    for a, b in permutations(range(p.n), 2):
        if cls_of[a] == cls_of[b] or xclass[a] != xclass[b]:
            continue
        cls = classes[cls_of[a]]
        sign = int(c.signs[cls])
        consts = c.per_block[block[a]]
        derived = consts.derived
        dt1 = R.tables(shifted(lam, cls[0]))[0]
        if consts.rational:
            h0 = derived.sqrt_det / dt0[a, b]
            h1 = derived.sqrt_det / dt1[a, b]
            out[(a + 1, b + 1)] = abs(h1 - h0 - sign)
        else:
            b0 = dt0[b, a] / dt0[a, b]
            b1 = dt1[b, a] / dt1[a, b]
            expected = np.exp(derived.log_ratio * sign)
            out[(a + 1, b + 1)] = abs(b1 - b0 * expected)
    return out
