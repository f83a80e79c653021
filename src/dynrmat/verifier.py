"""Numerical certification of a dynamical R-matrix.

For zero-weight matrices the shifted Yang-Baxter relation on the triple
tensor product is equivalent to sixteen component equations (one diagonal
family G0, nine two-index families F1..F9, six three-index families
E1..E6), and :func:`check_system` evaluates the relation once, as those
equations' sides.  A zero-weight factor sends e_x (x) e_y to at most two
basis vectors, its swap and itself, so each side of the relation sends a
basis triple to 8 weighted path products.  A path through a d_xx, which
is 0, adds an exact zero; the others reach, one or two on each side, one
(column, row) entry per component equation and index tuple.  So each entry
of the defect is one equation's left side less its right side
(``_SIDES``): products only, no divisions, so identically-zero
coefficients never cause spurious failures.  They are read from the table
positions of :class:`EquationLayout`, built once per n: three gathers, two
products and two sums per pass over a chunk's samples, O(n^3) time and
memory instead of the O(n^9) time and O(n^6) memory of dense products.
The products go into a workspace of the calling thread, reused from call
to call and bounded by ``_DEFECT_PASS``.

A component residual is the largest |left - right| over its equation's
entries, and the global defect the largest over all sixteen.  An
equation whose factored form has a difference factor that vanishes
exactly (F1's Delta_ii(lam + e_j) - Delta_ii(lam) where the two are
equal) has sides that are products of other factors, equal only up to
rounding, so its residual reads round-off, not 0.0.  An index tuple with a
repeated index is no equation of its family, and counts as a residual of
0.

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
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import PoleError
from .partition import index_table
from .rmatrix import (
    DynamicalRMatrix,
    _as_stack,
    _column_max,
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


class EquationLayout(NamedTuple):
    """Where the sides of the global defect of size n read their factors,
    and which equation each of its entries is.

    The global defect has ``m`` entries, one per equation and entry, each
    a left and a right side (``_SIDES``).  ``products`` holds the positions,
    in a stencil's flattened tables ``concat(delta_st.ravel(),
    d_st.ravel())``, of the factors, in the order they act, of the first
    products of the m left and then the m right sides, then of the second
    products of the sides in the slices ``twice``.

    Each equation's entries are consecutive rows of a half: each i for G0,
    the pairs i != j for F and the triples of distinct indices for E, in
    row-major order.  ``tags`` names the equations with entries in
    ``EQUATION_TAGS`` order, and ``indices`` holds their entries' 1-based
    indices, one (entries, 1), (entries, 2) or (entries, 3) array each.
    ``offsets`` holds the first rows of these equations in the order of the
    rows, and ``rank`` the position there of each equation of ``tags``.
    """

    products: np.ndarray
    m: int
    twice: tuple[slice, slice]
    tags: tuple[str, ...]
    indices: tuple[np.ndarray, ...]
    offsets: np.ndarray
    rank: np.ndarray


#: Each equation's entry of the global defect as its left side and its
#: right side: the paths of R12(lam+h3) R13(lam) R23(lam+h1) and of
#: R23(lam) R13(lam+h2) R12(lam) to that entry, less those through a d_xx,
#: which is 0.  A side is one product or the sum of two, in path order; a
#: product names its three factors, as :func:`_equation_layout` places
#: them, in the order they act.  Left less right is the equation's value,
#: up to sign.
_SIDES = {
    "G0": ("diag_sh diag diag_sh", "diag diag_sh diag"),
    "F1": ("sij_i sij_0 dii_j", "dii_0 sij_i sij_0"),
    "F2": ("dii_j sji_0 sji_i", "sji_0 sji_i dii_0"),
    "F3": ("dij_i sij_0 dii_j", "sij_0 dii_j dij_0 + dji_0 dij_i sij_0"),
    "F4": ("dii_j sji_0 dij_i", "sji_0 dij_i dji_0 + dij_0 dii_j sji_0"),
    "F5": ("sij_i dji_0 dij_i + dji_i dii_0 sij_i", "dii_0 sij_i dji_0"),
    "F6": ("sji_i dii_0 dji_i + dij_i dji_0 sji_i", "dji_0 sji_i dii_0"),
    "F7": ("dii_j dij_0 dii_j", "dij_0 dii_j dij_0 + sji_0 dij_i sij_0"),
    "F8": ("dji_i dii_0 dji_i + sij_i dji_0 sji_i", "dii_0 dji_i dii_0"),
    "F9": ("dij_i dji_0 dij_i + sji_i dii_0 sij_i", "dji_0 dij_i dji_0 + sij_0 dii_j sji_0"),
    "E1": ("s_jk_i s_ik_0 s_ij_k", "s_ij_0 s_ik_j s_jk_0"),
    "E2": ("s_ik_j s_jk_0 D_ij_k", "D_ij_0 s_ik_j s_jk_0"),
    "E3": ("D_jk_i s_ik_0 s_ij_k", "s_ik_0 s_ij_k D_jk_0"),
    "E4": ("s_ij_k D_jk_0 D_ij_k + D_ji_k D_ik_0 s_ij_k", "D_ik_0 s_ij_k D_jk_0"),
    "E5": ("D_ik_j s_jk_0 D_ij_k", "s_jk_0 D_ij_k D_jk_0 + D_kj_0 D_ik_j s_jk_0"),
    "E6": ("D_ij_k D_jk_0 D_ij_k + s_ji_k D_ik_0 s_ij_k",
           "D_jk_0 D_ij_k D_jk_0 + s_kj_0 D_ik_j s_jk_0"),
}


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
    at = {  # each factor's positions at the entries of its family, G, F or E
        "diag": D(0, r, r), "diag_sh": D(r + 1, r, r),
        "dii_j": D(J + 1, I, I), "dii_0": D(0, I, I), "dij_0": D(0, I, J), "dji_0": D(0, J, I),
        "dij_i": D(I + 1, I, J), "dji_i": D(I + 1, J, I), "sij_0": s(0, I, J),
        "sji_0": s(0, J, I), "sij_i": s(I + 1, I, J), "sji_i": s(I + 1, J, I),
        "s_ij_k": s(k, I3, J3), "s_jk_i": s(i, J3, K3), "s_ik_j": s(j, I3, K3),
        "s_ji_k": s(k, J3, I3), "s_ij_0": s(0, I3, J3), "s_jk_0": s(0, J3, K3),
        "s_ik_0": s(0, I3, K3), "s_kj_0": s(0, K3, J3), "D_ij_k": D(k, I3, J3),
        "D_ji_k": D(k, J3, I3), "D_jk_i": D(i, J3, K3), "D_ik_j": D(j, I3, K3),
        "D_ij_0": D(0, I3, J3), "D_jk_0": D(0, J3, K3), "D_ik_0": D(0, I3, K3),
        "D_kj_0": D(0, K3, J3),
    }
    family = dict(zip("GFE", (np.stack(group, axis=1) + 1 for group in ([r], [I, J], [I3, J3, K3]))))
    width = {tag: len(family[tag[0]]) for tag in EQUATION_TAGS}
    # the equations whose left side has two products first, those whose
    # right side has next: each side's second products add to one slice
    two = {tag: [" + " in side for side in _SIDES[tag]] for tag in EQUATION_TAGS}
    order = sorted(EQUATION_TAGS, key=lambda tag: (not two[tag][0], two[tag][0] == two[tag][1]))
    sides = [_SIDES[tag][b].split(" + ") for b in (0, 1) for tag in order]
    chosen = [side[0] for side in sides] + [side[1] for side in sides if len(side) > 1]
    products = np.concatenate([[at[name] for name in product.split()] for product in chosen],
                              axis=1, dtype=np.intp)
    # an equation without entries gets no row: reduceat reads a segment of
    # width 0 as the next row, not as empty
    first = dict(zip(order, np.cumsum([0] + [width[tag] for tag in order]).tolist()))
    rows = [tag for tag in order if width[tag]]
    tags = tuple(tag for tag in EQUATION_TAGS if width[tag])
    offsets = np.array([first[tag] for tag in rows], dtype=np.intp)
    rank = np.array([rows.index(tag) for tag in tags], dtype=np.intp)
    for arr in (products, offsets, rank, *family.values()):
        arr.setflags(write=False)
    m = sum(width.values())
    start = m + sum(width[tag] for tag in order if two[tag] == [True, False])
    twice = (slice(0, sum(width[tag] for tag in order if two[tag][0])),
             slice(start, start + sum(width[tag] for tag in order if two[tag][1])))
    return EquationLayout(products, m, twice, tags, tuple(family[tag[0]] for tag in tags),
                          offsets, rank)


#: Each thread's workspace for the products of :func:`_side_passes`, grown
#: to the largest size asked: a fresh array of that size, made and freed on
#: every call, faults its pages in anew each time from n = 6.
_WORKSPACE = threading.local()

#: Most products in one pass of :func:`_side_passes` (1 MiB), split evenly
#: over the samples, so that the workspace, kept from call to call, stays
#: small: one pass over all 8 samples at n = 9 raised ``certify``'s peak
#: RSS by about 1 MB.  n = 9, 8 samples: 2 passes.
_DEFECT_PASS = 1 << 16


def _side_passes(T: np.ndarray, n: int):
    """The sides of the relation at S flattened shift stencils, the columns
    of ``T``, (2 (n+1) n^2, S), in passes over groups of g stencils.

    Yields, per pass, the slice of its stencils, |left - right| at each of
    the m defect entries, (m, g), and each stencil's scale, the max-abs
    entry of the two sides.  Each product is its factors multiplied in the
    order they act (complex products are not bitwise commutative), as a
    walk of the paths takes it.
    """
    layout = _equation_layout(n)
    a, b, c = layout.products
    m = layout.m
    lefts, rights = layout.twice
    count = T.shape[1]
    group = -(-count // -(-a.size * count // _DEFECT_PASS))  # samples per pass, balanced
    space = getattr(_WORKSPACE, "space", None)
    if space is None or space.size < a.size * group:
        space = _WORKSPACE.space = np.empty(a.size * group, dtype=complex)
    for start in range(0, count, group):
        part = T[:, start:start + group]
        w = space[:a.size * part.shape[1]].reshape(a.size, -1)
        np.take(part, a, axis=0, out=w, mode="clip")  # not "raise": no buffer before ``out``
        w *= part.take(b, axis=0)
        w *= part.take(c, axis=0)
        sides, second = w[:2 * m], w[2 * m:]
        sides[lefts] += second[:lefts.stop]
        sides[rights] += second[lefts.stop:]
        mags = np.abs(sides)
        scales = _column_max(mags)
        left, right = sides.reshape(2, m, -1)
        left -= right
        yield slice(start, start + part.shape[1]), np.abs(left, out=mags[:m]), scales


def _equation_peaks(mags: np.ndarray, layout: EquationLayout) -> np.ndarray:
    """The largest of ``mags``, a pass's (m, g) |left - right|, over each
    equation's entries: (len(layout.tags), g), in the order of ``tags``."""
    return np.maximum.reduceat(mags, layout.offsets, axis=0).take(layout.rank, axis=0)


def _defects(T: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw max-abs defect of the relation, and scale, the max-abs entry of
    its two sides, at S flattened shift stencils, the columns of ``T``,
    (2 (n+1) n^2, S): two (S,) arrays."""
    layout = _equation_layout(n)
    raws, scales = np.empty(T.shape[1]), np.empty(T.shape[1])
    for cols, mags, scale in _side_passes(T, n):
        raws[cols] = _column_max(_equation_peaks(mags, layout))
        scales[cols] = scale
    return raws, scales


def _stencil_defect(delta_st: np.ndarray, d_st: np.ndarray) -> tuple[float, float]:
    """Raw max-abs defect and scale of the relation at one shift stencil's
    (n+1, n, n) tables."""
    T = np.concatenate([delta_st.ravel(), d_st.ravel()])
    return tuple(float(v[0]) for v in _defects(T[:, None], delta_st.shape[1]))


def dqybe_defect(R: DynamicalRMatrix, lam: np.ndarray) -> tuple[float, float]:
    """Raw max-abs defect of the shifted Yang-Baxter relation and the
    max-abs entry of the two three-factor products (the natural scale)."""
    return _stencil_defect(*shift_stencil(R, np.asarray(lam, dtype=complex)))


def _global_residual(raw: float, scale: float, k: int) -> float:
    """The global residual of one stencil from the raw defect and scale of
    its tables at unit scale, times 2^k: raw / max(2^(3k), scale), without
    2^(3k), which is no float when C is below 2^-341 or above 2^358."""
    if scale and math.frexp(scale)[1] > 3 * k:  # scale >= 2^(3k)
        return raw / scale
    return math.ldexp(raw, -3 * k)


def dqybe_residual_normalized(R: DynamicalRMatrix, lam: np.ndarray) -> float:
    """The global residual that :func:`check_system` reports at ``lam``."""
    T = np.concatenate([t.ravel() for t in shift_stencil(R, np.asarray(lam, dtype=complex))])
    k, _ = unit_scale(T)
    return _global_residual(*(float(v[0]) for v in _defects(T[:, None], R.n)), k)


#: A chunk of :func:`check_system` holds max(1, _SYSTEM_CHUNK // n^3)
#: samples, whose stencils are read in one table call: ``DEFAULT_SAMPLES``
#: samples take one chunk up to n = 10, and however many samples there
#: are, a chunk's tables, 2 (n+1) n^2 complex entries a sample, hold at most
#: 16384 (n+1) / n entries (512 KiB at n = 1) up to n = 20, one sample's
#: above.
_SYSTEM_CHUNK = 8192

def check_system(
    R: DynamicalRMatrix,
    samples: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Evaluate the shifted relation, as its sixteen component equations'
    sides, at every sample point.

    Each equation's residual is the largest |left - right| over its
    entries, normalized per sample (see the module docstring); the global
    residual is read off the same entries.  ``worst`` is the first largest
    residual, in sample order, then ``EQUATION_TAGS`` order, then entry
    order, or None when all are 0.

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
    layout = _equation_layout(n)
    tags = layout.tags
    peak = np.zeros(len(tags))
    worst: Optional[WorstCase] = None
    global_res: list[float] = []
    sample_list = [tuple(lam.tolist()) for lam in lams]
    chunk = max(1, _SYSTEM_CHUNK // n ** 3)
    for start in range(0, len(stencils), chunk):
        part = stencils[start:start + chunk]
        count = len(part)
        delta, d = R.stacked_tables(part.reshape(-1, n))
        # one column per sample at unit scale: concat(delta_st.ravel(), d_st.ravel())
        T = np.concatenate([delta.reshape(count, -1).T, d.reshape(count, -1).T])
        ks, units = unit_scale(T, axis=0)
        norms = np.array([unit ** 3 or 1.0 for unit in units])  # C = 0 has residuals of 0
        for cols, mags, scales in _side_passes(T, n):
            peaks = _equation_peaks(mags, layout)
            res = peaks / norms[cols]
            np.maximum(peak, res.max(axis=1), out=peak)
            s, t = divmod(int(res.T.argmax()), len(tags))  # the first largest
            if res[t, s] > (worst.value if worst else 0.0):
                row = layout.offsets[layout.rank[t]]
                entries = layout.indices[t]
                worst = WorstCase(
                    equation=tags[t],
                    indices=tuple(entries[mags[row:row + len(entries), s].argmax()].tolist()),
                    lam=sample_list[start + cols.start + s],
                    value=float(res[t, s]),
                )
            for raw, scale, k in zip(_column_max(peaks).tolist(), scales.tolist(), ks[cols]):
                global_res.append(_global_residual(raw, scale, k))
    per_eq = dict.fromkeys(EQUATION_TAGS, 0.0)
    per_eq.update(zip(tags, peak.tolist()))
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
    # made before the temporaries, so that it does not sit on top of the heap
    pos = np.empty(n * (2 * n - 1), dtype=np.intp)
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
