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
entries each of the 16 n^3 path products multiplies, and which (column,
row) entry it is summed into, depends on n only: that layout is built once
per n.  A sample's defect is then three gathers from its shift stencil's
tables and two ``bincount`` sums, O(n^3) time and memory instead of the
O(n^9) time and O(n^6) memory of dense products.

:func:`check_system` evaluates the shift stencils of its samples in one
table call and the component equations on the whole stack of stencils, a
chunk of samples at a time, so that no batched array holds more than
``_SYSTEM_CHUNK`` entries unless one sample's n^3 does; the global defect
is taken per sample.

Residuals are cubic in the matrix coefficients, so all pass/fail decisions
are made on *normalized* residuals: the raw max-abs defect divided by
max(1, C^3) where C is the largest coefficient magnitude seen at the
sample (equivalently, relative to the size of the three-factor products,
with an absolute fallback when all entries are O(1)).  A sample with C
above 2^256 is divided by a power of two first (``_RESCALE_ABOVE``), so
that its products cannot overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import PoleError
from .rmatrix import (
    DynamicalRMatrix,
    _TABLE_CACHE_MAX,
    _as_stack,
    dense_from_tables,
    pair_invariants,
    shift_stencil,
    shifted,
    stencil_points,
)

EQUATION_TAGS = ("G0",) + tuple(f"F{k}" for k in range(1, 10)) + tuple(
    f"E{k}" for k in range(1, 7)
)

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 8

#: check_invertibility's bound on the difference of the two log-determinants:
#: a relative tolerance on |det| and an absolute one, in radians, on its phase.
INVERTIBILITY_TOL = 1e-8

#: Rejection-sampler bound on coefficient magnitudes; keeps cubic products
#: well inside the meaningful range of double precision.
DEFAULT_ENTRY_CAP = 1e3


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
    together, at most ``_TABLE_CACHE_MAX`` points per table call.
    ``box`` and ``entry_cap`` must be finite and > 0.
    """
    _require_positive("box", box)
    _require_positive("entry_cap", entry_cap)
    n = R.n
    width = n + 1 if stencil else 1
    per_call = max(1, _TABLE_CACHE_MAX // width)
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
            points = stencil_points(chunk).reshape(-1, n) if stencil else chunk
            delta, d = R.lookup(points)
            mags = np.concatenate([np.abs(delta), np.abs(d)], axis=1)
            mags = mags.reshape(len(chunk), -1)
            ok = np.isfinite(mags).all(axis=1) & ~(mags.max(axis=1) > entry_cap)
            out.extend(chunk[ok])
    return out


#: The three factors of each side in the order they act on a column (the
#: rightmost first): the 0-based slot pair and whether the spectating slot's
#: index shifts the evaluation point.
_LEFT = (((1, 2), True), ((0, 2), False), ((0, 1), True))    # R12(lam+h3) R13(lam) R23(lam+h1)
_RIGHT = (((0, 1), False), ((0, 2), True), ((1, 2), False))  # R23(lam) R13(lam+h2) R12(lam)


class DefectLayout(NamedTuple):
    """Where the 16 n^3 path products of both sides come from and go to.

    ``T`` is a stencil's tables flattened into one vector,
    ``concat(delta_st.ravel(), d_st.ravel())``.  Product k multiplies
    ``T[gather[0][k]] * T[gather[1][k]] * T[gather[2][k]]``, its factors in
    the order they act.  The first 8 n^3 products are the left side's, the
    rest the right side's; path j of column c of a side sits at j n^3 + c
    of that side.  ``bins[k]`` is the (column, row) entry it is summed
    into: left entries in [0, m), right entries in [m, 2m).
    """

    gather: tuple[np.ndarray, np.ndarray, np.ndarray]
    bins: np.ndarray
    m: int


@lru_cache(maxsize=None)
def _defect_layout(n: int) -> DefectLayout:
    """The :class:`DefectLayout` of size n (cached, read-only int32 arrays).

    Starting from each basis triple, a factor on slots (p, q) sends
    e_x (x) e_y to Delta_yx e_y (x) e_x + d_xy e_x (x) e_y, with its tables
    taken at stencil index 0, or at spectator index + 1 when shifted.
    """
    size = n ** 3
    d_offset = (n + 1) * n * n
    rows, gathers = [], []
    for factors in (_LEFT, _RIGHT):
        state = np.indices((n, n, n)).reshape(3, -1)
        picks: list[np.ndarray] = []
        for (p, q), shift in factors:
            x, y = state[p], state[q]
            at = state[3 - p - q] + 1 if shift else 0
            swapped = state.copy()
            swapped[p], swapped[q] = y, x
            state = np.concatenate([swapped, state], axis=1)
            picks = [np.concatenate([g, g]) for g in picks]
            picks.append(np.concatenate([(at * n + y) * n + x,
                                         d_offset + (at * n + x) * n + y]))
        rows.append((state[0] * n + state[1]) * n + state[2])
        gathers.append(picks)
    keys, inv = np.unique(np.tile(np.arange(size), 16) * size + np.concatenate(rows),
                          return_inverse=True)
    m = keys.size
    bins = inv + np.repeat([0, m], 8 * size)
    arrays = [np.concatenate(pair).astype(np.int32) for pair in zip(*gathers)]
    arrays.append(bins.astype(np.int32))
    for arr in arrays:
        arr.setflags(write=False)
    return DefectLayout(tuple(arrays[:3]), arrays[3], m)


def _path_weights(delta_st: np.ndarray, d_st: np.ndarray) -> np.ndarray:
    """The weights of all 16 n^3 path products of one stencil's tables."""
    gather = _defect_layout(delta_st.shape[1]).gather
    T = np.concatenate([delta_st.ravel(), d_st.ravel()])
    # the product so far times the next factor, as the factors act (complex
    # products are not bitwise commutative); take() beats T[int32 indices]
    w = T.take(gather[0])
    w *= T.take(gather[1])
    w *= T.take(gather[2])
    return w


def _stencil_defect(delta_st: np.ndarray, d_st: np.ndarray) -> tuple[float, float]:
    """Raw max-abs defect and scale of the relation at one shift stencil's
    (n+1, n, n) tables."""
    layout = _defect_layout(delta_st.shape[1])
    w = _path_weights(delta_st, d_st)
    m = layout.m
    sums = (np.bincount(layout.bins, w.real, 2 * m)
            + 1j * np.bincount(layout.bins, w.imag, 2 * m))
    left, right = sums[:m], sums[m:]
    raw = float(np.abs(left - right).max())
    scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
    return raw, scale


def dqybe_defect(R: DynamicalRMatrix, lam: np.ndarray) -> tuple[float, float]:
    """Raw max-abs defect of the shifted Yang-Baxter relation and the
    max-abs entry of the two three-factor products (the natural scale)."""
    return _stencil_defect(*shift_stencil(R, np.asarray(lam, dtype=complex)))


def dqybe_residual_normalized(R: DynamicalRMatrix, lam: np.ndarray) -> float:
    raw, scale = dqybe_defect(R, lam)
    return raw / max(1.0, scale)


@lru_cache(maxsize=None)
def _equation_grids(n: int) -> tuple[np.ndarray, ...]:
    """The index grids of the component equations of size n (cached,
    read-only): ``arange(n)``; the (n, n) grids I, J and their mask
    I != J; the (n, n, n) grids I3, J3, K3 and their mask of pairwise
    distinct indices."""
    r = np.arange(n)
    I, J = np.meshgrid(r, r, indexing="ij")
    I3, J3, K3 = np.meshgrid(r, r, r, indexing="ij")
    grids = (r, I, J, I != J, I3, J3, K3, (I3 != J3) & (J3 != K3) & (I3 != K3))
    for arr in grids:
        arr.setflags(write=False)
    return grids


def _equation_values(
    delta0: np.ndarray,
    d0: np.ndarray,
    delta_sh: np.ndarray,
    d_sh: np.ndarray,
) -> dict[str, np.ndarray]:
    """All sixteen component-equation value arrays at a stack of S samples.

    ``delta0`` / ``d0`` are the (S, n, n) tables at the samples, and
    ``delta_sh[:, k]`` / ``d_sh[:, k]`` the tables at the points with
    component k+1 shifted by one unit.  Each value array has the sample
    axis first: (S, n) for G0, (S, n, n) for F1..F9, (S, n, n, n) for
    E1..E6.
    """
    r, I, J, offdiag, I3, J3, K3, distinct = _equation_grids(delta0.shape[1])

    diag = np.diagonal(delta0, axis1=1, axis2=2)
    diag_sh = delta_sh[:, r, r, r]                    # Delta_ii at shift i
    g0 = diag * diag_sh * (diag_sh - diag)

    dii_j = delta_sh[:, J, I, I]                      # Delta_ii at shift j
    dii_0 = delta0[:, I, I]
    dij_0 = delta0
    dji_0 = delta0.transpose(0, 2, 1)
    dij_i = delta_sh[:, I, I, J]                      # Delta_ij at shift i
    dji_i = delta_sh[:, I, J, I]
    sij_0 = d0
    sji_0 = d0.transpose(0, 2, 1)
    sij_i = d_sh[:, I, I, J]
    sji_i = d_sh[:, I, J, I]

    brace_34 = dii_j * dij_i - dii_j * dij_0 - dji_0 * dij_i
    brace_56 = dii_0 * dji_i - dii_0 * dji_0 + dji_0 * dij_i

    pair = {
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
    for tag in pair:
        pair[tag] = np.where(offdiag, pair[tag], 0)

    out: dict[str, np.ndarray] = {"G0": g0, **pair}

    s_ij_k = d_sh[:, K3, I3, J3]
    s_jk_i = d_sh[:, I3, J3, K3]
    s_ik_j = d_sh[:, J3, I3, K3]
    s_ji_k = d_sh[:, K3, J3, I3]
    s_ij_0 = d0[:, I3, J3]
    s_jk_0 = d0[:, J3, K3]
    s_ik_0 = d0[:, I3, K3]
    s_kj_0 = d0[:, K3, J3]
    D_ij_k = delta_sh[:, K3, I3, J3]
    D_ji_k = delta_sh[:, K3, J3, I3]
    D_jk_i = delta_sh[:, I3, J3, K3]
    D_ik_j = delta_sh[:, J3, I3, K3]
    D_ij_0 = delta0[:, I3, J3]
    D_jk_0 = delta0[:, J3, K3]
    D_ik_0 = delta0[:, I3, K3]
    D_kj_0 = delta0[:, K3, J3]

    triple = {
        "E1": s_ij_k * s_jk_i * s_ik_0 - s_ij_0 * s_jk_0 * s_ik_j,
        "E2": s_jk_0 * s_ik_j * (D_ij_k - D_ij_0),
        "E3": s_ij_k * s_ik_0 * (D_jk_i - D_jk_0),
        "E4": s_ij_k * (D_ij_k * D_jk_0 + D_ji_k * D_ik_0 - D_ik_0 * D_jk_0),
        "E5": s_jk_0 * (D_ij_k * D_jk_0 + D_ik_j * D_kj_0 - D_ij_k * D_ik_j),
        "E6": s_ij_k * s_ji_k * D_ik_0 - s_jk_0 * s_kj_0 * D_ik_j
        + D_ij_k * D_jk_0 * (D_ij_k - D_jk_0),
    }
    for tag in triple:
        out[tag] = np.where(distinct, triple[tag], 0)
    return out


#: Most entries of one batched equation array in :func:`check_system`: a
#: chunk holds max(1, _SYSTEM_CHUNK // n^3) samples.  8192 complex entries
#: are 128 KiB, below the 256 KiB from which numpy evaluates
#: ``a * fresh_temporary`` in place with the operands swapped (complex
#: products are not bitwise commutative), so a batch rounds as one sample.
_SYSTEM_CHUNK = 8192

#: :func:`check_system` divides the tables of a sample whose largest
#: coefficient modulus C is above this by 2^(e-1), e the binary exponent of
#: C, so that its cubic residuals cannot overflow.  A power of two scales
#: exactly and the equations are homogeneous, so the normalized residuals
#: keep their values.
_RESCALE_ABOVE = 2.0 ** 256


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
    stencils = [_as_stack(stencil_points(lam), n) for lam in lams]
    per_eq = {tag: 0.0 for tag in EQUATION_TAGS}
    worst: Optional[WorstCase] = None
    global_res: list[float] = []
    sample_list = [tuple(lam.tolist()) for lam in lams]
    chunk = max(1, _SYSTEM_CHUNK // n ** 3)
    for start in range(0, len(stencils), chunk):
        part = stencils[start:start + chunk]
        count = len(part)
        delta, d = R.stacked_tables(np.concatenate(part))
        delta = delta.reshape(count, n + 1, n, n)
        d = d.reshape(count, n + 1, n, n)
        scales = np.maximum(np.abs(delta).reshape(count, -1).max(axis=1),
                            np.abs(d).reshape(count, -1).max(axis=1))
        big = scales > _RESCALE_ABOVE
        if big.any():
            factor = np.ldexp(1.0, 1 - np.frexp(np.where(big, scales, 1.0))[1])
            scales = scales * factor
            delta = delta * factor[:, None, None, None]
            d = d * factor[:, None, None, None]
        values = _equation_values(delta[:, 0], d[:, 0], delta[:, 1:], d[:, 1:])
        peaks = {}
        for tag, arr in values.items():
            mags = np.abs(arr).reshape(count, -1)
            peaks[tag] = mags.max(axis=1), mags.argmax(axis=1), arr.shape[1:]
        for s in range(count):
            norm = max(1.0, float(scales[s]) ** 3)
            for tag in EQUATION_TAGS:
                raw, arg, shape = peaks[tag]
                res = float(raw[s]) / norm
                if res > per_eq[tag]:
                    per_eq[tag] = res
                    idx = np.unravel_index(int(arg[s]), shape)
                    indices = tuple(int(v) + 1 for v in idx)
                    if worst is None or res > worst.value:
                        worst = WorstCase(
                            equation=tag,
                            indices=indices,
                            lam=sample_list[start + s],
                            value=res,
                        )
            raw_defect, defect_scale = _stencil_defect(delta[s], d[s])
            global_res.append(raw_defect / max(1.0, defect_scale))
    return ResidualReport(
        global_residuals=global_res,
        per_equation=per_eq,
        samples=sample_list,
        worst_case=worst,
        tol=tol,
    )


def _exp(z: complex) -> complex:
    """e^z, with modulus inf (not OverflowError) above the float range."""
    try:
        return cmath.exp(z)
    except OverflowError:
        return complex(math.inf * math.cos(z.imag), math.inf * math.sin(z.imag))


def check_invertibility(R: DynamicalRMatrix, lam: np.ndarray) -> dict:
    """Compare the factorized determinant with a dense LU determinant.

    The factors are the Delta_ii and the plane determinants
    d_ij d_ji - Delta_ij Delta_ji, i < j.  Both sides are compared as
    complex logarithms, so neither overflows nor underflows: ``agree``
    needs every factor finite and nonzero, and log|det| and the phase
    (modulo 2 pi) of the two sides to agree within ``INVERTIBILITY_TOL``.
    ``det_factorized`` and ``det_dense`` are the exponentials of the two
    logarithms, inf or 0 outside the float range (``det_factorized`` is the
    plain product when a factor is zero or not finite).  ``detail`` says why
    ``agree`` is False, naming the first zero or non-finite factor
    (diagonal ones first, then pairs in row-major order), or is None.
    """
    lam = np.asarray(lam, dtype=complex)
    delta_tab, d_tab = R.tables(lam)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite factor is named below
        _, dets = pair_invariants(delta_tab, d_tab)
    factors = np.diagonal(delta_tab).tolist()
    for i, row in enumerate(dets.tolist()):
        factors += row[i + 1:]
    sign, log_abs = np.linalg.slogdet(dense_from_tables(delta_tab, d_tab))
    det_dense = _exp(complex(log_abs, cmath.phase(sign)))
    try:
        log_fact = sum(map(cmath.log, factors))
    except ValueError:  # a zero factor
        log_fact = complex("nan")
    if not cmath.isfinite(log_fact):
        k = next(k for k, v in enumerate(factors) if v == 0 or not cmath.isfinite(v))
        n = R.n
        if k < n:
            where = f"Delta_ii at index {k + 1}"
        else:
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            where = "det_ij at pair ({},{})".format(*pairs[k - n])
        detail = f"factor {where} is {factors[k]}, zero or not finite"
        det_fact = math.prod(factors)
    else:
        det_fact = _exp(log_fact)
        d_mod = log_fact.real - float(log_abs)
        d_phase = math.remainder(log_fact.imag - cmath.phase(sign), 2 * math.pi)
        detail = None
        if not max(abs(d_mod), abs(d_phase)) <= INVERTIBILITY_TOL:
            detail = (f"log-determinants differ by {d_mod:.3e} in modulus and "
                      f"{d_phase:.3e} in phase")
    return {"det_factorized": det_fact, "det_dense": det_dense,
            "agree": detail is None, "detail": detail}


def shift_identities(R: DynamicalRMatrix, lam: np.ndarray) -> dict[tuple[int, int], float]:
    """Residuals of the characteristic shift identities of builder outputs.

    For a cross-d-class pair (i, j) inside one exchange class of a block
    with nonzero sum constant, the ratio Delta_ji/Delta_ij gains the factor
    e^{A eps_I} under a unit shift of any lam_k with k in the d-class of i;
    in a rational block the quotient sqrt(Sigma)/Delta_ij instead gains the
    additive increment eps_I.  Requires builder provenance.
    """
    from .builder import _index_table  # local import to avoid a cycle
    from .params import derive, principal_sqrt

    if R.provenance is None or R.provenance.params is None:
        raise ValueError("shift identities require builder provenance")
    p = R.provenance.partition
    c = R.provenance.params
    info = _index_table(p, c)
    lam = np.asarray(lam, dtype=complex)
    dt0 = R.tables(lam)[0]
    out: dict[tuple[int, int], float] = {}
    for i in range(1, p.n + 1):
        for j in range(1, p.n + 1):
            if i == j:
                continue
            fi, fj = info[i], info[j]
            if fi.d_class == fj.d_class or fi.delta_class != fj.delta_class:
                continue
            consts = c.per_block[fi.block]
            dt1 = R.tables(shifted(lam, fi.d_class[0]))[0]
            a, b = i - 1, j - 1
            if consts.rational:
                h0 = principal_sqrt(consts.det_const) / dt0[a, b]
                h1 = principal_sqrt(consts.det_const) / dt1[a, b]
                out[(i, j)] = abs(h1 - h0 - fi.sign)
            else:
                derived = derive(consts.sum_const, consts.det_const)
                b0 = dt0[b, a] / dt0[a, b]
                b1 = dt1[b, a] / dt1[a, b]
                expected = np.exp(derived.log_ratio * fi.sign)
                out[(i, j)] = abs(b1 - b0 * expected)
    return out
