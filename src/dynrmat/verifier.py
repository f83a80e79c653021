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
path products, all landing on permutations of that triple.  The path
products of every column are built at once from one shift stencil and
summed per (column, row) entry, which costs O(n^3) time and memory per
sample instead of the O(n^9) time and O(n^6) memory of dense products.

Residuals are cubic in the matrix coefficients, so all pass/fail decisions
are made on *normalized* residuals: the raw max-abs defect divided by
max(1, C^3) where C is the largest coefficient magnitude seen at the
sample (equivalently, relative to the size of the three-factor products,
with an absolute fallback when all entries are O(1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PoleError
from .rmatrix import (
    DensePoint,
    DynamicalRMatrix,
    evaluate,
    _TABLE_CACHE_MAX,
    shift_stencil,
    shifted,
    stencil_points,
    zero_weight_layout,
)

EQUATION_TAGS = ("G0",) + tuple(f"F{k}" for k in range(1, 10)) + tuple(
    f"E{k}" for k in range(1, 7)
)

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 8

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
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        if any(r >= self.tol for r in self.global_residuals):
            return False
        return all(v < self.tol for v in self.per_equation.values())


def sample_lambda(
    R: DynamicalRMatrix,
    rng: np.random.Generator,
    count: int,
    box: float = 2.0,
    entry_cap: float = DEFAULT_ENTRY_CAP,
    max_tries: int = 2000,
) -> list[np.ndarray]:
    """Draw dynamical points with independent uniform real/imaginary parts
    in [-box, box], rejecting points where the matrix (or any of its n
    singly-shifted evaluations) hits a pole or exceeds the entry cap.

    Each round draws exactly as many points as are still missing, so the
    accepted points and the final state of ``rng`` are those of drawing
    one point at a time.  The shift stencils of a round are evaluated
    together, at most ``_TABLE_CACHE_MAX`` points per table call.
    """
    n = R.n
    per_call = max(1, _TABLE_CACHE_MAX // (n + 1))
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
            delta, d = R.lookup(stencil_points(chunk).reshape(-1, n))
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


def _path_products(
    delta_st: np.ndarray, d_st: np.ndarray, factors
) -> tuple[np.ndarray, np.ndarray]:
    """Row and weight of every path product of one side of the relation.

    Starting from each basis triple, a factor on slots (p, q) sends
    e_x (x) e_y to Delta_yx e_y (x) e_x + d_xy e_x (x) e_y, with its tables
    taken at stencil index 0, or at spectator index + 1 when shifted.
    Path k of column c sits at position k n^3 + c of the 8 n^3 outputs.
    """
    n = delta_st.shape[1]
    state = np.indices((n, n, n)).reshape(3, -1)
    weight = np.ones(n ** 3, dtype=complex)
    for (p, q), shift in factors:
        x, y = state[p], state[q]
        at = state[3 - p - q] + 1 if shift else 0
        swapped = state.copy()
        swapped[p], swapped[q] = y, x
        state = np.concatenate([swapped, state], axis=1)
        weight = np.concatenate([weight * delta_st[at, y, x], weight * d_st[at, x, y]])
    return (state[0] * n + state[1]) * n + state[2], weight


def dqybe_defect(R: DynamicalRMatrix, lam: np.ndarray) -> tuple[float, float]:
    """Raw max-abs defect of the shifted Yang-Baxter relation and the
    max-abs entry of the two three-factor products (the natural scale)."""
    delta_st, d_st = shift_stencil(R, np.asarray(lam, dtype=complex))
    left_rows, left_w = _path_products(delta_st, d_st, _LEFT)
    right_rows, right_w = _path_products(delta_st, d_st, _RIGHT)
    size = R.n ** 3
    cols = np.tile(np.arange(size), 16)
    keys, inv = np.unique(
        cols * size + np.concatenate([left_rows, right_rows]), return_inverse=True
    )
    # left entries in bins [0, m), right entries in [m, 2m)
    m = keys.size
    bins = inv + np.repeat([0, m], left_w.size)
    w = np.concatenate([left_w, right_w])
    sums = np.bincount(bins, w.real, 2 * m) + 1j * np.bincount(bins, w.imag, 2 * m)
    left, right = sums[:m], sums[m:]
    raw = float(np.abs(left - right).max())
    scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
    return raw, scale


def dqybe_residual(R: DynamicalRMatrix, lam: np.ndarray) -> float:
    """Raw max-abs defect of the shifted Yang-Baxter relation at ``lam``."""
    return dqybe_defect(R, lam)[0]


def dqybe_residual_normalized(R: DynamicalRMatrix, lam: np.ndarray) -> float:
    raw, scale = dqybe_defect(R, lam)
    return raw / max(1.0, scale)


def _equation_values(
    delta0: np.ndarray,
    d0: np.ndarray,
    delta_sh: np.ndarray,
    d_sh: np.ndarray,
) -> dict[str, np.ndarray]:
    """All sixteen component-equation value arrays at one sample.

    ``delta_sh[k]`` / ``d_sh[k]`` are the coefficient tables at the point
    with component k+1 shifted by one unit.
    """
    n = delta0.shape[0]
    r = np.arange(n)
    I, J = np.meshgrid(r, r, indexing="ij")

    diag = np.diagonal(delta0)
    diag_sh = delta_sh[r, r, r]                       # Delta_ii at shift i
    g0 = diag * diag_sh * (diag_sh - diag)

    dii_j = delta_sh[J, I, I]                         # Delta_ii at shift j
    dii_0 = delta0[I, I]
    dij_0 = delta0
    dji_0 = delta0.T
    dij_i = delta_sh[I, I, J]                         # Delta_ij at shift i
    dji_i = delta_sh[I, J, I]
    sij_0 = d0
    sji_0 = d0.T
    sij_i = d_sh[I, I, J]
    sji_i = d_sh[I, J, I]

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
    offdiag = I != J
    for tag in pair:
        pair[tag] = np.where(offdiag, pair[tag], 0)

    out: dict[str, np.ndarray] = {"G0": g0, **pair}

    I3, J3, K3 = np.meshgrid(r, r, r, indexing="ij")
    distinct = (I3 != J3) & (J3 != K3) & (I3 != K3)
    s_ij_k = d_sh[K3, I3, J3]
    s_jk_i = d_sh[I3, J3, K3]
    s_ik_j = d_sh[J3, I3, K3]
    s_ji_k = d_sh[K3, J3, I3]
    s_ij_0 = d0[I3, J3]
    s_jk_0 = d0[J3, K3]
    s_ik_0 = d0[I3, K3]
    s_kj_0 = d0[K3, J3]
    D_ij_k = delta_sh[K3, I3, J3]
    D_ji_k = delta_sh[K3, J3, I3]
    D_jk_i = delta_sh[I3, J3, K3]
    D_ik_j = delta_sh[J3, I3, K3]
    D_ij_0 = delta0[I3, J3]
    D_jk_0 = delta0[J3, K3]
    D_ik_0 = delta0[I3, K3]
    D_kj_0 = delta0[K3, J3]

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


def check_system(
    R: DynamicalRMatrix,
    samples: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Evaluate all sixteen component equations at every sample point."""
    if len(samples) < 1:
        raise ValueError("at least one sample point is required")
    per_eq = {tag: 0.0 for tag in EQUATION_TAGS}
    worst: Optional[WorstCase] = None
    global_res: list[float] = []
    sample_list: list[tuple[complex, ...]] = []
    for lam in samples:
        lam = np.asarray(lam, dtype=complex)
        sample_list.append(tuple(lam.tolist()))
        delta_st, d_st = shift_stencil(R, lam)
        scale = max(float(np.abs(delta_st).max()), float(np.abs(d_st).max()))
        norm = max(1.0, scale ** 3)
        values = _equation_values(delta_st[0], d_st[0], delta_st[1:], d_st[1:])
        for tag, arr in values.items():
            mags = np.abs(arr)
            raw = float(mags.max()) if mags.size else 0.0
            res = raw / norm
            if res > per_eq[tag]:
                per_eq[tag] = res
                idx = np.unravel_index(int(np.argmax(mags)), mags.shape)
                indices = tuple(int(v) + 1 for v in idx)
                if worst is None or res > worst.value:
                    worst = WorstCase(
                        equation=tag,
                        indices=indices,
                        lam=tuple(lam.tolist()),
                        value=res,
                    )
        raw_defect, defect_scale = dqybe_defect(R, lam)
        global_res.append(raw_defect / max(1.0, defect_scale))
    return ResidualReport(
        global_residuals=global_res,
        per_equation=per_eq,
        samples=sample_list,
        worst_case=worst,
        tol=tol,
    )


def check_zero_weight(P: DensePoint, tol: float = 1e-14) -> bool:
    """True iff all entries outside the two allowed patterns vanish."""
    rows, swap, offdiag = zero_weight_layout(P.n)
    mask = np.ones((P.n * P.n, P.n * P.n), dtype=bool)
    mask[rows, swap] = False
    mask[offdiag, offdiag] = False
    off = np.abs(P.matrix[mask])
    return bool(off.size == 0 or off.max() < tol)


def check_invertibility(R: DynamicalRMatrix, lam: np.ndarray) -> dict:
    """Compare the factorized determinant with a dense LU determinant."""
    lam = np.asarray(lam, dtype=complex)
    delta_tab, d_tab = R.tables(lam)
    det_fact = complex(np.prod(np.diagonal(delta_tab)))
    for i in range(R.n):
        for j in range(i + 1, R.n):
            det_fact *= (
                d_tab[i, j] * d_tab[j, i] - delta_tab[i, j] * delta_tab[j, i]
            )
    det_dense = complex(np.linalg.det(evaluate(R, lam).matrix))
    scale = max(abs(det_fact), abs(det_dense))
    agree = (
        scale > 0
        and abs(det_fact - det_dense) / scale < 1e-8
        and det_fact != 0
        and det_dense != 0
    )
    return {"det_factorized": det_fact, "det_dense": det_dense, "agree": agree}


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
