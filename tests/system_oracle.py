"""Per-sample implementation of :func:`dynrmat.verifier.check_system`, kept
as the reference that the batched verifier is tested against.

Each sample is certified on its own: one shift stencil, the sixteen
component equations on that stencil's tables, and the global defect from a
fresh walk of the path products with its own ``np.unique`` over their
(column, row) keys.  The arithmetic of every entry is the verifier's, so
its report must equal this one float for float.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from dynrmat.rmatrix import shift_stencil
from dynrmat.verifier import (
    _LEFT,
    _RIGHT,
    DEFAULT_TOL,
    EQUATION_TAGS,
    ResidualReport,
    WorstCase,
)


def oracle_path_products(delta_st, d_st, factors):
    """Row and weight of every path product of one side of the relation,
    walked factor by factor; path k of column c sits at k n^3 + c."""
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


def oracle_defect(delta_st, d_st):
    """Raw max-abs defect and scale of one stencil's tables."""
    left_rows, left_w = oracle_path_products(delta_st, d_st, _LEFT)
    right_rows, right_w = oracle_path_products(delta_st, d_st, _RIGHT)
    size = delta_st.shape[1] ** 3
    cols = np.tile(np.arange(size), 16)
    keys, inv = np.unique(
        cols * size + np.concatenate([left_rows, right_rows]), return_inverse=True
    )
    m = keys.size
    bins = inv + np.repeat([0, m], left_w.size)
    w = np.concatenate([left_w, right_w])
    sums = np.bincount(bins, w.real, 2 * m) + 1j * np.bincount(bins, w.imag, 2 * m)
    left, right = sums[:m], sums[m:]
    raw = float(np.abs(left - right).max())
    scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
    return raw, scale


def oracle_equation_values(delta0, d0, delta_sh, d_sh):
    """The sixteen component-equation value arrays at one sample, with
    index grids built on every call."""
    n = delta0.shape[0]
    r = np.arange(n)
    I, J = np.meshgrid(r, r, indexing="ij")

    diag = np.diagonal(delta0)
    diag_sh = delta_sh[r, r, r]
    g0 = diag * diag_sh * (diag_sh - diag)

    dii_j = delta_sh[J, I, I]
    dii_0 = delta0[I, I]
    dij_0 = delta0
    dji_0 = delta0.T
    dij_i = delta_sh[I, I, J]
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

    out = {"G0": g0, **pair}

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


def oracle_check_system(R, samples, tol: float = DEFAULT_TOL) -> ResidualReport:
    """The residual report of ``check_system``, one sample at a time."""
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
        values = oracle_equation_values(delta_st[0], d_st[0], delta_st[1:], d_st[1:])
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
        raw_defect, defect_scale = oracle_defect(delta_st, d_st)
        global_res.append(raw_defect / max(1.0, defect_scale))
    return ResidualReport(
        global_residuals=global_res,
        per_equation=per_eq,
        samples=sample_list,
        worst_case=worst,
        tol=tol,
    )
