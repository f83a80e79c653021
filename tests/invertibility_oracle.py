"""Dense oracle of :func:`dynrmat.verifier.check_invertibility`.

The verifier reads the determinant of a zero-weight matrix from its factors
alone: the Delta_ii and the plane determinants d_ij d_ji - Delta_ij Delta_ji,
i < j.  This oracle places one point's tables in a dense n^2 x n^2 matrix of
its own and takes its LU log-determinant with ``np.linalg.slogdet``, both
at unit scale: the tables times 2^k, so that their largest modulus is in
[1, 2), which adds k n^2 log 2 to the log-determinant.  A result agrees
with it when ``agree`` holds exactly when every factor there is finite and
nonzero, and then the log-determinant of the dense matrix equals
the sum of the factors' logarithms and, where it is a normal float, the log
of ``det_factorized``: log|det| within ``DENSE_TOL`` and the phase within
``DENSE_TOL`` modulo 2 pi.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from dynrmat.rmatrix import pair_invariants, unit_scale
from dynrmat.verifier import _exp

from system_oracle import at_unit_scale

#: bound on the difference of the two log-determinants: relative on |det|,
#: and absolute, in radians, on its phase
DENSE_TOL = 1e-8


def dense_matrix(delta: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The n^2 x n^2 matrix of one point's tables: R(e_x (x) e_y) =
    Delta_yx e_y (x) e_x + d_xy e_x (x) e_y, row and column (x, y) at
    x n + y."""
    n = len(delta)
    M = np.zeros((n * n, n * n), dtype=complex)
    for x in range(n):
        for y in range(n):
            M[y * n + x, x * n + y] = delta[y, x]
            if x != y:
                M[x * n + y, x * n + y] = d[x, y]
    return M


def dense_log_det(delta: np.ndarray, d: np.ndarray) -> complex:
    """log|det| + i arg det of :func:`dense_matrix`, by LU (real part -inf
    when it is singular)."""
    sign, log_abs = np.linalg.slogdet(dense_matrix(delta, d))
    return complex(log_abs, cmath.phase(sign))


def dense_determinant(delta: np.ndarray, d: np.ndarray) -> complex:
    """det of :func:`dense_matrix`, by LU."""
    sign, log_abs = np.linalg.slogdet(dense_matrix(delta, d))
    return complex(sign) * math.exp(log_abs)


def factors(delta: np.ndarray, d: np.ndarray) -> list[complex]:
    """The Delta_ii, then d_ij d_ji - Delta_ij Delta_ji for i < j in
    row-major order, in Python arithmetic (inf or nan, not a warning, when a
    product leaves the float range)."""
    D, S = delta.tolist(), d.tolist()
    n = len(D)
    return [D[i][i] for i in range(n)] + [
        S[i][j] * S[j][i] - D[i][j] * D[j][i] for i in range(n) for j in range(i + 1, n)
    ]


def assert_matches_dense(R, lam, res: dict) -> None:
    """Check one ``check_invertibility(R, lam)`` result against the dense
    LU determinant of R at ``lam``."""
    k, _, (delta, d) = at_unit_scale(*R.tables(np.asarray(lam, dtype=complex)))
    shift = k * len(delta) ** 2 * math.log(2)
    fs = factors(delta, d)
    invertible = all(f != 0 and cmath.isfinite(f) for f in fs)
    assert res["agree"] is invertible, (res, fs)
    if not invertible:
        return
    log_dense = dense_log_det(delta, d) - shift
    logs = [sum(map(cmath.log, fs)) - shift]
    if sys.float_info.min <= abs(res["det_factorized"]) < math.inf:
        logs.append(cmath.log(res["det_factorized"]))
    for log_fact in logs:
        d_mod = log_fact.real - log_dense.real
        d_phase = math.remainder(log_fact.imag - log_dense.imag, 2 * math.pi)
        assert max(abs(d_mod), abs(d_phase)) <= DENSE_TOL, (
            f"log-determinants differ by {d_mod:.3e} in modulus and {d_phase:.3e} in phase")


def whole_table_result(R, lam) -> dict:
    """``check_invertibility(R, lam)`` read the whole-table way: both tables
    copied and put at unit scale by ``unit_scale``, every plane determinant
    formed by ``pair_invariants``, and those with i < j read off."""
    tables = np.array(R.tables(np.asarray(lam, dtype=complex)))
    k, _ = unit_scale(tables)
    delta, d = tables
    n = len(delta)
    fs = np.diagonal(delta).tolist() + pair_invariants(delta, d)[1][np.triu_indices(n, 1)].tolist()
    bad = next((i for i, v in enumerate(fs) if v == 0), None)
    if bad is None:
        det = _exp(sum(map(cmath.log, fs)) - k * n ** 2 * math.log(2))
        return {"det_factorized": det, "det_dense": det, "agree": True, "detail": None}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    where = (f"Delta_ii at index {bad + 1}" if bad < n
             else "det_ij at pair ({},{})".format(*pairs[bad - n]))
    det = math.prod(fs)
    return {"det_factorized": det, "det_dense": det, "agree": False,
            "detail": f"factor {where} is {fs[bad]}"}
