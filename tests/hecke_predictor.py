"""The Hecke verdict of a datum predicted from its constants alone, with no
coefficient table read.

The flip-composed matrix of a built datum has the eigenvalue Delta_ii on
each line e_i (x) e_i and a pair on each plane i < j:

* Delta_ii is the constant of i's d-class: S / (1 - e^{A eps}) on a
  trigonometric block, with e^A = (D - S) / (D + S) and D^2 = S^2 +
  4 Sigma, and eps sqrt(Sigma) on a rational block (S = 0);
* inside a d-class with constant c the pair is (c, c), and the plane is
  scalar;
* between two d-classes of one block it is the roots (S +- D) / 2 of
  X^2 - S X - Sigma;
* across blocks q, q' it is +-sqrt(Sigma_qq').

Square roots are principal, with a zero imaginary part read as +0.
"""

from __future__ import annotations

import cmath
from typing import Optional

from dynrmat.params import ClassificationParams
from dynrmat.partition import IndexPartition

#: eigenvalues within this fraction of the largest one are the same
SAME = 1e-7


def _sqrt(z: complex) -> complex:
    return cmath.sqrt(complex(z.real, z.imag + 0.0))


def spectrum(p: IndexPartition, c: ClassificationParams):
    """The diagonal eigenvalues [Delta_11, ..., Delta_nn], and for each
    plane i < j in row-major order its pair and whether its two roots come
    from one block's discriminant D."""
    where = {}  # index -> (block, d-class)
    for q, block in enumerate(p.blocks):
        for dclass in block:
            for cls in dclass.all_d_classes():
                where.update((i, (q, cls)) for i in cls)

    def class_constant(q: int, cls: tuple[int, ...]) -> complex:
        S, Sigma = c.per_block[q].sum_const, c.per_block[q].det_const
        eps = c.signs[cls]
        if S == 0:
            return eps * _sqrt(Sigma)
        D = _sqrt(S * S + 4 * Sigma)
        ratio = (D - S) / (D + S)
        return S / (1 - (ratio if eps == 1 else 1 / ratio))

    n = p.n
    diag = [class_constant(*where[i]) for i in range(1, n + 1)]
    planes = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            (q, cls), (qq, _) = where[i], where[j]
            if j in cls:
                planes.append(((diag[i - 1], diag[i - 1]), False))
            elif q == qq:
                S, Sigma = c.per_block[q].sum_const, c.per_block[q].det_const
                D = _sqrt(S * S + 4 * Sigma)
                planes.append((((S + D) / 2, (S - D) / 2), True))
            else:
                root = _sqrt(c.cross_det[(q, qq)])
                planes.append(((root, -root), False))
    return diag, planes


def predict(p: IndexPartition, c: ClassificationParams
            ) -> tuple[str, Optional[complex], Optional[complex]]:
    """(kind, rho, kappa) from the definitions: one d-class is degenerate;
    otherwise exactly two distinct eigenvalues rho and -kappa, with no
    plane whose double root is not scalar, make a weak Hecke matrix, where
    rho is on more diagonal lines (on a tie, on line 1); and it is Hecke
    when rho is on every line and both are on every plane."""
    diag, planes = spectrum(p, c)
    values = diag + [e for pair, _ in planes for e in pair]
    top = max(abs(v) for v in values)

    def same(a: complex, b: complex) -> bool:
        return abs(a - b) <= SAME * top

    if len(p.all_d_classes()) == 1:
        return "DegenerateSingleDClass", diag[0], -diag[0]
    distinct = []
    for v in values:
        if not any(same(v, u) for u in distinct):
            distinct.append(v)
    if len(distinct) != 2:
        return "NotHecke", None, None
    if any(from_disc and same(*pair) for pair, from_disc in planes):
        return "NotHecke", None, None
    first, other = distinct if same(distinct[0], diag[0]) else distinct[::-1]
    on_first = [same(v, first) for v in diag]
    rho, minus_kappa = (first, other) if 2 * sum(on_first) >= len(diag) else (other, first)
    if rho == 0 or minus_kappa == 0:
        return "NotHecke", None, None
    hecke = all(on_first) and all(
        (same(a, rho) and same(b, minus_kappa)) or (same(a, minus_kappa) and same(b, rho))
        for (a, b), _ in planes)
    return ("Hecke" if hecke else "WeakHecke"), rho, -minus_kappa
