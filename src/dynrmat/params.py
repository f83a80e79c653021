"""Numeric classification data attached to an index partition.

Each coupling block carries two complex constants: the *sum* constant
(``sum_const``, the common value of Delta_ij + Delta_ji on cross-class
pairs of the block) and the *determinant* constant (``det_const``, the
common value of d_ij d_ji - Delta_ij Delta_ji).  Distinct blocks are tied
together by cross-block determinant constants.  Each d-class carries a
sign (+1/-1) and a complex constant ``f`` fixing its position inside the
exchange class; the conventional normalization puts f = 1 (sum != 0,
"trigonometric" block) or f = 0 (sum = 0, "rational" block) on the first
d-class of every exchange class.  Finally a multiplicative 2-form rescales
the diagonal coefficients; ``TwoFormSpec.table(n, lams, mask)`` evaluates it
on a (P, n) stack of points and returns a (P, n, n) stack of tables.

JSON field names (``S``, ``Sigma``, ``signs``, ``f``) follow the shared
config schema; see :mod:`dynrmat.serialize`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ParameterError, PoleError
from .partition import IndexPartition, ValidationResult, nd_pairs, validate as validate_partition

#: A d-class is keyed by the tuple of its member indices.
ClassKey = tuple[int, ...]

#: Relative threshold below which a complex value counts as negative-real.
NEGATIVE_REAL_IM_TOL = 1e-12

#: Denominator magnitudes below this trip a pole error.
POLE_GUARD = 1e-13


@dataclass(frozen=True)
class BlockConstants:
    """The (sum, determinant) constants of one coupling block."""

    sum_const: complex
    det_const: complex

    @property
    def rational(self) -> bool:
        return self.sum_const == 0


@dataclass(frozen=True)
class DerivedBlockConstants:
    """Derived quantities of one coupling block.

    ``discriminant``  D with D^2 = S^2 + 4*Sigma (principal square root);
    ``ratio``         T = (D - S)/(D + S);
    ``log_ratio``     A with e^A = T and Im A in [-pi, pi): the principal
                      log, except that a negative real T takes Im A = -pi;
                      None when S = 0;
    ``root``          B = (S + D)/2, a root of X^2 - S X - Sigma.
    """

    discriminant: complex
    ratio: complex
    log_ratio: Optional[complex]
    root: complex


def principal_sqrt(z: complex) -> complex:
    """Principal square root: Re >= 0; on the cut (Re = 0) take Im >= 0.

    A zero imaginary part counts as +0.0, so a negative real (even one
    carrying -0.0j) has a root with positive imaginary part.  A root whose
    real part underflowed to 0 (a subnormal negative imaginary part) is
    negated onto the Im >= 0 side.
    """
    z = complex(z)
    if z.imag == 0:
        z = complex(z.real, 0.0)
    r = complex(np.sqrt(z))
    if r.real == 0 and r.imag < 0:
        r = complex(0.0, -r.imag)
    return r


def is_negative_real(z: complex) -> bool:
    return z.real < 0 and abs(z.imag) <= NEGATIVE_REAL_IM_TOL * abs(z)


def derive(sum_const: complex, det_const: complex) -> DerivedBlockConstants:
    """Compute the derived constants (D, T, A, B) of a coupling block."""
    if det_const == 0:
        raise ParameterError("determinant constant must be nonzero")
    disc = principal_sqrt(sum_const * sum_const + 4 * det_const)
    if sum_const == 0:
        # Rational block: T = 1 and the log-ratio is unused; B = sqrt(Sigma).
        return DerivedBlockConstants(
            discriminant=disc,
            ratio=1.0 + 0j,
            log_ratio=None,
            root=principal_sqrt(det_const),
        )
    denom = disc + sum_const
    # relative to S, as D + S of c S and c^2 Sigma is c (D + S)
    if abs(denom) < POLE_GUARD * abs(sum_const):
        raise ParameterError("degenerate block constants: D + S = 0")
    ratio = (disc - sum_const) / denom
    if ratio == 0:
        raise ParameterError("degenerate block constants: D = S")
    if is_negative_real(ratio):
        log_ratio = cmath.log(-ratio) - 1j * cmath.pi
    else:
        log_ratio = cmath.log(ratio)
    root = (sum_const + disc) / 2
    return DerivedBlockConstants(
        discriminant=disc, ratio=ratio, log_ratio=log_ratio, root=root
    )


# -- 2-form specifications -------------------------------------------------


class TwoFormSpec:
    """Multiplicative 2-form g acting on the diagonal coefficients.

    Subclasses implement ``table(n, lams, mask)``, which maps a (P, n)
    stack of points to a (P, n, n) stack of tables holding g_ij where the
    boolean ``mask`` (n x n, or one per point) holds and 1 elsewhere, NaN
    at a pole, with the reciprocity g_ij * g_ji = 1 built in.  A per-entry
    :meth:`value` reads a one-point table.
    """

    def table(self, n: int, lams: np.ndarray, mask: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, i: int, j: int, lam: np.ndarray) -> complex:
        """g_ij at one point; raises :class:`PoleError` where the table
        entry is not finite."""
        lam = np.asarray(lam, dtype=complex)
        n = len(lam)
        mask = np.zeros((n, n), dtype=bool)
        mask[i - 1, j - 1] = True
        with np.errstate(all="ignore"):
            v = complex(self.table(n, lam[None], mask)[0, i - 1, j - 1])
        if not cmath.isfinite(v):
            raise PoleError(f"2-form entry ({i},{j}) is not finite at lam={lam}")
        return v


class TrivialTwoForm(TwoFormSpec):
    """g identically 1."""

    def table(self, n: int, lams: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return np.ones((len(lams), n, n), dtype=complex)


@dataclass
class ExactTwoForm(TwoFormSpec):
    """g derived from per-index potentials:

    g_ij(lam) = (beta_i(lam + e_j) / beta_i(lam)) * (beta_j(lam) / beta_j(lam + e_i)).

    Exact 2-forms are automatically closed (the cyclic shifted product over
    any triplet telescopes to 1).
    """

    beta: Mapping[int, Callable[[np.ndarray], complex]]

    def table(self, n: int, lams: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Each potential is called at most once per distinct point among
        ``lams`` and lams + e_k, and only where a masked entry reads it:
        beta_i(lam) where row or column i of that point's mask has an
        entry, beta_i(lam + e_j) where mask[i, j] or mask[j, i].  Points
        are visited in first-seen order, potentials in ascending i.  A
        point's mask without its diagonal reads at most n^2 values; the
        n+1 points of a shift stencil with the full off-diagonal mask call
        n(1 + n + n(n+1)/2) - n potentials."""
        from .rmatrix import stencil_points  # rmatrix imports this module

        P = len(lams)
        mask = np.broadcast_to(mask, (P, n, n))
        pts = stencil_points(lams).reshape(-1, n)
        first: dict[bytes, int] = {}
        row = [first.setdefault(pt.tobytes(), s) for s, pt in enumerate(pts)]
        # reads[s, i]: slot s (lam_p, then lam_p + e_k) reads beta_i; a
        # point's potentials are read wherever one of its slots reads them
        both = mask | mask.transpose(0, 2, 1)
        reads = np.concatenate([both.any(axis=2)[:, None], both], axis=1).reshape(-1, n)
        wanted = np.zeros_like(reads)
        np.logical_or.at(wanted, row, reads)
        beta = [self.beta[i] for i in range(1, n + 1)]
        # the (point, i) of every call: first-seen points, ascending i; all
        # potentials at a point get the same row object
        heads = np.fromiter(first.values(), dtype=np.intp, count=len(first))
        at, idx = np.nonzero(wanted[heads])
        rows = [pts[s] for s in heads.tolist()]
        # an unread value is 1; only unmasked entries see it
        b = np.ones((len(pts), n), dtype=complex)
        b[heads[at], idx] = [complex(beta[i](rows[a])) for a, i in zip(at.tolist(), idx.tolist())]
        b = b[row].reshape(P, n + 1, n)
        b0 = b[:, 0]    # b0[p, i] = beta_i(lam_p)
        bk = b[:, 1:]   # bk[p, k, i] = beta_i(lam_p + e_k)
        g = (bk.transpose(0, 2, 1) / b0[:, :, None]) * (b0[:, None, :] / bk)
        small = np.abs(b0) < POLE_GUARD
        g[small[:, :, None] | small[:, None, :] | (np.abs(bk) < POLE_GUARD)] = np.nan
        return np.where(mask, g, 1)


def exp_quadratic_potential(
    const: complex, lin: np.ndarray, quad: np.ndarray
) -> Callable[[np.ndarray], complex]:
    """The potential beta(lam) = exp(const + sum_k lin_k lam_k +
    sum_k quad_k lam_k^2), as :class:`QuadraticExactTwoForm` keeps it in
    ``beta``."""

    def beta(lam: np.ndarray) -> complex:
        lam = np.asarray(lam, dtype=complex)
        return complex(np.exp(const + np.dot(lin, lam) + np.dot(quad, lam * lam)))

    return beta


class QuadraticExactTwoForm(ExactTwoForm):
    """Exact 2-form of the potentials beta_i(lam) = exp(const_i +
    sum_k lin_ik lam_k + sum_k quad_ik lam_k^2), kept as coefficients:
    ``const`` is an n-vector, ``lin`` and ``quad`` are n x n, row i-1
    holding the coefficients of beta_i; all must be finite
    (:class:`ParameterError` otherwise).

    A unit shift of lam_j multiplies beta_i by exp(lin_ij + quad_ij (2 lam_j + 1)),
    so log g_ij = h_ij - h_ji with h_ij = lin_ij + quad_ij (2 lam_j + 1), and
    ``const`` drops out.  :meth:`table` is one ``exp`` over the stack: it
    calls no potential and has no pole where the potentials over- or
    underflow but g does not.  An entry is NaN where g_ij or g_ji is not
    finite.  ``beta`` holds the potentials as callables
    (:func:`exp_quadratic_potential`) for per-point readers.
    """

    def __init__(self, const, lin, quad):
        const = np.array(const, dtype=complex)
        lin = np.array(lin, dtype=complex)
        quad = np.array(quad, dtype=complex)
        n = len(const)
        if const.shape != (n,) or lin.shape != (n, n) or quad.shape != (n, n):
            raise ParameterError(
                f"exact 2-form coefficients: const must have length n and lin, "
                f"quad shape (n, n); got {const.shape}, {lin.shape}, {quad.shape}"
            )
        for name, arr in (("const", const[:, None]), ("lin", lin), ("quad", quad)):
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                i, k = bad[0]
                where = "" if name == "const" else f"[{k + 1}]"
                raise ParameterError(f"potential {i + 1}: {name}{where} must be finite")
        for arr in (const, lin, quad):
            arr.flags.writeable = False
        self.const, self.lin, self.quad = const, lin, quad
        super().__init__(beta={
            i + 1: exp_quadratic_potential(const[i], lin[i], quad[i]) for i in range(n)
        })

    def table(self, n: int, lams: np.ndarray, mask: np.ndarray) -> np.ndarray:
        if n != len(self.const):
            raise ParameterError(f"exact 2-form on {len(self.const)} indices read at n = {n}")
        lams = np.asarray(lams, dtype=complex)
        half = self.lin + self.quad * (2 * lams[:, None, :] + 1)
        with np.errstate(all="ignore"):
            g = np.exp(half - half.transpose(0, 2, 1))
        bad = ~np.isfinite(g)
        g[bad | bad.transpose(0, 2, 1)] = np.nan
        return np.where(mask, g, 1)


def needed_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based pairs (i, j), i < j, that either orientation of a
    (P, n, n) ``mask`` needs at some point, as row and column arrays."""
    need = (mask | mask.transpose(0, 2, 1)).any(axis=0)
    return np.nonzero(np.triu(need, 1))


def check_covered(mask: np.ndarray, missing: np.ndarray) -> None:
    """Raise ``KeyError((i, j))`` for the first pair i < j that a (P, n, n)
    ``mask`` needs in either orientation and the symmetric n x n
    ``missing`` marks."""
    if (mask & missing).any():
        rows, cols = needed_pairs(mask)
        k = np.flatnonzero(missing[rows, cols])[0]
        raise KeyError((int(rows[k]) + 1, int(cols[k]) + 1))


def pair_table(n: int, rows: np.ndarray, cols: np.ndarray, upper: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """The (P, n, n) table of a 2-form from its (P, K) values ``upper`` at
    the 0-based pairs (rows, cols), rows < cols: each value where it is
    finite with modulus at least ``POLE_GUARD``, NaN on both orientations
    of any other (a pole), the reciprocal on the reverse orientation, and 1
    on the diagonal and wherever ``mask`` is False.  Reciprocals are taken
    with Python's complex division, whose rounding differs from numpy's."""
    upper = np.array(upper, dtype=complex)
    ok = np.isfinite(upper) & (np.abs(upper) >= POLE_GUARD)
    upper[~ok] = np.nan
    lower = np.full_like(upper, np.nan)
    lower[ok] = [1.0 / v for v in upper[ok].tolist()]
    out = np.ones((len(upper), n, n), dtype=complex)
    out[:, rows, cols] = upper
    out[:, cols, rows] = lower
    return np.where(mask, out, 1)


@dataclass
class TableTwoForm(TwoFormSpec):
    """g given pairwise: one evaluable function per unordered pair (i < j);
    the reverse orientation is the reciprocal, so g_ij * g_ji = 1 holds by
    construction.  Closedness is *not* automatic; see
    :func:`dynrmat.transforms.check_closed`.
    """

    g: Mapping[tuple[int, int], Callable[[np.ndarray], complex]]

    def table(self, n: int, lams: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """One call per point and unordered pair that either orientation of
        ``mask`` needs at some point, NaN where it raises
        :class:`PoleError`; :func:`pair_table` makes the table."""
        lams = np.asarray(lams, dtype=complex)
        mask = np.broadcast_to(mask, (len(lams), n, n))
        rows, cols = needed_pairs(mask)
        upper = np.empty((len(lams), len(rows)), dtype=complex)
        for k, (i, j) in enumerate(zip(rows, cols)):
            fn = self.g[(int(i) + 1, int(j) + 1)]
            for p, lam in enumerate(lams):
                try:
                    upper[p, k] = complex(fn(lam))
                except PoleError:
                    upper[p, k] = np.nan
        return pair_table(n, rows, cols, upper, mask)


class ConstantTableTwoForm(TableTwoForm):
    """Table 2-form of constants keyed by (i, j) with i < j; every constant
    must be finite (:class:`ParameterError` otherwise).

    ``g`` holds constant functions, as for any table 2-form, but
    :meth:`table` reads one n x n table per n, built once by
    :func:`pair_table`.  A pair that ``mask`` needs and that has no
    constant raises ``KeyError``, as in :meth:`TableTwoForm.table`.
    """

    def __init__(self, values: Mapping[tuple[int, int], complex]):
        self.values = {pair: complex(v) for pair, v in values.items()}
        for (i, j), v in self.values.items():
            if not cmath.isfinite(v):
                raise ParameterError(f"2-form table entry ({i},{j}) must be finite")
        super().__init__(g={pair: (lambda lam, _v=v: _v) for pair, v in self.values.items()})
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def table(self, n: int, lams: np.ndarray, mask: np.ndarray) -> np.ndarray:
        if n not in self._tables:
            # the table, and the symmetric mask of the pairs without a constant
            pairs = [pair for pair in self.values if 1 <= pair[0] < pair[1] <= n]
            rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T - 1
            upper = np.array([[self.values[pair] for pair in pairs]], dtype=complex)
            tab = pair_table(n, rows, cols, upper, True)[0]
            missing = ~np.eye(n, dtype=bool)
            missing[rows, cols] = missing[cols, rows] = False
            self._tables[n] = tab, missing
        tab, missing = self._tables[n]
        mask = np.broadcast_to(mask, (len(lams), n, n))
        check_covered(mask, missing)
        return np.where(mask, tab, 1)


def constant_table_two_form(values: Mapping[tuple[int, int], complex]) -> TableTwoForm:
    """Table 2-form from constants keyed by (i, j) with i < j."""
    return ConstantTableTwoForm(values)


# -- classification data ---------------------------------------------------


@dataclass(frozen=True)
class ClassificationParams:
    """Full numeric datum attached to a partition."""

    partition: IndexPartition
    per_block: tuple[BlockConstants, ...]
    cross_det: Mapping[tuple[int, int], complex] = field(default_factory=dict)
    signs: Mapping[ClassKey, int] = field(default_factory=dict)
    f_consts: Mapping[ClassKey, complex] = field(default_factory=dict)
    two_form: TwoFormSpec = field(default_factory=TrivialTwoForm)


def two_form_covers(g: TwoFormSpec, partition: IndexPartition) -> ValidationResult:
    """A table 2-form must have an entry for every coupled pair of
    ``partition``; the message names the first one missing."""
    if isinstance(g, TableTwoForm):
        pairs = g.g
        missing = [pair for pair in nd_pairs(partition) if pair not in pairs]
        if missing:
            return ValidationResult(
                False, f"2-form table has no entry for coupled pair {missing[0]}")
    return ValidationResult(True)


def validate_params(c: ClassificationParams) -> ValidationResult:
    """Check all invariants of a :class:`ClassificationParams` value."""
    pres = validate_partition(c.partition)
    if not pres:
        return pres
    p = c.partition
    nblocks = len(p.blocks)
    if len(c.per_block) != nblocks:
        return ValidationResult(
            False,
            f"{len(c.per_block)} per-block constants for {nblocks} blocks",
        )
    for q, (block, consts) in enumerate(zip(p.blocks, c.per_block)):
        for name, v in (("sum constant S", consts.sum_const),
                        ("determinant constant Sigma", consts.det_const)):
            if not cmath.isfinite(v):
                return ValidationResult(False, f"block {q + 1}: {name} must be finite")
        if consts.det_const == 0:
            return ValidationResult(
                False, f"block {q + 1}: determinant constant must be nonzero"
            )
        if len(block) >= 2 and consts.sum_const == 0:
            return ValidationResult(
                False,
                f"block {q + 1}: sum constant must be nonzero when the block "
                "has several exchange classes",
            )
    for q in range(nblocks):
        for qq in range(q + 1, nblocks):
            v = c.cross_det.get((q, qq))
            if v is None:
                return ValidationResult(
                    False, f"missing cross-block determinant constant ({q + 1},{qq + 1})"
                )
            if not cmath.isfinite(v):
                return ValidationResult(
                    False,
                    f"cross-block determinant constant ({q + 1},{qq + 1}) must be finite",
                )
            if v == 0:
                return ValidationResult(
                    False, f"cross-block determinant constant ({q + 1},{qq + 1}) is zero"
                )
    for q, block in enumerate(p.blocks):
        consts = c.per_block[q]
        for dclass in block:
            classes = dclass.all_d_classes()
            for k, cls in enumerate(classes):
                if cls not in c.signs or c.signs[cls] not in (+1, -1):
                    return ValidationResult(
                        False, f"missing or invalid sign for d-class {list(cls)}"
                    )
                if cls not in c.f_consts:
                    return ValidationResult(
                        False, f"missing f constant for d-class {list(cls)}"
                    )
                fv = complex(c.f_consts[cls])
                if not cmath.isfinite(fv):
                    return ValidationResult(
                        False, f"f constant of d-class {list(cls)} must be finite"
                    )
                if not consts.rational and fv == 0:
                    return ValidationResult(
                        False,
                        f"f constant of d-class {list(cls)} must be nonzero in a "
                        "block with nonzero sum constant",
                    )
                if k == 0:
                    want = 0j if consts.rational else 1 + 0j
                    if fv != want:
                        return ValidationResult(
                            False,
                            f"f constant of the first d-class {list(cls)} of an "
                            f"exchange class must be {want} (got {fv}); apply "
                            "normalize_f first",
                        )
    return two_form_covers(c.two_form, p)


def normalize_f(c: ClassificationParams) -> tuple[ClassificationParams, dict]:
    """Renormalize the f constants to the per-exchange-class convention.

    In blocks with nonzero sum constant every f inside an exchange class is
    divided by the f of its first d-class; in rational blocks the first f
    is subtracted instead.  Only ratios (respectively differences) of f
    enter the matrix coefficients, so the built matrix is unchanged.
    Idempotent.  Returns the adjusted params and a report of the applied
    scale/shift per exchange class.
    """
    new_f = dict(c.f_consts)
    report: dict[str, dict] = {}
    for q, block in enumerate(c.partition.blocks):
        consts = c.per_block[q]
        for dclass in block:
            classes = dclass.all_d_classes()
            first = classes[0]
            pivot = complex(c.f_consts[first])
            key = ",".join(str(i) for i in dclass.members())
            if consts.rational:
                report[key] = {"shift": -pivot}
                for cls in classes:
                    new_f[cls] = complex(c.f_consts[cls]) - pivot
                new_f[first] = 0j
            else:
                if pivot == 0:
                    raise ParameterError(
                        f"f constant of d-class {list(first)} is zero in a block "
                        "with nonzero sum constant"
                    )
                report[key] = {"scale": 1.0 / pivot}
                for cls in classes:
                    new_f[cls] = complex(c.f_consts[cls]) / pivot
                new_f[first] = 1 + 0j
    return replace(c, f_consts=new_f), report

