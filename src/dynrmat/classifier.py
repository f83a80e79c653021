"""Recover the taxonomy of a zero-weight matrix from numeric samples.

Pipeline: sample the coefficient tables at several generic dynamical
points, detect which entries vanish identically, build the d-class and
exchange-class equivalences, form the incidence matrices, order the
exchange classes (upper-triangularization by longest-chain level, then
block grouping), canonicalize the partition, and finally invert the
closed forms to recover the numeric datum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .builder import build, check_datum
from .errors import AmbiguityError, NotInFamilyError, PoleError
from .params import (
    POLE_GUARD,
    BlockConstants,
    ClassificationParams,
    TableTwoForm,
    check_covered,
    derive,
    needed_pairs,
    pair_table,
    principal_sqrt,
)
from .partition import IndexPartition, nd_mask, nd_pairs, relabel
from .rmatrix import DynamicalRMatrix, pair_invariants, shift_stencil
from .verifier import _require_positive, sample_lambda

DEFAULT_ZERO_TOL = 1e-8
DEFAULT_SAMPLES = 5
#: relative spread allowed between the pair invariants :func:`recover_params`
#: reads at different samples and pairs
RECOVER_TOL = 1e-7
#: fewest samples :func:`detect_relations` reads zero patterns from
MIN_SAMPLES = 3


@dataclass
class RelationReport:
    """Raw zero/nonzero detection for both coefficient fields."""

    d_zero: set[tuple[int, int]]          # unordered pairs (i < j)
    delta_zero: set[tuple[int, int]]      # ordered pairs
    d_zero_ordered: set[tuple[int, int]]  # ordered pairs, for symmetry checks
    scale: float


@dataclass
class IncidenceReport:
    M_R: np.ndarray                        # r x r reduced matrix (input class order)
    levels: list[int]                      # chain level per class (input order)
    block_sizes: list[int]                 # sizes of the grouped blocks, in block order
    recovered_partition: IndexPartition    # canonical partition over new labels
    index_permutation: dict[int, int]      # original index -> canonical index


def require_nonzero(scale: float) -> None:
    """Raise :class:`NotInFamilyError` when ``scale``, the largest
    coefficient modulus over the samples, is 0."""
    if scale == 0:
        raise NotInFamilyError("matrix is identically zero at all samples")


def detect_relations(
    R: DynamicalRMatrix,
    samples: Sequence[np.ndarray],
    tol: float = DEFAULT_ZERO_TOL,
) -> RelationReport:
    """Classify every coefficient as identically zero or generically nonzero.

    An entry is *zero* when its max magnitude over all samples is below
    tol * scale; it is *ambiguous* (raises :class:`AmbiguityError`) when it
    is large at some samples but below the threshold at others, which
    indicates an accidental zero at a special point.  The first ambiguous
    entry in row-major order, Delta_ij before d_ij, is named.  ``tol`` must
    be finite and > 0.
    """
    _require_positive("tol", tol)
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"at least {MIN_SAMPLES} samples are required")
    n = R.n
    # (S, n, n, 2) magnitudes: Delta_ij, then d_ij
    mag = np.abs(np.stack(R.stacked_tables(np.asarray(samples, dtype=complex)), axis=-1))
    peak, trough = mag.max(axis=0), mag.min(axis=0)
    scale = float(peak.max())
    require_nonzero(scale)
    cut = tol * scale

    read = np.ones((n, n, 2), dtype=bool)
    read[..., 1] = ~np.eye(n, dtype=bool)  # d_ii is never read
    zero = read & (peak < cut)
    # Trigonometric entries legitimately span many orders of magnitude
    # over the sample box, so dipping under the threshold at one sample
    # is only suspicious when the entry never gets clearly above it.
    ambiguous = np.argwhere(read & ~zero & (trough < cut) & (peak < 1e3 * cut))
    if len(ambiguous):
        i, j, field = ambiguous[0].tolist()
        raise AmbiguityError(
            f"{('Delta', 'd')[field]}_{i + 1}{j + 1} is below threshold at some "
            "samples but never far above it; add samples or move them"
        )
    delta_zero, d_zero_ordered = (
        {tuple(p) for p in (np.argwhere(zero[..., field]) + 1).tolist()} for field in (0, 1)
    )
    d_zero = {
        (i, j)
        for (i, j) in d_zero_ordered
        if i < j and (j, i) in d_zero_ordered
    }
    return RelationReport(
        d_zero=d_zero,
        delta_zero=delta_zero,
        d_zero_ordered=d_zero_ordered,
        scale=scale,
    )


def mean_and_spread(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry means of a (S, ...) sample stack over its S samples, and
    each entry's spread: its largest deviation from that mean.  Each mean is
    the 1-D mean of one contiguous column, so it rounds as the mean of that
    entry's samples alone."""
    mean = np.ascontiguousarray(np.moveaxis(values, 0, -1)).mean(axis=-1)
    return mean, np.abs(values - mean).max(axis=0)


def _classes(n: int, related, what: str, fails: str) -> list[tuple[int, ...]]:
    """The classes of the closure of ``related`` on 1..n, by least member, which
    must already be transitive: a pair a < b in one class that is not related
    raises :class:`NotInFamilyError`, "{what} is not transitive on {class}: pair
    (a,b) {fails}", for the first such pair in class order.  ``related`` is
    called on every pair a < b, then on the pairs of each class."""
    neighbours: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for a, b in combinations(range(1, n + 1), 2):
        if related(a, b):
            neighbours[a].append(b)
            neighbours[b].append(a)
    classes, seen = [], set()
    for i in range(1, n + 1):
        if i in seen:
            continue
        cls, walk = {i}, [i]
        while walk:
            for b in neighbours[walk.pop()]:
                if b not in cls:
                    cls.add(b)
                    walk.append(b)
        seen |= cls
        classes.append(tuple(sorted(cls)))
    for cls in classes:
        for a, b in combinations(cls, 2):
            if not related(a, b):
                raise NotInFamilyError(
                    f"{what} is not transitive on {cls}: pair ({a},{b}) {fails}")
    return classes


def build_equivalences(rel: RelationReport, n: int) -> dict:
    """Turn the detected relations into d-class and exchange-class partitions.

    For genuine solutions vanishing of d is symmetric and transitive and
    the both-ways-nonzero exchange relation is transitive; violations mean
    the input is certified to lie outside the solution family.
    """
    for (i, j) in rel.d_zero_ordered:
        if (j, i) not in rel.d_zero_ordered:
            raise NotInFamilyError(
                f"d_{i}{j} vanishes but d_{j}{i} does not: one-sided diagonal "
                "vanishing is impossible in the solution family"
            )
    d_classes = _classes(n, lambda a, b: (a, b) in rel.d_zero,
                         "diagonal vanishing", "does not vanish")
    delta_classes = _classes(
        n, lambda a, b: (a, b) not in rel.delta_zero and (b, a) not in rel.delta_zero,
        "exchange coupling", "is not coupled both ways")
    # every d-class must sit inside one exchange class
    dc_of = {i: cid for cid, cls in enumerate(delta_classes) for i in cls}
    for cls in d_classes:
        if len({dc_of[i] for i in cls}) != 1:
            raise NotInFamilyError(
                f"d-class {cls} straddles several exchange classes"
            )
    return {"d_classes": d_classes, "delta_classes": delta_classes}


def incidence_matrices(
    rel: RelationReport, delta_classes: list[tuple[int, ...]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index-level incidence matrix M and its reduction over exchange classes.

    Between two distinct exchange classes the exchange coefficients must be
    uniformly zero or uniformly nonzero in each direction; mixed patterns
    certify a non-solution.
    """
    m = [[1] * n for _ in range(n)]
    for (i, j) in rel.delta_zero:
        if i != j:
            m[i - 1][j - 1] = 0
    for i in range(1, n + 1):
        if (i, i) in rel.delta_zero:
            raise NotInFamilyError(
                f"Delta_{i}{i} vanishes; diagonal exchange coefficients are "
                "nonzero for every invertible member of the family"
            )
    M_R = [[1] * len(delta_classes) for _ in delta_classes]
    for a, ca in enumerate(delta_classes):
        for b, cb in enumerate(delta_classes):
            if a == b:
                continue
            vals = {m[i - 1][j - 1] for i in ca for j in cb}
            if len(vals) != 1:
                raise NotInFamilyError(
                    f"mixed zero/nonzero exchange pattern between classes "
                    f"{ca} and {cb}"
                )
            M_R[a][b] = vals.pop()
    return np.array(m, dtype=int), np.array(M_R, dtype=int)


def triangularize(M_R: np.ndarray) -> tuple[list[int], list[int]]:
    """Order the classes so that the reduced matrix becomes upper triangular.

    The strict order is a -> b iff M_R[a, b] = 1 off-diagonal.  Classes are
    labelled by the length of the longest strict chain ending at them and
    stably sorted by (level, original label).  Cycles or two-sided
    couplings certify a non-solution.
    """
    r = M_R.shape[0]
    m = M_R.tolist()
    for a in range(r):
        for b in range(a + 1, r):
            if m[a][b] and m[b][a]:
                raise NotInFamilyError(
                    f"classes {a + 1} and {b + 1} dominate each other "
                    "(antisymmetry violation)"
                )
    # longest-chain levels in topological order: a class is settled once
    # every class dominating it is; any class never settled lies on a cycle
    levels = [0] * r
    waiting = [sum(1 for a in range(r) if a != b and m[a][b]) for b in range(r)]
    ready = [b for b in range(r) if not waiting[b]]
    for a in ready:
        for b in range(r):
            if b != a and m[a][b]:
                levels[b] = max(levels[b], levels[a] + 1)
                waiting[b] -= 1
                if not waiting[b]:
                    ready.append(b)
    if len(ready) < r:
        raise NotInFamilyError("cyclic domination between exchange classes")
    sigma = sorted(range(r), key=lambda b: (levels[b], b))
    return sigma, levels


def block_structure(M_R: np.ndarray, sigma: list[int]) -> tuple[list[int], list[int]]:
    """Group mutually comparable classes into blocks.

    Working through the upper-triangularized order: take the first
    remaining class, gather every remaining class comparable to it (for
    solutions these form a chain), order the chain by domination and emit
    it as one block.  A class comparable to two mutually incomparable
    classes certifies a non-solution.
    """
    m = M_R.tolist()

    def comparable(a: int, b: int) -> bool:
        return bool(m[a][b] or m[b][a])

    remaining = list(sigma)
    pi: list[int] = []
    sizes: list[int] = []
    while remaining:
        head = remaining[0]
        group = [c for c in remaining if c == head or comparable(head, c)]
        for a in group:
            for b in group:
                if a != b and not comparable(a, b):
                    raise NotInFamilyError(
                        f"classes {a + 1} and {b + 1} are both comparable to "
                        f"class {head + 1} but not to each other"
                    )
        # order the chain by domination: a before b iff M_R[a, b] = 1
        chain = sorted(group, key=lambda c: -sum(m[c][o] for o in group))
        for a, b in zip(chain, chain[1:]):
            if not m[a][b]:
                raise NotInFamilyError("comparable classes do not form a chain")
        pi.extend(chain)
        sizes.append(len(chain))
        remaining = [c for c in remaining if c not in group]
    return pi, sizes


def classify(
    R: DynamicalRMatrix,
    samples: Optional[Sequence[np.ndarray]] = None,
    tol: float = DEFAULT_ZERO_TOL,
    seed: int = 0,
) -> IncidenceReport:
    """Full structural classification of a zero-weight matrix.

    Without ``samples``, ``DEFAULT_SAMPLES`` points are drawn from ``seed``;
    each is checked for poles and the entry cap at that point alone, since
    the classification reads no shifted point.  ``tol`` must be finite and
    > 0.
    """
    _require_positive("tol", tol)
    if samples is None:
        rng = np.random.default_rng(seed)
        samples = sample_lambda(R, rng, DEFAULT_SAMPLES, stencil=False)
    rel = detect_relations(R, samples, tol)
    eq = build_equivalences(rel, R.n)
    delta_classes = eq["delta_classes"]
    d_classes = eq["d_classes"]
    M, M_R = incidence_matrices(rel, delta_classes, R.n)
    check_propagation(M)
    sigma, levels = triangularize(M_R)
    pi, sizes = block_structure(M_R, sigma)

    # canonical partition: blocks in pi order, exchange classes in chain
    # order, members ascending inside each (classes are sorted tuples)
    dclass_of = {i: cls for cls in d_classes for i in cls}
    blocks = []
    pos = 0
    for size in sizes:
        blocks.append([
            ([i for i in delta_classes[c] if len(dclass_of[i]) == 1],
             sorted({dclass_of[i] for i in delta_classes[c] if len(dclass_of[i]) > 1}))
            for c in pi[pos:pos + size]
        ])
        pos += size
    partition, index_permutation = relabel(R.n, blocks)
    return IncidenceReport(
        M_R=M_R,
        levels=levels,
        block_sizes=sizes,
        recovered_partition=partition,
        index_permutation=index_permutation,
    )


def degenerate_blocks(partition: IndexPartition) -> list[bool]:
    """Blocks consisting of a single d-class: their (sum, det) constants are
    unobservable (only the class constant is), so recovery reports a
    conventional rational datum for them."""
    out = []
    for block in partition.blocks:
        classes = [cls for dc in block for cls in dc.all_d_classes()]
        out.append(len(classes) == 1)
    return out


def check_propagation(M: np.ndarray) -> None:
    """Zero exchange entries propagate: M[i,j] = 0 forces M[i,k] M[k,j] = 0."""
    n = M.shape[0]
    m = M.tolist()
    for i in range(n):
        for j in range(n):
            if i != j and m[i][j] == 0:
                for k in range(n):
                    if m[i][k] and m[k][j]:
                        raise NotInFamilyError(
                            f"zero-propagation violated at "
                            f"({i + 1},{j + 1}) via {k + 1}"
                        )


def _reference_point(R: DynamicalRMatrix, stencil: bool = True) -> np.ndarray:
    """Deterministic evaluation point, pole-free and below the entry cap on
    its whole shift stencil, for output that needs one fixed point.  With
    ``stencil=False`` only the point itself is checked, for output that
    reads the tables at the point alone."""
    n = R.n
    direction = np.array(
        [0.3 * (k + 1) + 0.17j * (k + 2) for k in range(n)], dtype=complex
    )
    for step in range(9, 60):
        lam = 0.1 * step * direction
        try:
            delta, d = shift_stencil(R, lam) if stencil else R.tables(lam)
        except PoleError:
            continue
        if max(np.abs(delta).max(), np.abs(d).max()) <= 1e6:
            return lam
    raise PoleError("no well-conditioned reference point found")


def recover_params(
    R: DynamicalRMatrix,
    report: IncidenceReport,
    seed: int = 0,
) -> ClassificationParams:
    """Invert the closed forms: recover all numeric constants of the datum.

    The returned params are expressed over the canonical labels of
    ``report.recovered_partition``.  Blocks without any cross-d-class pair
    are degenerate (only the class constant Delta is observable); they are
    reported as the rational datum sum = 0, det = Delta^2, with sign +1
    when principal_sqrt(det) is at least as near to Delta as its negative,
    else -1.

    Every constant is read off the tables at the samples: the pair
    invariants from all of them, the class constants (constant in lambda)
    from the first, and each position constant f at the sample where its
    inversion is best conditioned, the first such sample on a tie.  The
    ``DEFAULT_SAMPLES`` samples are drawn from ``seed``, each checked for
    poles and the entry cap at that point alone: with the seed of
    :func:`classify`, they are the points it read.  The fixed
    :func:`_reference_point` is not read here; the CLI's ``build`` and
    ``classify`` (the recovered 2-form's ``sampled_at`` point) commands
    use it checked at the point alone, its ``transform`` command and
    :func:`dynrmat.transforms.trig_to_rational_limit` on the whole stencil.
    """
    perm = report.index_permutation
    inv = {v: k for k, v in perm.items()}
    partition = report.recovered_partition
    rng = np.random.default_rng(seed)
    lams = np.asarray(sample_lambda(R, rng, DEFAULT_SAMPLES, stencil=False), dtype=complex)
    delta_st, d_st = R.stacked_tables(lams)
    pair_constants = _pair_constants(*pair_invariants(delta_st, d_st))
    first_diag = np.diagonal(delta_st[0]).tolist()

    def orig(i: int) -> int:
        return inv[i]

    def class_const(cls: tuple[int, ...]) -> complex:
        return first_diag[orig(cls[0]) - 1]

    def class_sums(cls: tuple[int, ...]) -> np.ndarray:
        """The class's sum of lambda components at every sample."""
        return lams[:, [orig(k) - 1 for k in cls]].sum(axis=1)

    per_block: list[BlockConstants] = []
    signs: dict[tuple[int, ...], int] = {}
    f_consts: dict[tuple[int, ...], complex] = {}

    for q, block in enumerate(partition.blocks):
        all_classes = [cls for dc in block for cls in dc.all_d_classes()]
        pairs = [(a[0], b[0]) for k, a in enumerate(all_classes) for b in all_classes[k + 1:]]
        if pairs:
            inv_vals = [pair_constants(orig(i), orig(j)) for (i, j) in pairs]
        else:
            # single d-class block: only the class constant is observable;
            # read it as the rational datum reproducing it (det = Delta^2)
            const = class_const(all_classes[0])
            inv_vals = [(0j, const * const)]
        s_vals = np.array([v[0] for v in inv_vals])
        det_vals = np.array([v[1] for v in inv_vals])
        scale = _magnitude(np.abs(s_vals).max(), np.abs(det_vals).max())
        if (
            np.abs(s_vals - s_vals.mean()).max() > RECOVER_TOL * scale
            or np.abs(det_vals - det_vals.mean()).max() > RECOVER_TOL * scale * scale
        ):
            raise NotInFamilyError(
                f"block {q + 1}: pair invariants differ between pairs"
            )
        sum_c = complex(s_vals.mean())
        det_c = complex(det_vals.mean())
        rational = abs(sum_c) <= RECOVER_TOL * scale
        if rational:
            sum_c = 0j
        consts = BlockConstants(sum_c, det_c)
        per_block.append(consts)
        derived = derive(sum_c, det_c)
        root_plus = (sum_c + derived.discriminant) / 2
        root_minus = (sum_c - derived.discriminant) / 2
        for cls in all_classes:
            const = class_const(cls)
            signs[cls] = (
                +1
                if abs(const - root_plus) <= abs(const - root_minus)
                else -1
            )
        # f recovery inside each exchange class, anchored on its first class:
        # one value per sample, kept where the inversion is best conditioned
        for dc in block:
            classes = dc.all_d_classes()
            anchor = classes[0]
            f_consts[anchor] = consts.conventional_f
            i = anchor[0]
            for cls in classes[1:]:
                j = cls[0]
                dval = delta_st[:, orig(i) - 1, orig(j) - 1]
                x = (
                    signs[anchor] * class_sums(anchor)
                    - signs[cls] * class_sums(cls)
                )
                if rational:
                    # sqrt(det)/Delta = x + f_anchor - f_cls with f_anchor = 0
                    root = principal_sqrt(det_c) / dval
                    f_st = -(root - x)
                    cond = np.abs(x) + np.abs(root)
                else:
                    # 1 - S/Delta = e^{A x} f_anchor/f_cls with f_anchor = 1
                    r = sum_c / dval
                    ax = derived.log_ratio * x
                    f_st = 1.0 / ((1 - r) * np.exp(-ax))
                    cond = np.abs(r) / np.abs(1 - r) + np.abs(ax)
                f_consts[cls] = complex(f_st[np.argmin(cond)])

    cross_det: dict[tuple[int, int], complex] = {}
    first_index_of_block = [
        block[0].all_d_classes()[0][0] for block in partition.blocks
    ]
    for q in range(len(partition.blocks)):
        for qq in range(q + 1, len(partition.blocks)):
            i, j = first_index_of_block[q], first_index_of_block[qq]
            _, det_c = pair_constants(orig(i), orig(j))
            cross_det[(q, qq)] = det_c

    # 2-form recovery: quotient of the measured diagonal coefficients by the
    # reconstructed bare ones
    base = ClassificationParams(partition=partition, per_block=tuple(per_block),
                                cross_det=cross_det, signs=signs, f_consts=f_consts)
    to_orig = np.array([orig(a) - 1 for a in range(1, partition.n + 1)])
    return replace(base, two_form=QuotientTwoForm(R, base, to_orig))


def _magnitude(sum_peak, det_peak):
    """The magnitude of plane invariants whose sums peak at ``sum_peak`` and
    determinants at ``det_peak``: max(|S|, sqrt|Sigma|), which is c times
    that of R for c R, so the thresholds made from it are relative."""
    return np.maximum(sum_peak, np.sqrt(det_peak))


def _pair_constants(sum_st: np.ndarray, det_st: np.ndarray):
    """``pair_constants(i0, j0)``: the sum and determinant invariants of the
    plane of i0 and j0, from the (S, n, n) stacks read at i < j, each the
    mean over the S samples.  It raises :class:`NotInFamilyError` when the
    sum deviates from its mean at some sample by more than ``RECOVER_TOL``
    times the pair's :func:`_magnitude`, or the determinant by more than
    ``RECOVER_TOL`` times its square."""
    invariants = np.stack([sum_st, det_st], axis=-1)
    mean, spread = mean_and_spread(invariants)
    peak = np.abs(invariants).max(axis=0)
    mag = _magnitude(peak[..., 0], peak[..., 1])
    varies = ((spread[..., 0] > RECOVER_TOL * mag)
              | (spread[..., 1] > RECOVER_TOL * mag * mag)).tolist()
    mean = mean.tolist()

    def pair_constants(i0: int, j0: int) -> tuple[complex, complex]:
        i, j = min(i0, j0) - 1, max(i0, j0) - 1
        if varies[i][j]:
            raise NotInFamilyError(
                f"pair invariants of ({i0},{j0}) vary across samples"
            )
        return tuple(mean[i][j])

    return pair_constants


class QuotientTwoForm(TableTwoForm):
    """The 2-form recovered from R: R's d over the d of ``bare``, the build
    of the datum ``base`` (trivial 2-form), on the canonical labels, where
    R's index ``to_orig[a] + 1`` is canonical ``a + 1``.  :meth:`table`
    reads each matrix's tables once per stack and divides with Python's
    complex division, NaN where either d is not finite or the bare one is
    below ``POLE_GUARD`` times the datum's magnitude, max(|S|, sqrt|Sigma|)
    over its blocks and cross constants: c R recovers c S and c^2 Sigma,
    whose bare d are c times those of R's.  ``g`` reads that table, one
    entry per cross-class pair.

    The datum is checked here, so a datum :func:`build` rejects raises its
    :class:`ParameterError` now; ``bare`` itself is built on the first
    read.  ``g`` is made on each read and not kept, so the form holds no
    reference to itself and is freed as soon as it is unused; it is equal
    only to itself."""

    def __init__(self, R: DynamicalRMatrix, base: ClassificationParams, to_orig: np.ndarray):
        check_datum(base.partition, base)
        self.R, self.base, self.to_orig = R, base, to_orig
        self._from_orig = np.argsort(to_orig)
        self._missing = ~(nd_mask(base.partition) | np.eye(len(to_orig), dtype=bool))
        sigmas = [b.det_const for b in base.per_block] + list(base.cross_det.values())
        self._guard = POLE_GUARD * _magnitude(max(abs(b.sum_const) for b in base.per_block),
                                              max(map(abs, sigmas)))
        self._pairs = nd_pairs(base.partition)

    __eq__ = object.__eq__

    @cached_property
    def bare(self) -> DynamicalRMatrix:
        return build(self.base.partition, self.base)

    @property
    def g(self) -> dict[tuple[int, int], partial]:
        return {pair: partial(self.value, *pair) for pair in self._pairs}

    def table(self, n: int, lams: np.ndarray, mask: np.ndarray) -> np.ndarray:
        lams = np.asarray(lams, dtype=complex)
        mask = np.broadcast_to(mask, (len(lams), n, n))
        check_covered(mask, self._missing)
        rows, cols = needed_pairs(mask)
        num = self.R.lookup(lams[:, self._from_orig])[1][:, self.to_orig[rows], self.to_orig[cols]]
        den = self.bare.lookup(lams)[1][:, rows, cols]
        ok = np.isfinite(num) & np.isfinite(den) & (np.abs(den) >= self._guard)
        quot = np.full(num.shape, np.nan, dtype=complex)
        quot[ok] = [a / b for a, b in zip(num[ok].tolist(), den[ok].tolist())]
        return pair_table(n, rows, cols, quot, mask)
