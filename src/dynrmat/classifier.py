"""Recover the taxonomy of a zero-weight matrix from numeric samples.

Pipeline: sample the coefficient tables at several generic dynamical
points, detect which entries vanish identically, build the d-class and
exchange-class equivalences, form the incidence matrices, order the
exchange classes (upper-triangularization by longest-chain level, then
block grouping), canonicalize the partition, and finally invert the
closed forms to recover the numeric datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import cmath

import numpy as np

from .errors import AmbiguityError, NotInFamilyError, PoleError
from .params import (
    POLE_GUARD,
    BlockConstants,
    ClassificationParams,
    TableTwoForm,
    TrivialTwoForm,
    derive,
    principal_sqrt,
)
from .partition import DeltaClass, IndexPartition
from .rmatrix import DynamicalRMatrix, pair_invariants, shift_stencil
from .verifier import sample_lambda

DEFAULT_ZERO_TOL = 1e-8
DEFAULT_SAMPLES = 5


@dataclass
class RelationReport:
    """Raw zero/nonzero detection for both coefficient fields."""

    d_zero: set[tuple[int, int]]          # unordered pairs (i < j)
    delta_zero: set[tuple[int, int]]      # ordered pairs
    d_zero_ordered: set[tuple[int, int]]  # ordered pairs, for symmetry checks
    scale: float


@dataclass
class IncidenceReport:
    M: np.ndarray                          # n x n 0/1 exchange-incidence matrix
    M_R: np.ndarray                        # r x r reduced matrix (input class order)
    sigma: list[int]                       # upper-triangularizing class order (0-based)
    levels: list[int]                      # chain level per class (input order)
    pi: list[int]                          # block-grouping class order (0-based)
    block_sizes: list[int]                 # sizes of the grouped blocks, in pi order
    d_classes: list[tuple[int, ...]]       # original-label d-classes, input order
    delta_classes: list[tuple[int, ...]]   # original-label exchange classes, input order
    recovered_partition: IndexPartition    # canonical partition over new labels
    index_permutation: dict[int, int]      # original index -> canonical index
    class_members: list[list[tuple[int, ...]]] = field(default_factory=list)


def detect_relations(
    R: DynamicalRMatrix,
    samples: Sequence[np.ndarray],
    tol: float = DEFAULT_ZERO_TOL,
) -> RelationReport:
    """Classify every coefficient as identically zero or generically nonzero.

    An entry is *zero* when its max magnitude over all samples is below
    tol * scale; it is *ambiguous* (raises :class:`AmbiguityError`) when it
    is large at some samples but below the threshold at others, which
    indicates an accidental zero at a special point.
    """
    if len(samples) < 3:
        raise ValueError("at least 3 samples are required")
    n = R.n
    delta_mag, d_mag = map(np.abs, R.stacked_tables(np.asarray(samples, dtype=complex)))
    scale = max(float(delta_mag.max()), float(d_mag.max()))
    if scale == 0:
        raise NotInFamilyError("matrix is identically zero at all samples")
    cut = tol * scale

    def classify(mag_max: float, mag_min: float, what: str) -> bool:
        if mag_max < cut:
            return True
        # Trigonometric entries legitimately span many orders of magnitude
        # over the sample box, so dipping under the threshold at one sample
        # is only suspicious when the entry never gets clearly above it.
        if mag_min < cut and mag_max < 1e3 * cut:
            raise AmbiguityError(
                f"{what} is below threshold at some samples but never far "
                "above it; add samples or move them"
            )
        return False

    delta_zero: set[tuple[int, int]] = set()
    d_zero_ordered: set[tuple[int, int]] = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            col = delta_mag[:, i - 1, j - 1]
            if classify(float(col.max()), float(col.min()), f"Delta_{i}{j}"):
                delta_zero.add((i, j))
            if i != j:
                col = d_mag[:, i - 1, j - 1]
                if classify(float(col.max()), float(col.min()), f"d_{i}{j}"):
                    d_zero_ordered.add((i, j))
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


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self) -> list[tuple[int, ...]]:
        groups: dict[int, list[int]] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [tuple(sorted(v)) for _, v in sorted(groups.items())]


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
    uf = _UnionFind(range(1, n + 1))
    for (i, j) in rel.d_zero:
        uf.union(i, j)
    d_classes = uf.classes()
    for cls in d_classes:
        for a in cls:
            for b in cls:
                if a < b and (a, b) not in rel.d_zero:
                    raise NotInFamilyError(
                        f"diagonal vanishing is not transitive on {cls}: "
                        f"pair ({a},{b}) does not vanish"
                    )

    def exchange_coupled(i: int, j: int) -> bool:
        return (i, j) not in rel.delta_zero and (j, i) not in rel.delta_zero

    uf2 = _UnionFind(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if exchange_coupled(i, j):
                uf2.union(i, j)
    delta_classes = uf2.classes()
    for cls in delta_classes:
        for a in cls:
            for b in cls:
                if a < b and not exchange_coupled(a, b):
                    raise NotInFamilyError(
                        f"exchange coupling is not transitive on {cls}: "
                        f"pair ({a},{b}) is not coupled both ways"
                    )
    # every d-class must sit inside one exchange class
    dc_of = {}
    for cid, cls in enumerate(delta_classes):
        for i in cls:
            dc_of[i] = cid
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
    M = np.ones((n, n), dtype=int)
    for (i, j) in rel.delta_zero:
        if i != j:
            M[i - 1, j - 1] = 0
    for i in range(1, n + 1):
        if (i, i) in rel.delta_zero:
            raise NotInFamilyError(
                f"Delta_{i}{i} vanishes; diagonal exchange coefficients are "
                "nonzero for every invertible member of the family"
            )
    r = len(delta_classes)
    M_R = np.zeros((r, r), dtype=int)
    for a, ca in enumerate(delta_classes):
        for b, cb in enumerate(delta_classes):
            if a == b:
                M_R[a, b] = 1
                continue
            vals = {M[i - 1, j - 1] for i in ca for j in cb}
            if len(vals) != 1:
                raise NotInFamilyError(
                    f"mixed zero/nonzero exchange pattern between classes "
                    f"{ca} and {cb}"
                )
            M_R[a, b] = vals.pop()
    return M, M_R


def triangularize(M_R: np.ndarray) -> tuple[list[int], list[int]]:
    """Order the classes so that the reduced matrix becomes upper triangular.

    The strict order is a -> b iff M_R[a, b] = 1 off-diagonal.  Classes are
    labelled by the length of the longest strict chain ending at them and
    stably sorted by (level, original label).  Cycles or two-sided
    couplings certify a non-solution.
    """
    r = M_R.shape[0]
    for a in range(r):
        for b in range(a + 1, r):
            if M_R[a, b] and M_R[b, a]:
                raise NotInFamilyError(
                    f"classes {a + 1} and {b + 1} dominate each other "
                    "(antisymmetry violation)"
                )
    preds = {b: [a for a in range(r) if a != b and M_R[a, b]] for b in range(r)}
    levels: list[Optional[int]] = [None] * r
    in_progress: set[int] = set()

    def level(b: int) -> int:
        if levels[b] is not None:
            return levels[b]
        if b in in_progress:
            raise NotInFamilyError("cyclic domination between exchange classes")
        in_progress.add(b)
        lv = 0 if not preds[b] else 1 + max(level(a) for a in preds[b])
        in_progress.discard(b)
        levels[b] = lv
        return lv

    for b in range(r):
        level(b)
    sigma = sorted(range(r), key=lambda b: (levels[b], b))
    return sigma, [int(v) for v in levels]


def block_structure(M_R: np.ndarray, sigma: list[int]) -> tuple[list[int], list[int]]:
    """Group mutually comparable classes into blocks.

    Working through the upper-triangularized order: take the first
    remaining class, gather every remaining class comparable to it (for
    solutions these form a chain), order the chain by domination and emit
    it as one block.  A class comparable to two mutually incomparable
    classes certifies a non-solution.
    """
    def comparable(a: int, b: int) -> bool:
        return bool(M_R[a, b] or M_R[b, a])

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
        chain = sorted(group, key=lambda c: -sum(int(M_R[c, o]) for o in group))
        for a, b in zip(chain, chain[1:]):
            if not M_R[a, b]:
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
    num_samples: int = DEFAULT_SAMPLES,
) -> IncidenceReport:
    """Full structural classification of a zero-weight matrix."""
    if samples is None:
        rng = np.random.default_rng(seed)
        samples = sample_lambda(R, rng, num_samples)
    rel = detect_relations(R, samples, tol)
    eq = build_equivalences(rel, R.n)
    delta_classes = eq["delta_classes"]
    d_classes = eq["d_classes"]
    M, M_R = incidence_matrices(rel, delta_classes, R.n)
    check_propagation(M)
    sigma, levels = triangularize(M_R)
    pi, sizes = block_structure(M_R, sigma)

    # canonical partition: blocks in pi order, exchange classes in chain
    # order, free indices before multi-element d-classes, relabelled 1..n
    dclass_of = {}
    for cls in d_classes:
        for i in cls:
            dclass_of[i] = cls
    index_permutation: dict[int, int] = {}
    next_label = 1
    blocks = []
    class_members: list[list[tuple[int, ...]]] = []
    pos = 0
    for size in sizes:
        block_cls = pi[pos:pos + size]
        pos += size
        block = []
        members_here = []
        for c in block_cls:
            members = delta_classes[c]
            frees = sorted(i for i in members if len(dclass_of[i]) == 1)
            multis = sorted(
                {dclass_of[i] for i in members if len(dclass_of[i]) > 1},
                key=lambda cls: cls[0],
            )
            ordered = list(frees)
            for m in multis:
                ordered.extend(sorted(m))
            for i in ordered:
                index_permutation[i] = next_label
                next_label += 1
            new_free = tuple(index_permutation[i] for i in frees)
            new_multis = tuple(
                tuple(index_permutation[i] for i in sorted(m)) for m in multis
            )
            block.append(DeltaClass(free=new_free, d_classes=new_multis))
            members_here.append(tuple(ordered))
        blocks.append(tuple(block))
        class_members.append(members_here)
    partition = IndexPartition(n=R.n, blocks=tuple(blocks))
    return IncidenceReport(
        M=M,
        M_R=M_R,
        sigma=sigma,
        levels=levels,
        pi=pi,
        block_sizes=sizes,
        d_classes=d_classes,
        delta_classes=delta_classes,
        recovered_partition=partition,
        index_permutation=index_permutation,
        class_members=class_members,
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
    for i in range(n):
        for j in range(n):
            if i != j and M[i, j] == 0:
                for k in range(n):
                    if M[i, k] and M[k, j]:
                        raise NotInFamilyError(
                            f"zero-propagation violated at "
                            f"({i + 1},{j + 1}) via {k + 1}"
                        )


def _reference_point(R: DynamicalRMatrix) -> np.ndarray:
    """Deterministic well-conditioned evaluation point for constant recovery."""
    n = R.n
    direction = np.array(
        [0.3 * (k + 1) + 0.17j * (k + 2) for k in range(n)], dtype=complex
    )
    for step in range(9, 60):
        lam = 0.1 * step * direction
        try:
            delta_st, d_st = shift_stencil(R, lam)
        except PoleError:
            continue
        if max(np.abs(delta_st).max(), np.abs(d_st).max()) <= 1e6:
            return lam
    raise PoleError("no well-conditioned reference point found")


def recover_params(
    R: DynamicalRMatrix,
    report: IncidenceReport,
    samples: Optional[Sequence[np.ndarray]] = None,
    tol: float = 1e-7,
    seed: int = 0,
) -> ClassificationParams:
    """Invert the closed forms: recover all numeric constants of the datum.

    The returned params are expressed over the canonical labels of
    ``report.recovered_partition``.  Blocks without any cross-d-class pair
    are degenerate (only the class constant Delta is observable); they are
    reported as the rational datum sum = 0, det = Delta^2, with sign +1
    when principal_sqrt(det) is at least as near to Delta as its negative,
    else -1.
    """
    perm = report.index_permutation
    inv = {v: k for k, v in perm.items()}
    partition = report.recovered_partition
    if samples is None:
        rng = np.random.default_rng(seed)
        samples = sample_lambda(R, rng, DEFAULT_SAMPLES)
    lam_ref = _reference_point(R)
    dt_ref, _ = R.tables(lam_ref)

    sum_st, det_st = pair_invariants(
        *R.stacked_tables(np.asarray(samples, dtype=complex))
    )

    def pair_constants(i0: int, j0: int) -> tuple[complex, complex]:
        i, j = min(i0, j0) - 1, max(i0, j0) - 1
        sums, dets = sum_st[:, i, j], det_st[:, i, j]
        scale = max(1.0, float(np.abs(sums).max()), float(np.abs(dets).max()))
        if (
            np.abs(sums - sums.mean()).max() > tol * scale
            or np.abs(dets - dets.mean()).max() > tol * scale
        ):
            raise NotInFamilyError(
                f"pair invariants of ({i0},{j0}) vary across samples"
            )
        return complex(sums.mean()), complex(dets.mean())

    def orig(i: int) -> int:
        return inv[i]

    per_block: list[BlockConstants] = []
    signs: dict[tuple[int, ...], int] = {}
    f_consts: dict[tuple[int, ...], complex] = {}

    # class sums at the reference point, per canonical d-class
    def class_sum(cls: tuple[int, ...], lam: np.ndarray) -> complex:
        return complex(sum(lam[orig(k) - 1] for k in cls))

    for q, block in enumerate(partition.blocks):
        all_classes = [cls for dc in block for cls in dc.all_d_classes()]
        nd = [
            (a, b)
            for ai, a in enumerate(all_classes)
            for b in all_classes[ai + 1:]
        ]
        if not nd:
            # single d-class block: only the class constant is observable;
            # report the rational datum reproducing it (det = Delta^2)
            cls = all_classes[0]
            const = complex(dt_ref[orig(cls[0]) - 1, orig(cls[0]) - 1])
            det_c = const * const
            per_block.append(BlockConstants(0j, det_c))
            signs[cls] = (
                +1 if abs(principal_sqrt(det_c) - const) <= abs(
                    principal_sqrt(det_c) + const
                ) else -1
            )
            f_consts[cls] = 0j
            continue
        pairs = [(a[0], b[0]) for a, b in nd]
        inv_vals = [pair_constants(orig(i), orig(j)) for (i, j) in pairs]
        s_vals = np.array([v[0] for v in inv_vals])
        det_vals = np.array([v[1] for v in inv_vals])
        scale = max(
            1.0, float(np.abs(s_vals).max()), float(np.abs(det_vals).max())
        )
        if (
            np.abs(s_vals - s_vals.mean()).max() > tol * scale
            or np.abs(det_vals - det_vals.mean()).max() > tol * scale
        ):
            raise NotInFamilyError(
                f"block {q + 1}: pair invariants differ between pairs"
            )
        sum_c = complex(s_vals.mean())
        det_c = complex(det_vals.mean())
        rational = abs(sum_c) < tol * scale
        if rational:
            sum_c = 0j
        consts = BlockConstants(sum_c, det_c)
        per_block.append(consts)
        derived = derive(sum_c, det_c)
        root_plus = (sum_c + derived.discriminant) / 2
        root_minus = (sum_c - derived.discriminant) / 2
        for cls in all_classes:
            const = complex(dt_ref[orig(cls[0]) - 1, orig(cls[0]) - 1])
            signs[cls] = (
                +1
                if abs(const - root_plus) <= abs(const - root_minus)
                else -1
            )
        # f recovery inside each exchange class, anchored on its first class
        for dc in block:
            classes = dc.all_d_classes()
            anchor = classes[0]
            f_consts[anchor] = 0j if rational else 1 + 0j
            i = anchor[0]
            for cls in classes[1:]:
                j = cls[0]
                dval = complex(dt_ref[orig(i) - 1, orig(j) - 1])
                x = (
                    signs[anchor] * class_sum(anchor, lam_ref)
                    - signs[cls] * class_sum(cls, lam_ref)
                )
                if rational:
                    # sqrt(det)/Delta = x + f_anchor - f_cls with f_anchor = 0
                    f_consts[cls] = -(principal_sqrt(det_c) / dval - x)
                else:
                    # 1 - S/Delta = e^{A x} f_anchor/f_cls with f_anchor = 1
                    ratio = (1 - sum_c / dval) * cmath.exp(
                        -derived.log_ratio * x
                    )
                    f_consts[cls] = 1.0 / ratio

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
    # reconstructed bare ones, as evaluable functions of lambda
    base = ClassificationParams(
        partition=partition,
        per_block=tuple(per_block),
        cross_det=cross_det,
        signs=signs,
        f_consts=f_consts,
        two_form=TrivialTwoForm(),
    )
    g_table = _recover_two_form(R, base, inv)
    return ClassificationParams(
        partition=partition,
        per_block=tuple(per_block),
        cross_det=cross_det,
        signs=signs,
        f_consts=f_consts,
        two_form=g_table,
    )


def _recover_two_form(
    R: DynamicalRMatrix,
    base: ClassificationParams,
    inv: dict[int, int],
) -> TableTwoForm:
    from .builder import build
    from .partition import class_id_map

    bare = build(base.partition, base)
    cid = class_id_map(base.partition)
    table = {}
    n = base.partition.n
    to_orig = np.array([inv[a] - 1 for a in range(1, n + 1)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if cid[i] == cid[j]:
                continue

            def g_func(lam, _i=i, _j=j):
                # lam is expressed over the canonical labels
                lam = np.asarray(lam, dtype=complex)
                orig_lam = np.empty(n, dtype=complex)
                orig_lam[to_orig] = lam
                denom = bare.d(_i, _j, lam)
                if abs(denom) < POLE_GUARD:
                    raise PoleError(f"bare diagonal coefficient vanishes at {lam}")
                return R.d(inv[_i], inv[_j], orig_lam) / denom

            table[(i, j)] = g_func
    return TableTwoForm(g=table)
