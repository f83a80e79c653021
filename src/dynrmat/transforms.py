"""Structure-preserving transforms of zero-weight dynamical matrices.

Implemented here:

* :func:`apply_twist` -- diagonal gauge action rescaling the diagonal
  coefficients by a shifted quotient of per-index potentials;
* :func:`apply_2form` / :func:`check_closed` -- multiplicative pairwise
  rescaling of the diagonal coefficients, legal when the cyclic shifted
  product over every coupled triplet is 1;
* :func:`contract` -- restriction to a subset of indices (ambient
  dynamical variables frozen at 0);
* :func:`decouple_compose` -- block combination of two solutions joined
  by constant diagonal coefficients;
* :func:`scale_f` -- merges the exchange classes of a multi-class block
  into a single class whose position constants carry powers of a scale
  eta; as eta -> 0 the merged build converges to the multi-class build up
  to an explicit compensating 2-form;
* :func:`reparametrize` -- dynamical-variable offsets that absorb the
  position constants f into lambda;
* :func:`trig_to_rational_limit` -- one-parameter family of nonzero-sum
  data converging entrywise to a given zero-sum datum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, PoleError
from .params import (
    ClassificationParams,
    ExactTwoForm,
    TrivialTwoForm,
    TwoFormSpec,
    constant_table_two_form,
    derive,
    normalize_f,
    principal_sqrt,
    two_form_covers,
)
from .partition import IndexPartition, ValidationResult, nd_pairs, relabel
from .rmatrix import DynamicalRMatrix, raw_tables, stencil_points

DEFAULT_CLOSED_TOL = 1e-10


# -- diagonal gauge twist ---------------------------------------------------


def apply_twist(
    R: DynamicalRMatrix,
    beta: ExactTwoForm | Mapping[int, Callable[[np.ndarray], complex]],
) -> DynamicalRMatrix:
    """Gauge the diagonal coefficients by per-index potentials.

    d'_ij(lam) = (beta_i(lam+e_j)/beta_i(lam)) * (beta_j(lam)/beta_j(lam+e_i)) * d_ij(lam);
    exchange coefficients are unchanged.  ``beta`` is the mapping of
    potentials, or an :class:`ExactTwoForm` whose ``table`` gives the
    multiplier (a :class:`QuadraticExactTwoForm` in closed form).
    """
    multiplier = beta if isinstance(beta, ExactTwoForm) else ExactTwoForm(beta=beta)
    if set(multiplier.beta.keys()) != set(range(1, R.n + 1)):
        raise ParameterError("twist needs one potential per index 1..n")

    def tables(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta, d = raw_tables(R, lams)
        mask = d != 0
        return delta, np.where(mask, d * multiplier.table(R.n, lams, mask), d)

    return DynamicalRMatrix.from_tables(R.n, tables, provenance=R.provenance)


# -- multiplicative 2-form action -------------------------------------------


def _coupled_triplets(p: IndexPartition):
    pairs = set(nd_pairs(p))
    n = p.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                if (
                    (i, j) in pairs
                    and (j, k) in pairs
                    and (i, k) in pairs
                ):
                    yield (i, j, k)


def check_closed(
    g: TwoFormSpec,
    partition: IndexPartition,
    tol: float = DEFAULT_CLOSED_TOL,
    seed: int = 0,
) -> ValidationResult:
    """Check the cyclic shifted product over every coupled triplet.

    For each triplet (i, j, k) whose three pairs all carry diagonal
    coefficients, the product
    (g_ij(lam+e_k)/g_ij(lam)) * (g_jk(lam+e_i)/g_jk(lam)) * (g_ki(lam+e_j)/g_ki(lam))
    must equal 1.  Trivial and potential-derived specs pass structurally
    (the product telescopes); tables are checked numerically at four
    points drawn from ``seed``.  ``g`` is evaluated in one
    :meth:`~dynrmat.params.TwoFormSpec.table` call, on the shift stencils
    of all four, for the pairs of the coupled triplets;
    the products are then formed in Python complex arithmetic.  A
    non-finite entry raises :class:`PoleError`.
    """
    if isinstance(g, (TrivialTwoForm, ExactTwoForm)):
        return ValidationResult(True)
    triplets = list(_coupled_triplets(partition))
    n = partition.n
    rng = np.random.default_rng(seed)
    samples = [rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n) for _ in range(4)]
    mask = np.zeros((n, n), dtype=bool)
    for (i, j, k) in triplets:
        for (a, b) in ((i, j), (j, k), (k, i)):
            mask[a - 1, b - 1] = True
    points = stencil_points(np.asarray(samples, dtype=complex)).reshape(-1, n)
    with np.errstate(all="ignore"):
        tab = g.table(n, points, mask)
    bad = mask & ~np.isfinite(tab)
    if bad.any():
        p, a, b = np.argwhere(bad)[0]
        raise PoleError(f"2-form entry ({a + 1},{b + 1}) is not finite at lam={points[p]}")
    # stencil[s][c] is the table at sample s shifted by e_c (c = 0: unshifted)
    stencil = tab.reshape(-1, n + 1, n, n).tolist()
    worst = 0.0
    worst_triplet = None
    for (i, j, k) in triplets:
        for at in stencil:
            prod = 1.0 + 0j
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                prod *= at[c][a - 1][b - 1] / at[0][a - 1][b - 1]
            dev = abs(prod - 1)
            if dev > worst:
                worst, worst_triplet = dev, (i, j, k)
    if worst > tol:
        return ValidationResult(
            False,
            f"2-form not closed: triplet {worst_triplet} has cyclic defect {worst:.3e}",
        )
    return ValidationResult(True)


def apply_2form(
    R: DynamicalRMatrix,
    g: TwoFormSpec,
    check: bool = True,
    seed: int = 0,
) -> DynamicalRMatrix:
    """Multiply each coupled diagonal coefficient d_ij by g_ij.

    Exchange coefficients and uncoupled pairs are untouched.  Unless
    ``check=False``, closedness of ``g`` over the coupled triplets of R's
    classification is verified first and a violation raises
    :class:`ParameterError` naming the worst triplet.  A table 2-form
    without an entry for a coupled pair raises :class:`ParameterError`
    naming the first such pair.
    """
    if R.provenance is not None and R.provenance.partition is not None:
        partition = R.provenance.partition
    else:
        from .classifier import classify

        partition = classify(R).recovered_partition
    covered = two_form_covers(g, partition)
    if not covered:
        raise ParameterError(covered.message)
    if check:
        res = check_closed(g, partition, seed=seed)
        if not res:
            raise ParameterError(res.message)
    coupled = np.zeros((R.n, R.n), dtype=bool)
    for i, j in nd_pairs(partition):
        coupled[i - 1, j - 1] = coupled[j - 1, i - 1] = True

    def tables(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta, d = raw_tables(R, lams)
        mask = coupled & (d != 0)
        return delta, np.where(mask, d * g.table(R.n, lams, mask), d)

    return DynamicalRMatrix.from_tables(R.n, tables, provenance=R.provenance)


# -- contraction ------------------------------------------------------------


def contract(R: DynamicalRMatrix, subset: Sequence[int]) -> DynamicalRMatrix:
    """Restrict to ``subset`` (strictly increasing), relabeling to 1..m.

    The dynamical variables of discarded indices are frozen at 0.
    """
    subset = tuple(int(i) for i in subset)
    if not subset:
        raise ParameterError("contraction subset must be nonempty")
    if list(subset) != sorted(set(subset)):
        raise ParameterError("contraction subset must be strictly increasing")
    if subset[0] < 1 or subset[-1] > R.n:
        raise ParameterError(f"contraction subset must lie in 1..{R.n}")
    idx = np.array(subset) - 1
    pick = (slice(None),) + np.ix_(idx, idx)

    def tables(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        full = np.zeros((len(lams), R.n), dtype=complex)
        full[:, idx] = lams
        delta, d = raw_tables(R, full)
        return delta[pick], d[pick]

    return DynamicalRMatrix.from_tables(len(subset), tables)


# -- decoupled composition --------------------------------------------------


def decouple_compose(
    Ra: DynamicalRMatrix,
    Rb: DynamicalRMatrix,
    g_ab: complex,
    g_ba: complex,
) -> DynamicalRMatrix:
    """Combine two solutions on disjoint index ranges.

    Output indices 1..na come from ``Ra``, na+1..na+nb from ``Rb``.  Cross
    pairs get zero exchange coefficients and the constant diagonal
    coefficients ``g_ab`` (first range to second) and ``g_ba``.
    """
    g_ab, g_ba = complex(g_ab), complex(g_ba)
    for name, v in (("g_ab", g_ab), ("g_ba", g_ba)):
        if not cmath.isfinite(v):
            raise ParameterError(
                f"cross coefficient {name} of a decoupled composition must be finite")
    if g_ab == 0 or g_ba == 0:
        raise ParameterError("cross coefficients of a decoupled composition must be nonzero")
    na, n = Ra.n, Ra.n + Rb.n

    def tables(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta = np.zeros((len(lams), n, n), dtype=complex)
        d = np.empty_like(delta)
        d[:, :na, na:], d[:, na:, :na] = g_ab, g_ba
        delta[:, :na, :na], d[:, :na, :na] = raw_tables(Ra, lams[:, :na])
        delta[:, na:, na:], d[:, na:, na:] = raw_tables(Rb, lams[:, na:])
        return delta, d

    return DynamicalRMatrix.from_tables(n, tables)


# -- exchange-class merging under a scale -----------------------------------


@dataclass
class ScaledDatum:
    """Result of :func:`scale_f`.

    ``params`` is a valid datum whose formerly multi-class blocks each
    consist of a single exchange class; ``index_map`` sends original index
    labels to the relabeled ones; ``compensator`` is the constant 2-form
    (keyed by new labels) that must multiply the merged build's diagonal
    coefficients for it to converge, as eta -> 0, to the multi-class build.
    """

    params: ClassificationParams
    index_map: dict[int, int]
    compensator: TwoFormSpec
    eta: float


def scale_f(params: ClassificationParams, eta: float) -> ScaledDatum:
    """Merge each multi-class block into one exchange class at scale eta.

    A sub-class (free singleton or d-class) sitting in the exchange class
    at position p (1-based) has its position constant multiplied by
    eta^(1-p).  Free indices are moved in front of the d-classes inside the
    merged class, which relabels indices; the returned ``index_map`` and
    constant ``compensator`` 2-form make the merged build comparable to
    the original.
    """
    if not math.isfinite(eta):
        raise ParameterError("scale must be finite")
    if eta <= 0:
        raise ParameterError("scale must be positive")
    if not isinstance(params.two_form, TrivialTwoForm):
        raise ParameterError(
            "exchange-class merging is defined for data with trivial 2-form; "
            "apply the 2-form separately"
        )
    p = params.partition
    blocks = []
    # per old d-class its f times eta^(1-p), p the exchange class's position;
    # a real scale, componentwise: at p = 1 every bit stays, signed zeros too
    new_f: dict = {}
    class_position: dict[int, int] = {}  # per old label, for the compensator
    for q, block in enumerate(p.blocks):
        if len(block) > 1 and params.per_block[q].rational:
            raise ParameterError("cannot merge exchange classes of a zero-sum block")
        for pos, dclass in enumerate(block, start=1):
            for cls in dclass.all_d_classes():
                f, s = params.f_consts[cls], eta ** (1 - pos)
                new_f[cls] = complex(f.real * s, f.imag * s)
                class_position.update(dict.fromkeys(cls, pos))
        blocks.append([([i for dc in block for i in dc.free],
                        [cls for dc in block for cls in dc.d_classes])])
    new_p, index_map = relabel(p.n, blocks)
    order = list(index_map)  # old labels in new-label order

    def new(cls: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(index_map[i] for i in cls)

    merged_params = ClassificationParams(
        partition=new_p,
        per_block=params.per_block,
        cross_det=params.cross_det,
        signs={new(c): params.signs[c] for c in new_f},
        f_consts={new(c): f for c, f in new_f.items()},
        two_form=TrivialTwoForm(),
    )
    merged_params, _ = normalize_f(merged_params)

    # compensating constant 2-form: on former cross-class pairs of a merged
    # block, g_ij = sqrt(Sigma)/(B - S) for i in the earlier class and
    # g_ji = sqrt(Sigma)/B; elsewhere 1
    comp_values: dict[tuple[int, int], complex] = {}
    block_of_old = {idx: q for q, block in enumerate(p.blocks) for dc in block for idx in dc.members()}
    for (i, j) in nd_pairs(new_p):
        oi = order[i - 1]
        oj = order[j - 1]
        q = block_of_old[oi]
        if block_of_old[oj] != q or class_position[oi] == class_position[oj]:
            comp_values[(i, j)] = 1.0 + 0j
            continue
        consts = params.per_block[q]
        der = derive(consts.sum_const, consts.det_const)
        sq = principal_sqrt(consts.det_const)
        if class_position[oi] < class_position[oj]:
            comp_values[(i, j)] = sq / (der.root - consts.sum_const)
        else:
            comp_values[(i, j)] = sq / der.root
    return ScaledDatum(
        params=merged_params,
        index_map=index_map,
        compensator=constant_table_two_form(comp_values),
        eta=eta,
    )


# -- absorbing position constants into the dynamical variables --------------


def reparametrize(params: ClassificationParams) -> dict:
    """Offsets of the dynamical variables that absorb the f constants.

    Returns ``{"offsets": {index: complex}}`` such that building the datum
    with every position constant reset to its conventional value (1 in
    nonzero-sum blocks, 0 in zero-sum blocks) and evaluating at
    lam + offsets reproduces the original build at lam.
    """
    p = params.partition
    offsets: dict[int, complex] = {}
    for q, block in enumerate(p.blocks):
        consts = params.per_block[q]
        der = None if consts.rational else derive(consts.sum_const, consts.det_const)
        for dclass in block:
            for cls in dclass.all_d_classes():
                eps = params.signs[cls]
                f = complex(params.f_consts[cls])
                size = len(cls)
                if consts.rational:
                    off = (eps / size) * f
                else:
                    if f == 0:
                        raise ParameterError(
                            f"position constant of d-class {list(cls)} is zero"
                        )
                    off = (eps / size) * (np.log(complex(f)) / der.log_ratio)
                for idx in cls:
                    offsets[idx] = complex(off)
    return {"offsets": offsets}


def conventional_f(params: ClassificationParams) -> ClassificationParams:
    """The same datum with every position constant at its conventional value."""
    new_f = {}
    for q, block in enumerate(params.partition.blocks):
        want = 0j if params.per_block[q].rational else 1 + 0j
        for dclass in block:
            for cls in dclass.all_d_classes():
                new_f[cls] = want
    return replace(params, f_consts=new_f)


# -- limit from nonzero-sum to zero-sum data --------------------------------


@dataclass
class LimitReport:
    xi_values: list[float]
    distances: list[float]
    orders: list[float] = field(default_factory=list)

    @property
    def converging(self) -> bool:
        return all(o >= 0.9 for o in self.orders) and (
            all(b < a for a, b in zip(self.distances, self.distances[1:]))
        )


def _limit_member(params: ClassificationParams, xi: float) -> ClassificationParams:
    per_block = []
    new_f = dict(params.f_consts)
    for q, block in enumerate(params.partition.blocks):
        consts = params.per_block[q]
        per_block.append(replace(consts, sum_const=principal_sqrt(consts.det_const) * xi))
        for dclass in block:
            for cls in dclass.all_d_classes():
                new_f[cls] = 1 - complex(params.f_consts[cls]) * xi
    return replace(params, per_block=tuple(per_block), f_consts=new_f)


def trig_to_rational_limit(
    rational_params: ClassificationParams,
    xi_sequence: Sequence[float],
) -> LimitReport:
    """Entrywise convergence of a nonzero-sum family to a zero-sum datum.

    Every block of the input must have zero sum constant and a single
    exchange class.  For each xi the family member has sum constant
    slope*xi, where slope is the principal square root of the block's
    determinant constant, and position constants 1 - f*xi;
    the report gives the max entrywise distance of its coefficient tables
    (so of its matrix) to the zero-sum build's at
    :func:`~dynrmat.classifier._reference_point`, and the empirical
    convergence orders between consecutive xi values.  ``xi_sequence``
    must hold at least two finite nonzero values of one sign, no two
    consecutive ones of equal magnitude, so that every order is defined
    (:class:`ParameterError` otherwise).
    """
    from .builder import build
    from .classifier import _reference_point

    p = rational_params.partition
    for q, block in enumerate(p.blocks):
        if not rational_params.per_block[q].rational:
            raise ParameterError(f"block {q + 1} has nonzero sum constant")
        if len(block) != 1:
            raise ParameterError(
                f"block {q + 1} has several exchange classes; limit needs one"
            )
    xi_values = [float(x) for x in xi_sequence]
    if (
        len(xi_values) < 2
        or not all(math.isfinite(x) and x != 0 for x in xi_values)
        or len({x > 0 for x in xi_values}) != 1
        or any(abs(a) == abs(b) for a, b in zip(xi_values, xi_values[1:]))
    ):
        raise ParameterError(
            f"limit sequence {xi_values} shows no convergence order: it needs at least "
            "two finite nonzero values of one sign, no two consecutive of equal magnitude"
        )
    R0 = build(p, rational_params)
    lam = _reference_point(R0)
    base = np.stack(R0.tables(lam))
    distances = []
    for xi in xi_values:
        member = _limit_member(rational_params, xi)
        # the entrywise distance of the matrices: every other entry is 0 in both
        distances.append(float(np.abs(np.stack(build(p, member).tables(lam)) - base).max()))
    orders = []
    for (x1, d1), (x2, d2) in zip(
        zip(xi_values, distances), zip(xi_values[1:], distances[1:])
    ):
        if d2 == 0 or d1 == 0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log(d1 / d2) / np.log(x1 / x2)))
    return LimitReport(xi_values=xi_values, distances=distances, orders=orders)
