import itertools
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynrmat import classifier
from dynrmat.builder import build
from dynrmat.classifier import (
    DEFAULT_ZERO_TOL,
    QuotientTwoForm,
    RelationReport,
    _reference_point,
    block_structure,
    build_equivalences,
    check_propagation,
    classify,
    degenerate_blocks,
    detect_relations,
    incidence_matrices,
    recover_params,
    triangularize,
)
from dynrmat.errors import AmbiguityError, NotInFamilyError, ParameterError
from dynrmat.hecke import hecke_classify
from dynrmat.params import (
    BlockConstants,
    ClassificationParams,
    ExactTwoForm,
    TrivialTwoForm,
    normalize_f,
    principal_sqrt,
)
from dynrmat.partition import DeltaClass, IndexPartition, to_json
from dynrmat.rmatrix import DynamicalRMatrix, raw_tables
from dynrmat.sampling import random_datum, random_partition, random_two_form
from dynrmat.serialize import params_to_json
from dynrmat.transforms import apply_2form, apply_twist, contract
from dynrmat.verifier import DEFAULT_ENTRY_CAP, sample_lambda

from conftest import assert_no_cyclic_garbage, golden_datum, random_points, times, varied_golden


def test_golden_structure():
    p, c = golden_datum()
    R = build(p, c)
    report = classify(R)
    assert report.recovered_partition == p
    assert report.index_permutation == {i: i for i in range(1, 5)}
    assert report.M_R.tolist() == [[1]]
    assert report.block_sizes == [1]


def test_golden_relations():
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(0)
    rel = detect_relations(R, sample_lambda(R, rng, 5), 1e-8)
    expected = np.zeros((4, 4), dtype=bool)
    expected[[2, 3], [3, 2]] = True
    assert np.array_equal(rel.d_zero, expected)
    assert not rel.delta_zero.any()


def test_golden_constant_recovery():
    p, c = golden_datum()
    R = build(p, c)
    report = classify(R)
    rec = recover_params(R, report)
    assert rec.partition == p
    assert abs(rec.per_block[0].sum_const) < 1e-8
    assert abs(rec.per_block[0].det_const - 1) < 1e-8
    assert rec.signs == c.signs
    for cls, f in c.f_consts.items():
        assert abs(rec.f_consts[cls] - f) < 1e-8


def _signs_match_up_to_block_flip(
    p, a_signs, a_f, b_signs, b_f, rational_blocks, skip_blocks=()
):
    for q, block in enumerate(p.blocks):
        if q in skip_blocks:
            # single-d-class blocks expose only their class constant; the
            # (sign, f) decomposition is a convention there
            continue
        classes = [cls for dc in block for cls in dc.all_d_classes()]
        direct = all(a_signs[cls] == b_signs[cls] for cls in classes)
        flipped = all(a_signs[cls] == -b_signs[cls] for cls in classes)
        if direct:
            if not all(abs(a_f[cls] - b_f[cls]) < 1e-6 for cls in classes):
                return False
        elif flipped:
            want = (lambda v: -v) if rational_blocks[q] else (lambda v: v)
            if not all(abs(a_f[cls] - want(b_f[cls])) < 1e-6 for cls in classes):
                return False
        else:
            return False
    return True


def test_round_trip_random_data():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        p, c = random_datum(n, rng)
        R = build(p, c)
        report = classify(R)
        assert report.recovered_partition == p, to_json(p)
        rec = recover_params(R, report)
        degenerate = degenerate_blocks(p)
        rational = [b.rational for b in c.per_block]
        for q, deg in enumerate(degenerate):
            if deg:
                continue
            assert abs(rec.per_block[q].sum_const - c.per_block[q].sum_const) < 1e-6
            assert abs(rec.per_block[q].det_const - c.per_block[q].det_const) < 1e-6
        for key, v in c.cross_det.items():
            assert abs(rec.cross_det[key] - v) < 1e-6
        skip = {q for q, deg in enumerate(degenerate) if deg}
        assert _signs_match_up_to_block_flip(
            p, rec.signs, rec.f_consts, c.signs, c.f_consts, rational, skip
        )


def _alternating_sign_datum(blocks, two_form, rng):
    """A datum whose d-class signs alternate by ordinal across the whole
    partition, trigonometric blocks included.  ``blocks`` lists per block
    its (sum, det) constants and its exchange classes as (free count,
    d-class sizes); the other constants and the 2-form's potentials are
    drawn from ``rng``."""
    def draw(lo, hi):
        return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))

    out, signs, f = [], {}, {}
    nxt = 1
    for (sum_c, _), classes in blocks:
        block = []
        for free, sizes in classes:
            frees = tuple(range(nxt, nxt + free))
            nxt += free
            dcs = []
            for size in sizes:
                dcs.append(tuple(range(nxt, nxt + size)))
                nxt += size
            block.append(DeltaClass(free=frees, d_classes=tuple(dcs)))
            for cls in block[-1].all_d_classes():
                signs[cls] = 1 if len(signs) % 2 == 0 else -1
                f[cls] = draw(0.3, 3.0) if sum_c else draw(0.0, 2.0)
        out.append(tuple(block))
    n = nxt - 1
    p = IndexPartition(n=n, blocks=tuple(out))
    if two_form == "exact":
        lin = rng.uniform(-0.3, 0.3, (n, n)) + 1j * rng.uniform(-0.3, 0.3, (n, n))
        quad = rng.uniform(-0.1, 0.1, (n, n)) + 1j * rng.uniform(-0.1, 0.1, (n, n))
        g = ExactTwoForm(beta={
            i: lambda lam, a=lin[i - 1], b=quad[i - 1]: np.exp(a @ lam + b @ (lam * lam))
            for i in range(1, n + 1)
        })
    else:
        g = TrivialTwoForm()
    c = ClassificationParams(
        partition=p,
        per_block=tuple(BlockConstants(*consts) for consts, _ in blocks),
        cross_det={(q, qq): draw(0.3, 3.0)
                   for q in range(len(blocks)) for qq in range(q + 1, len(blocks))},
        signs=signs,
        f_consts=f,
        two_form=g,
    )
    c, _ = normalize_f(c)
    return p, c


# Trigonometric blocks with several d-classes per exchange class and a log
# ratio |A| > 3: with alternating signs, the class-sum difference x of a
# pair adds lambda components, and an f read where |e^{A x}| is far from 1
# loses digits.
ALTERNATING_SHAPES = {
    "T f2d2,f1d2,f2 | R f2": [
        ((-2 + 1j, 0.4j), [(2, (2,)), (1, (2,)), (2, ())]),
        ((0j, 0.8 - 0.3j), [(2, ())]),
    ],
    "T f2,d2d2 | T f2 | R f2": [
        ((2.5 + 0.5j, 0.3 - 0.1j), [(2, ()), (0, (2, 2))]),
        ((-2 + 1j, 0.4j), [(2, ())]),
        ((0j, 0.8 - 0.3j), [(2, ())]),
    ],
    "T f2d2,f1d2 | R f1d2": [
        ((-2 + 1j, 0.4j), [(2, (2,)), (1, (2,))]),
        ((0j, 0.8 - 0.3j), [(1, (2,))]),
    ],
}


@pytest.mark.parametrize("two_form", ["trivial", "exact"])
@pytest.mark.parametrize("shape", sorted(ALTERNATING_SHAPES))
def test_recovery_with_alternating_signs_in_trigonometric_blocks(shape, two_form):
    """The matrix rebuilt from the recovered params matches the input to
    1e-11 of its scale at fresh points."""
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng([seed, 17])
        p, c = _alternating_sign_datum(ALTERNATING_SHAPES[shape], two_form, rng)
        R = build(p, c)
        report = classify(R, seed=seed)
        assert report.recovered_partition == p
        rec = recover_params(R, report, seed=seed + 1)
        Rrec = build(rec.partition, rec)
        for lam in sample_lambda(R, rng, 3, stencil=False):
            a, b = R.tables(lam), Rrec.tables(lam)
            scale = max(1.0, float(np.abs(a[0]).max()), float(np.abs(a[1]).max()))
            err = max(float(np.abs(a[0] - b[0]).max()), float(np.abs(a[1] - b[1]).max()))
            worst = max(worst, err / scale)
    assert worst <= 1e-11


def test_recovered_two_form_reproduces_diagonal_coefficients():
    rng = np.random.default_rng(77)
    p, c = random_datum(4, rng, two_form_kind="exact")
    R = build(p, c)
    report = classify(R)
    rec = recover_params(R, report)
    Rrec = build(rec.partition, rec)
    for lam in sample_lambda(R, rng, 3):
        a = R.tables(lam)
        b = Rrec.tables(lam)
        assert np.abs(a[0] - b[0]).max() < 1e-7
        assert np.abs(a[1] - b[1]).max() < 1e-7


def test_decoupled_blocks_reduced_incidence_identity():
    # two zero-sum blocks: the reduced incidence pattern is the identity
    p = IndexPartition(
        n=4,
        blocks=(
            (DeltaClass(free=(1, 2)),),
            (DeltaClass(free=(3, 4)),),
        ),
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(0j, 1 + 0j), BlockConstants(0j, 2 + 0j)),
        cross_det={(0, 1): 1.5 + 0j},
        signs={(i,): 1 for i in range(1, 5)},
        f_consts={(1,): 0j, (2,): 0.5 + 0j, (3,): 0j, (4,): 1 + 0.5j},
    )
    R = build(p, c)
    report = classify(R)
    assert report.recovered_partition == p
    assert report.M_R.tolist() == [[1, 0], [0, 1]]


# -- triangularization against brute force ----------------------------------


def _brute_force_triangular(M_R):
    r = M_R.shape[0]
    for perm in itertools.permutations(range(r)):
        ok = True
        for a in range(r):
            for b in range(r):
                if M_R[perm[a], perm[b]] and a > b:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return list(perm)
    return None


def _partition_M_R(p: IndexPartition) -> np.ndarray:
    """Ground-truth reduced incidence of a canonical partition: inside a
    block, earlier exchange classes dominate later ones; across blocks no
    coupling."""
    classes = []
    for q, block in enumerate(p.blocks):
        for pos, dc in enumerate(block):
            classes.append((q, pos))
    r = len(classes)
    M = np.zeros((r, r), dtype=int)
    for a, (qa, pa) in enumerate(classes):
        for b, (qb, pb) in enumerate(classes):
            if a == b:
                M[a, b] = 1
            elif qa == qb and pa < pb:
                M[a, b] = 1
    return M


@pytest.mark.parametrize("seed", range(12))
def test_triangularize_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    p = random_partition(n, rng)
    M_R = _partition_M_R(p)
    if M_R.shape[0] > 5:
        M_R = M_R[:5, :5]
    # shuffle the class order to hide the triangular structure
    perm = rng.permutation(M_R.shape[0])
    M_shuf = M_R[np.ix_(perm, perm)]
    sigma, levels = triangularize(M_shuf)
    reordered = M_shuf[np.ix_(sigma, sigma)]
    brute = _brute_force_triangular(M_shuf)
    assert brute is not None
    for a in range(len(sigma)):
        for b in range(len(sigma)):
            if reordered[a, b] and a > b:
                pytest.fail("triangularization left a lower entry")
    pi, sizes = block_structure(M_shuf, sigma)
    assert sorted(pi) == list(range(M_shuf.shape[0]))
    assert sum(sizes) == M_shuf.shape[0]


def test_triangularize_rejects_mutual_domination():
    M = np.array([[1, 1], [1, 1]])
    with pytest.raises(NotInFamilyError):
        triangularize(M)


def _longest_chain_levels(M):
    """Each class's longest strict chain ending at it, by recursion."""
    r = len(M)

    def level(b):
        preds = [a for a in range(r) if a != b and M[a][b]]
        return max((1 + level(a) for a in preds), default=0)

    return [level(b) for b in range(r)]


@pytest.mark.parametrize("seed", range(8))
def test_triangularize_levels_are_longest_chains(seed):
    rng = np.random.default_rng(100 + seed)
    r = int(rng.integers(1, 8))
    upper = np.triu(rng.random((r, r)) < 0.4, 1).astype(int) + np.eye(r, dtype=int)
    perm = rng.permutation(r)
    M = upper[np.ix_(perm, perm)]
    sigma, levels = triangularize(M)
    assert levels == _longest_chain_levels(M.tolist())
    assert sigma == sorted(range(r), key=lambda b: (levels[b], b))


def test_triangularize_rejects_a_domination_cycle():
    M = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1]])
    with pytest.raises(NotInFamilyError, match="^cyclic domination between exchange classes$"):
        triangularize(M)


def test_block_structure_rejects_broken_chain():
    # class 0 comparable to 1 and 2, but 1 and 2 incomparable
    M = np.array(
        [
            [1, 1, 1],
            [0, 1, 0],
            [0, 0, 1],
        ]
    )
    sigma, _ = triangularize(M)
    with pytest.raises(NotInFamilyError):
        block_structure(M, sigma)


def test_check_propagation_rejects_bad_pattern():
    # M[1,2] = 0 but M[1,3] = M[3,2] = 1 violates transitive vanishing
    M = np.array(
        [
            [1, 0, 1],
            [1, 1, 1],
            [1, 1, 1],
        ]
    )
    with pytest.raises(NotInFamilyError):
        check_propagation(M)


def test_non_family_matrix_rejected():
    from dynrmat.rmatrix import DynamicalRMatrix

    # indices 1 and 2 form a d-class (d_12 = d_21 = 0) yet their exchange
    # entries toward index 3 differ in vanishing -- an inconsistent pattern
    # no family member produces
    def delta(i, j, lam):
        if (i, j) in ((2, 3), (3, 2)):
            return 0j
        return 1.0 + 0j

    def d(i, j, lam):
        if (i, j) in ((1, 2), (2, 1)):
            return 0j
        return 2.0 + 0j

    R = DynamicalRMatrix(n=3, delta=delta, d=d)
    rng = np.random.default_rng(0)
    lam_samples = [
        rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3) for _ in range(3)
    ]
    with pytest.raises(NotInFamilyError):
        classify(R, samples=lam_samples)


def _mask(n, pairs):
    """The (n, n) mask true at the 1-based ordered ``pairs``."""
    mask = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        mask[i - 1, j - 1] = True
    return mask


def _relations(n, d_zero, delta_zero):
    """A hand-made report: d vanishes on the ordered pairs of ``d_zero``,
    Delta on those of ``delta_zero``."""
    return RelationReport(delta_zero=_mask(n, delta_zero), d_zero=_mask(n, d_zero), scale=1.0)


def _both_ways(pairs):
    return set(pairs) | {(j, i) for i, j in pairs}


@pytest.mark.parametrize("n, d_zero, delta_zero, message", [
    (3, {(1, 2), (2, 3)}, set(),
     "diagonal vanishing is not transitive on (1, 2, 3): pair (1,3) does not vanish"),
    (3, set(), {(1, 3)},
     "exchange coupling is not transitive on (1, 2, 3): pair (1,3) is not coupled both ways"),
    (2, {(1, 2)}, {(1, 2)},
     "d-class (1, 2) straddles several exchange classes"),
    # both relations broken: the d-classes are checked first
    (4, {(2, 3), (3, 4)}, {(4, 1)},
     "diagonal vanishing is not transitive on (2, 3, 4): pair (2,4) does not vanish"),
    # the first broken pair in class order, (5,6), not in row-major order, (2,4)
    (6, {(1, 5), (1, 6), (2, 3), (3, 4)}, set(),
     "diagonal vanishing is not transitive on (1, 5, 6): pair (5,6) does not vanish"),
], ids=["d", "exchange", "straddle", "d-first", "class-order"])
def test_build_equivalences_names_the_broken_relation(n, d_zero, delta_zero, message):
    with pytest.raises(NotInFamilyError) as exc:
        build_equivalences(_relations(n, _both_ways(d_zero), delta_zero), n)
    assert str(exc.value) == message


def test_build_equivalences_names_the_first_one_sided_d_in_row_major_order():
    with pytest.raises(NotInFamilyError) as exc:
        build_equivalences(_relations(4, {(1, 2), (3, 1)}, set()), 4)
    assert str(exc.value) == ("d_12 vanishes but d_21 does not: one-sided diagonal "
                              "vanishing is impossible in the solution family")


@pytest.mark.parametrize("delta_zero, classes, message", [
    ({(2, 2)}, [(1, 2, 3)], "Delta_22 vanishes; diagonal exchange coefficients are "
                            "nonzero for every invertible member of the family"),
    # Delta_13 = 0 but Delta_23 != 0: classes (1, 2) and (3,) are not uniformly coupled
    ({(1, 3), (3, 1), (3, 2)}, [(1, 2), (3,)],
     "mixed zero/nonzero exchange pattern between classes (1, 2) and (3,)"),
], ids=["diagonal", "mixed"])
def test_incidence_matrices_name_what_no_member_has(delta_zero, classes, message):
    with pytest.raises(NotInFamilyError) as exc:
        incidence_matrices(_relations(3, set(), delta_zero), classes, 3)
    assert str(exc.value) == message


def test_block_structure_rejects_comparable_classes_that_are_no_chain():
    """Unreachable from classify, whose triangularize rejects the cycle
    0 -> 2 -> 1 -> 0 first; block_structure still checks its own input."""
    M_R = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    with pytest.raises(NotInFamilyError, match="comparable classes do not form a chain"):
        block_structure(M_R, [0, 1, 2])


def test_detect_relations_needs_three_samples():
    R = build(*golden_datum())
    samples = sample_lambda(R, np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match="at least 3 samples are required"):
        detect_relations(R, samples)


def test_varying_pair_invariants_named():
    # the golden zero pattern with d_13 and d_24 varying: classify accepts
    # the structure, the constant recovery names the first varying pair
    R = varied_golden(d_pairs={(1, 3), (2, 4)})
    structure = classify(R)
    with pytest.raises(NotInFamilyError) as exc:
        recover_params(R, structure)
    assert str(exc.value) == "pair invariants of (1,3) vary across samples"


def test_pair_invariants_that_differ_between_pairs_named():
    # the golden matrix with Delta_12, Delta_21, d_12 and d_21 doubled: the
    # pattern and every pair's invariants stay constant, but the pair (1,2)
    # reads S and Sigma other than those of the pairs (1,3) and (2,3)
    p, c = golden_datum()
    R = build(p, c)
    doubled = np.ones((4, 4))
    doubled[[0, 1], [1, 0]] = 2

    def tables(lams):
        return tuple(t * doubled for t in raw_tables(R, lams))

    M = DynamicalRMatrix.from_tables(4, tables)
    structure = classify(M)
    assert structure.recovered_partition == p
    with pytest.raises(NotInFamilyError) as exc:
        recover_params(M, structure)
    assert str(exc.value) == "block 1: pair invariants differ between pairs"


@pytest.mark.parametrize("kind", ["trivial", "table", "exact"])
def test_recovered_params_serialize_without_a_probe_point(kind):
    # the recovered 2-form depends on lambda; with no probe point given it is
    # read at the origin of C^n
    p, c = random_datum(4, np.random.default_rng(101), kind)
    R = build(p, c)
    params = recover_params(R, classify(R))
    obj = params_to_json(params)
    assert obj["two_form"]["type"] == "table" and "sampled_at" not in obj["two_form"]
    origin = np.zeros(4, dtype=complex)
    for (i, j), fn in params.two_form.g.items():
        v = obj["two_form"]["values"][f"{i},{j}"]
        assert complex(v["re"], v["im"]) == complex(fn(origin))


def test_recovered_two_form_with_a_pole_at_the_origin_needs_a_probe_point():
    # the golden bare build has Delta_12 = 1/(lam_1 - lam_2), so the recovered
    # 2-form cannot be read at the origin
    R = build(*golden_datum())
    params = recover_params(R, classify(R))
    with pytest.raises(ParameterError) as err:
        params_to_json(params)
    assert str(err.value) == (
        "the origin of C^4 is a pole of the 2-form at pair (1,2); "
        "pass probe_lam, a point where it is finite"
    )
    lam = _reference_point(R)
    obj = params_to_json(params, probe_lam=lam)
    assert obj["two_form"]["type"] == "table" and len(obj["two_form"]["sampled_at"]) == 4


@pytest.mark.parametrize("stencil", [False, True])
def test_reference_point_skips_an_entry_above_the_cap_and_keeps_its_stack(stencil):
    """A finite entry above 1e6 at the first point of the ray moves the
    search to the next step, checked alone or on the stencil; the tables
    at the chosen point are then read from the stack the search kept."""
    direction = np.array([0.3 * (k + 1) + 0.17j * (k + 2) for k in range(2)])
    first = 0.1 * 9 * direction  # the first point the search tries
    # Delta_12 = 1 / (lam_1 - lam_2 + f_1 - f_2) is about -1e7 there
    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2), d_classes=()),),))
    c = ClassificationParams(partition=p, per_block=(BlockConstants(0j, 1 + 0j),),
                             signs={(1,): 1, (2,): 1},
                             f_consts={(1,): 0j, (2,): complex(first[0] - first[1]) + 1e-7})
    inner = build(p, c)
    assert 1e6 < abs(inner.tables(first)[0][0, 1]) < np.inf
    calls = []

    def tables(lams):
        calls.append(len(lams))
        return raw_tables(inner, lams)

    R = DynamicalRMatrix.from_tables(2, tables)
    ref = _reference_point(R, stencil=stencil)
    assert ref.tobytes() == (0.1 * 10 * direction).tobytes()
    assert calls == ([3, 3] if stencil else [1, 1])
    R.tables(ref)
    assert len(calls) == 2


def _threshold_matrix(entries, values):
    """An n = 2 matrix of constant entries of magnitude at most 1, with
    Delta_11 = 1, so that its scale is 1; each of ``entries``, a (field,
    i, j) with field 0 for Delta and 1 for d, is ``values[k]`` at a sample
    whose lambda_1 is k."""
    def tables(lams):
        delta = np.ones((len(lams), 2, 2), dtype=complex)
        d = np.full((len(lams), 2, 2), 0.5 + 0j)
        d[:, [0, 1], [0, 1]] = 0
        for field, i, j in entries:
            (delta, d)[field][:, i - 1, j - 1] = np.asarray(values)[lams[:, 0].real.astype(int)]
        return delta, d

    return DynamicalRMatrix.from_tables(2, tables)


THRESHOLD_SAMPLES = [np.array([k, 0.5j]) for k in range(3)]
#: the cut of detect_relations, tol times scale, at the default tol and scale 1
CUT = DEFAULT_ZERO_TOL * 1.0


@pytest.mark.parametrize("field", [0, 1])
@pytest.mark.parametrize("values, zero", [
    ([CUT, CUT, CUT], False),                   # max exactly the cut
    ([0, 0, np.nextafter(CUT, 0)], True),       # max just below it
    ([0, 0, 1e3 * CUT], False),                 # max exactly 1e3 cuts
    ([np.nextafter(CUT, 0), 1, 1], False),      # far above it elsewhere
])
def test_detect_relations_at_the_thresholds(field, values, zero):
    rel = detect_relations(_threshold_matrix([(field, 1, 2)], values), THRESHOLD_SAMPLES)
    assert rel.scale == 1.0
    assert (rel.delta_zero, rel.d_zero)[field][0, 1] == zero


@pytest.mark.parametrize("entries, name", [
    ([(0, 1, 2)], "Delta_12"),
    ([(1, 1, 2)], "d_12"),
    # the first in row-major order, Delta_ij before d_ij
    ([(0, 1, 2), (1, 1, 2)], "Delta_12"),
    ([(0, 2, 1), (1, 2, 1), (1, 1, 2)], "d_12"),
])
@pytest.mark.parametrize("values", [
    [0, 0, np.nextafter(1e3 * CUT, 0)],
    [np.nextafter(CUT, 0), CUT, np.nextafter(1e3 * CUT, 0)],
])
def test_entry_below_the_cut_somewhere_and_never_far_above_is_ambiguous(entries, name, values):
    with pytest.raises(AmbiguityError) as err:
        detect_relations(_threshold_matrix(entries, values), THRESHOLD_SAMPLES)
    assert str(err.value) == (f"{name} is below threshold at some samples but never far "
                              "above it; add samples or move them")


@pytest.mark.parametrize("tol", [0, -1e-8, float("nan"), float("inf"), -float("inf")])
def test_classifier_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    R = build(*random_datum(5, np.random.default_rng(1), "trivial"))
    msg = f"tol must be finite and > 0, got {tol!r}"
    with pytest.raises(ValueError) as err:
        classify(R, tol=tol)
    assert str(err.value) == msg
    samples = sample_lambda(R, np.random.default_rng(0), 3, stencil=False)
    with pytest.raises(ValueError) as err:
        detect_relations(R, samples, tol)
    assert str(err.value) == msg


def _chain_member():
    """A transform chain on a table member: a constant 2-form, a twist by
    callable potentials, then a contraction to the odd indices."""
    rng = np.random.default_rng(8)
    p, c = random_datum(6, rng, "table")
    g = random_two_form(p, rng, "table")
    beta = random_two_form(p, rng, "exact").beta
    return contract(apply_twist(apply_2form(build(p, c), g), beta), (1, 3, 5))


@pytest.mark.parametrize("kind", ["trivial", "table", "exact", "chain"])
def test_classification_leaves_no_reference_cycle(kind):
    def operation():
        if kind == "chain":
            R = _chain_member()
        else:
            R = build(*random_datum(6, np.random.default_rng(7), kind))
        # the readers of the recovered 2-form are made on each read, not kept
        assert recover_params(R, classify(R)).two_form.g
        hecke_classify(R)

    assert_no_cyclic_garbage(operation)


def _counting_builds(monkeypatch):
    builds = []

    def counting(p, c):
        builds.append(p)
        return build(p, c)

    monkeypatch.setattr(classifier, "build", counting)
    return builds


def test_recovered_two_form_builds_the_bare_datum_on_first_read(monkeypatch):
    R = build(*random_datum(5, np.random.default_rng(2), "table"))
    report = classify(R)
    builds = _counting_builds(monkeypatch)
    unread = recover_params(R, report)
    assert builds == []
    g = recover_params(R, report).two_form
    assert builds == [] and g == g and g != unread.two_form
    pairs = list(g.g)
    mask = np.zeros((5, 5), dtype=bool)
    for i, j in pairs:
        mask[i - 1, j - 1] = True
    lams = np.array(random_points(np.random.default_rng(3), 5, 3))
    first = g.table(5, lams, mask)
    assert len(builds) == 1
    assert np.array_equal(g.table(5, lams, mask), first)
    assert g.g[pairs[0]](lams[0]) == first[0][tuple(np.array(pairs[0]) - 1)]
    assert len(builds) == 1 and list(g.g) == pairs


def _one_index_datum(sum_const, det_const):
    p = IndexPartition(n=1, blocks=((DeltaClass(free=(1,)),),))
    return p, ClassificationParams(partition=p, per_block=(BlockConstants(sum_const, det_const),),
                                   signs={(1,): 1}, f_consts={(1,): 1 + 0j})


@pytest.mark.parametrize("bad", ["sign", "D + S", "class constant"])
def test_recovered_two_form_rejects_what_build_rejects_before_building(monkeypatch, bad):
    if bad == "sign":
        p, c = golden_datum()
        c = replace(c, signs={})
    elif bad == "D + S":
        p, c = _one_index_datum(-1 + 0j, 1e-20 + 0j)
    else:
        p, c = _one_index_datum(1e-15 + 0j, 1 + 0j)
    with pytest.raises(ParameterError) as built:
        build(p, c)
    R = build(*golden_datum())
    builds = _counting_builds(monkeypatch)
    with pytest.raises(ParameterError) as err:
        QuotientTwoForm(R, c, np.arange(p.n))
    assert str(err.value) == str(built.value) and builds == []


@lru_cache(maxsize=None)
def _recovered_member():
    """A member with a rational and a trigonometric block, two exchange
    classes in the latter."""
    return build(*random_datum(5, np.random.default_rng(1), "trivial"))


def _recovered_at(c):
    """(partition, [(S, Sigma)], f, 2-form table) that classify and
    recover_params read off c R, the table at three fixed points.  The
    draws are checked against the entry cap times c, so that c = 2^k keeps
    exactly the draws of c = 1: the cap is absolute, and this checks the
    recovery, not the sampler."""
    M = times(_recovered_member(), c)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classifier, "sample_lambda",
                  partial(sample_lambda, entry_cap=DEFAULT_ENTRY_CAP * c))
        report = classify(M)
        params = recover_params(M, report)
    g = params.two_form
    mask = np.zeros((M.n, M.n), dtype=bool)
    for i, j in g.g:
        mask[i - 1, j - 1] = mask[j - 1, i - 1] = True
    table = g.table(M.n, np.array(random_points(np.random.default_rng(3), M.n, 3)), mask)
    return (report.recovered_partition,
            [(b.sum_const, b.det_const) for b in params.per_block], params.f_consts, table)


def _assert_recovered_scales(c):
    """The recovered datum of c R is that of R with S c and Sigma c^2, and
    its 2-form table is R's; returns both tables."""
    partition, consts, f, table = _recovered_at(c)
    partition_1, consts_1, f_1, table_1 = _recovered_at(1.0)
    assert partition == partition_1
    want = [(S * c, Sigma * c * c) for S, Sigma in consts_1]
    assert [S == 0 for S, _ in consts] == [S == 0 for S, _ in want] == [True, False]
    for got, ref in zip([v for pair in consts for v in pair] + [f[k] for k in f_1],
                        [v for pair in want for v in pair] + list(f_1.values())):
        assert abs(got - ref) <= 1e-12 * abs(ref)
    assert np.isfinite(table).all()
    assert (np.abs(table - table_1) <= 1e-12 * np.abs(table_1)).all()
    return table, table_1


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-300, 300))
@example(k=-300)
@example(k=300)
def test_recover_params_reads_c_r_as_r_at_every_power_of_two(k):
    """2^k R recovers the partition of R, S 2^k, Sigma 4^k, the f of R and
    its 2-form table bit for bit: the spread and rational tests and the
    2-form's pole guard are relative to the datum's magnitude."""
    table, table_1 = _assert_recovered_scales(2.0 ** k)
    assert table.tobytes() == table_1.tobytes()


@pytest.mark.parametrize("c", [1e-1, 1e-3, 1e-6, 1e-8, 1e-9, 1e-12])
def test_recover_params_reads_c_r_as_r_at_decimal_scales(c):
    _assert_recovered_scales(c)
