import itertools

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.classifier import (
    block_structure,
    check_propagation,
    classify,
    degenerate_blocks,
    detect_relations,
    recover_params,
    triangularize,
)
from dynrmat.errors import NotInFamilyError
from dynrmat.params import BlockConstants, ClassificationParams, principal_sqrt
from dynrmat.partition import DeltaClass, IndexPartition, to_json
from dynrmat.sampling import random_datum, random_partition
from dynrmat.serialize import params_to_json
from dynrmat.verifier import sample_lambda

from conftest import golden_datum, varied_golden


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
    assert rel.d_zero == {(3, 4)}
    assert rel.delta_zero == set()


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


def test_varying_pair_invariants_named():
    # the golden zero pattern with d_13 and d_24 varying: classify accepts
    # the structure, the constant recovery names the first varying pair
    R = varied_golden(d_pairs={(1, 3), (2, 4)})
    structure = classify(R)
    with pytest.raises(NotInFamilyError) as exc:
        recover_params(R, structure)
    assert str(exc.value) == "pair invariants of (1,3) vary across samples"


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
