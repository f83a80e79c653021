from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.errors import ParameterError, PoleError
from dynrmat.hecke import hecke_classify
from dynrmat.params import (
    BlockConstants,
    ClassificationParams,
    ExactTwoForm,
    TableTwoForm,
    TrivialTwoForm,
    constant_table_two_form,
    derive,
    normalize_f,
    principal_sqrt,
)
from dynrmat.partition import DeltaClass, IndexPartition, nd_pairs
from dynrmat.rmatrix import DynamicalRMatrix, composite_index, evaluate, pair_invariants
from dynrmat.sampling import random_datum
from dynrmat.transforms import (
    apply_2form,
    apply_twist,
    check_closed,
    contract,
    conventional_f,
    decouple_compose,
    reparametrize,
    scale_f,
    trig_to_rational_limit,
)
from dynrmat.verifier import check_system, dqybe_residual_normalized, sample_lambda

from conftest import golden_datum, random_points


def _two_class_trig():
    p = IndexPartition(
        n=4,
        blocks=((
            DeltaClass(free=(1, 2)),
            DeltaClass(free=(3, 4)),
        ),),
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1.3 + 0.4j, 0.8 - 0.2j),),
        signs={(1,): 1, (2,): -1, (3,): 1, (4,): 1},
        f_consts={
            (1,): 1 + 0j,
            (2,): 0.7 + 0.3j,
            (3,): 1 + 0j,
            (4,): 1.4 - 0.5j,
        },
    )
    c, _ = normalize_f(c)
    return p, c


# -- twist ------------------------------------------------------------------


def test_twist_constant_potentials_no_op(golden):
    _, _, R = golden
    beta = {i: (lambda lam: 2.5 + 0j) for i in range(1, 5)}
    Rt = apply_twist(R, beta)
    rng = np.random.default_rng(0)
    (lam,) = sample_lambda(R, rng, 1)
    assert np.abs(evaluate(Rt, lam).matrix - evaluate(R, lam).matrix).max() < 1e-13


def test_twist_exponential_linear_multiplier_is_constant(golden):
    _, _, R = golden
    rng = np.random.default_rng(1)
    lin = rng.uniform(-0.5, 0.5, (4, 4)) + 1j * rng.uniform(-0.5, 0.5, (4, 4))
    beta = {}
    for i in range(1, 5):
        def b(lam, _a=lin[i - 1]):
            return complex(np.exp(np.dot(_a, np.asarray(lam, dtype=complex))))
        beta[i] = b
    Rt = apply_twist(R, beta)
    pts = sample_lambda(R, rng, 3)
    for (i, j) in ((1, 2), (1, 3), (2, 4)):
        mults = [Rt.d(i, j, lam) / R.d(i, j, lam) for lam in pts]
        want = np.exp(lin[i - 1][j - 1] - lin[j - 1][i - 1])
        assert max(abs(m - mults[0]) for m in mults) < 1e-12
        assert abs(mults[0] - want) < 1e-12


def test_twist_preserves_residual_and_spectra():
    rng = np.random.default_rng(2)
    p, c = random_datum(4, rng)
    R = build(p, c)
    lin = rng.uniform(-0.4, 0.4, (4, 4)) + 1j * rng.uniform(-0.4, 0.4, (4, 4))
    quad = rng.uniform(-0.1, 0.1, (4, 4)) + 1j * rng.uniform(-0.1, 0.1, (4, 4))
    beta = {}
    for i in range(1, 5):
        def b(lam, _a=lin[i - 1], _b=quad[i - 1]):
            lam = np.asarray(lam, dtype=complex)
            return complex(np.exp(np.dot(_a, lam) + np.dot(_b, lam * lam)))
        beta[i] = b
    Rt = apply_twist(R, beta)
    for lam in sample_lambda(Rt, rng, 3):
        assert dqybe_residual_normalized(Rt, lam) < 1e-9
        before = pair_invariants(*R.tables(lam))
        after = pair_invariants(*Rt.tables(lam))
        iu = np.triu_indices(4, 1)
        assert np.abs(before[0][iu] - after[0][iu]).max() < 1e-10
        assert np.abs(before[1][iu] - after[1][iu]).max() < 1e-10
        # exchange entries are untouched
        assert np.abs(R.tables(lam)[0] - Rt.tables(lam)[0]).max() == 0


# -- 2-form action ----------------------------------------------------------


def test_apply_2form_trivial_identity(golden):
    _, _, R = golden
    Rg = apply_2form(R, TrivialTwoForm())
    rng = np.random.default_rng(3)
    (lam,) = sample_lambda(R, rng, 1)
    assert np.abs(evaluate(Rg, lam).matrix - evaluate(R, lam).matrix).max() == 0


def test_apply_2form_n2_no_triplet_constraint():
    # with only two indices there is no cyclic constraint: any reciprocal
    # pair of constants is closed and preserves the relation
    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2)),),))
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(0j, 1 + 0j),),
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 0j, (2,): 0.5 + 0j},
    )
    R = build(p, c)
    g = constant_table_two_form({(1, 2): 3 - 2j})
    assert check_closed(g, p)
    Rg = apply_2form(R, g)
    rng = np.random.default_rng(4)
    for lam in sample_lambda(Rg, rng, 3):
        assert dqybe_residual_normalized(Rg, lam) < 1e-12


def test_apply_2form_preserves_invariants_and_hecke_kind(golden):
    _, _, R = golden
    g = constant_table_two_form(
        {pr: complex(1.5, 0.5) for pr in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))}
    )
    Rg = apply_2form(R, g)
    rng = np.random.default_rng(5)
    for lam in sample_lambda(Rg, rng, 3):
        assert dqybe_residual_normalized(Rg, lam) < 1e-10
        _, before = pair_invariants(*R.tables(lam))
        _, after = pair_invariants(*Rg.tables(lam))
        iu = np.triu_indices(4, 1)
        assert np.abs(before[iu] - after[iu]).max() < 1e-10
        assert np.abs(R.tables(lam)[0] - Rg.tables(lam)[0]).max() == 0
    assert hecke_classify(Rg).kind == hecke_classify(R).kind


def test_check_closed_exact_structural():
    p, _ = golden_datum()
    beta = {i: (lambda lam: complex(np.exp(lam.sum()))) for i in range(1, 5)}
    assert check_closed(ExactTwoForm(beta=beta), p)


def _open_table(pair_calls=None):
    """A table 2-form on the golden datum's coupled pairs whose cyclic
    product over (1, 2, 3) is e; ``pair_calls`` records each pair read."""
    pairs = {
        (1, 2): lambda lam: complex(np.exp(lam[2])),
        (1, 3): lambda lam: 1 + 0j,
        (1, 4): lambda lam: 1 + 0j,
        (2, 3): lambda lam: 1 + 0j,
        (2, 4): lambda lam: 1 + 0j,
    }
    if pair_calls is None:
        return TableTwoForm(g=pairs)
    return TableTwoForm(g={
        pair: (lambda lam, pair=pair, fn=fn: pair_calls.append(pair) or fn(lam))
        for pair, fn in pairs.items()
    })


def test_check_closed_evaluates_the_2form_in_one_table_call():
    p, _ = golden_datum()
    pair_calls, table_calls = [], []
    g = _open_table(pair_calls)
    table = g.table
    g.table = lambda n, lams, mask: table_calls.append(lams.shape) or table(n, lams, mask)
    res = check_closed(g, p)
    # 4 samples, each with its 5-point shift stencil; every coupled pair
    # lies on the triplet (1, 2, 3) or (1, 2, 4)
    assert table_calls == [(4 * 5, 4)]
    assert Counter(pair_calls) == {pair: 4 * 5 for pair in g.g}
    assert not res
    assert res.message == "2-form not closed: triplet (1, 2, 3) has cyclic defect 1.718e+00"
    values = {(1, 2): 2 + 1j, (1, 3): 0.5 - 1j, (1, 4): 1 + 0j, (2, 3): 0j, (2, 4): 1j}
    with pytest.raises(PoleError, match=r"2-form entry \(2,3\)"):
        check_closed(constant_table_two_form(values), p)


def test_check_closed_rejects_open_table():
    p, _ = golden_datum()
    g = _open_table()
    res = check_closed(g, p)
    assert not res
    assert "(1, 2, 3)" in res.message
    _, c = golden_datum()
    R = build(p, c)
    with pytest.raises(ParameterError):
        apply_2form(R, g)
    # forcing the open form through produces a large triple-index residual
    Rbad = apply_2form(R, g, check=False)
    rng = np.random.default_rng(6)
    report = check_system(Rbad, samples=sample_lambda(Rbad, rng, 4))
    assert report.per_equation["E1"] > 1e-3


# -- contraction ------------------------------------------------------------


def test_contract_golden_to_first_two(golden):
    _, _, R = golden
    R12 = contract(R, (1, 2))
    mu = np.array([0.7 + 0.2j, -0.3 + 0.1j])
    want = 1 / (mu[0] - mu[1])
    assert abs(R12.delta(1, 2, mu) - want) < 1e-13
    assert abs(R12.delta(2, 1, mu) + want) < 1e-13
    assert abs(R12.d(1, 2, mu) - (1 - want)) < 1e-13
    assert abs(R12.delta(1, 1, mu) - 1) < 1e-13


def test_contract_full_and_single(golden):
    _, _, R = golden
    rng = np.random.default_rng(7)
    (lam,) = sample_lambda(R, rng, 1)
    Rfull = contract(R, (1, 2, 3, 4))
    assert np.abs(evaluate(Rfull, lam).matrix - evaluate(R, lam).matrix).max() == 0
    R1 = contract(R, (3,))
    assert abs(R1.delta(1, 1, np.array([0.5 + 0j])) + 1) < 1e-13


def test_contract_validates_subset(golden):
    _, _, R = golden
    with pytest.raises(ParameterError):
        contract(R, ())
    with pytest.raises(ParameterError):
        contract(R, (2, 1))
    with pytest.raises(ParameterError):
        contract(R, (1, 5))


def test_contract_commutes_with_restriction():
    # restricting a two-block datum to its first block equals contracting
    # the full build to those indices
    p = IndexPartition(
        n=4,
        blocks=((DeltaClass(free=(1, 2)),), (DeltaClass(free=(3, 4)),)),
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 2 + 0j), BlockConstants(0j, 1 + 0j)),
        cross_det={(0, 1): 2 + 1j},
        signs={(i,): 1 for i in range(1, 5)},
        f_consts={(1,): 1 + 0j, (2,): 0.6 + 0.2j, (3,): 0j, (4,): 1 + 0j},
    )
    c, _ = normalize_f(c)
    R = build(p, c)
    small_p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2)),),))
    small_c = ClassificationParams(
        partition=small_p,
        per_block=(c.per_block[0],),
        signs={(1,): c.signs[(1,)], (2,): c.signs[(2,)]},
        f_consts={(1,): c.f_consts[(1,)], (2,): c.f_consts[(2,)]},
    )
    R_small = build(small_p, small_c)
    R_contracted = contract(R, (1, 2))
    mu = np.array([0.4 + 0.3j, -0.8 + 0.1j])
    assert np.abs(
        evaluate(R_contracted, mu).matrix - evaluate(R_small, mu).matrix
    ).max() < 1e-12


# -- decoupled composition --------------------------------------------------


def _scalar_matrix(value):
    return DynamicalRMatrix(
        n=1,
        delta=lambda i, j, lam: complex(value),
        d=lambda i, j, lam: 0j,
    )


def test_compose_two_scalars():
    Rc = decouple_compose(_scalar_matrix(2.0), _scalar_matrix(3.0), 1.0, 1.0)
    lam = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    assert Rc.delta(1, 1, lam) == 2 and Rc.delta(2, 2, lam) == 3
    assert Rc.d(1, 2, lam) == 1 and Rc.d(2, 1, lam) == 1
    assert Rc.delta(1, 2, lam) == 0
    assert dqybe_residual_normalized(Rc, lam) < 1e-12
    _, dets = pair_invariants(*Rc.tables(lam))
    assert abs(dets[0, 1] - 1) < 1e-13  # cross determinant = g_ab*g_ba


def test_compose_golden_with_scalar(golden):
    _, _, R = golden
    g = principal_sqrt(2 + 0j)
    Rc = decouple_compose(R, _scalar_matrix(1.5), g, g)
    rng = np.random.default_rng(8)
    lam = np.concatenate([sample_lambda(R, rng, 1)[0], [0.7 + 0.2j]])
    assert dqybe_residual_normalized(Rc, lam) < 1e-9
    # contracting back to the first range recovers the original
    Rback = contract(Rc, (1, 2, 3, 4))
    lam4 = lam[:4]
    assert np.abs(evaluate(Rback, lam4).matrix - evaluate(R, lam4).matrix).max() == 0


def test_compose_rejects_zero_coupling():
    with pytest.raises(ParameterError):
        decouple_compose(_scalar_matrix(1.0), _scalar_matrix(2.0), 0.0, 1.0)


# -- exchange-class merging under a scale -----------------------------------


def test_scale_f_identity_on_single_class(golden):
    p, c, _ = golden
    sd = scale_f(c, 1.0)
    assert sd.params.partition == p
    assert sd.index_map == {i: i for i in range(1, 5)}
    for cls, v in c.f_consts.items():
        assert abs(sd.params.f_consts[cls] - v) < 1e-15


def test_scale_f_keeps_single_class_blocks_bit_for_bit():
    """A block with one exchange class has nothing to merge: beside merged
    blocks, and with a zero sum constant too, it keeps its class, its labels,
    its signs and the bits of its f as normalize_f leaves them, signed zeros
    included."""
    def signed(x):
        return -0.0 if x == 0 else x

    seen = Counter()
    for seed in range(40):
        p, c = random_datum(6, np.random.default_rng(seed), "trivial")
        c = replace(c, f_consts={k: complex(signed(v.real), signed(v.imag))
                                 for k, v in c.f_consts.items()})
        want, _ = normalize_f(c)
        sd = scale_f(c, 0.1)
        for q, block in enumerate(p.blocks):
            if len(block) > 1:
                seen["merged"] += 1
                continue
            seen["rational" if c.per_block[q].rational else "single"] += 1
            assert sd.params.partition.blocks[q] == block
            for cls in block[0].all_d_classes():
                assert all(sd.index_map[i] == i for i in cls)
                assert sd.params.signs[cls] == c.signs[cls]
                assert repr(sd.params.f_consts[cls]) == repr(want.f_consts[cls])
    assert min(seen.values()) >= 5, seen


def test_scale_f_rejects_zero_sum_merge():
    p = IndexPartition(
        n=2, blocks=((DeltaClass(free=(1,)), DeltaClass(free=(2,))),)
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 1 + 0j),),
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 1 + 0j, (2,): 1 + 0j},
    )
    import dataclasses

    bad = dataclasses.replace(c, per_block=(BlockConstants(0j, 1 + 0j),))
    with pytest.raises(ParameterError):
        scale_f(bad, 0.1)


def test_scale_f_converges_linearly():
    p, c = _two_class_trig()
    R = build(p, c)
    rng = np.random.default_rng(9)
    (lam,) = sample_lambda(R, rng, 1)
    base = evaluate(R, lam).matrix
    dists = []
    for eta in (1e-1, 1e-2, 1e-3):
        sd = scale_f(c, eta)
        Rm = apply_2form(build(sd.params.partition, sd.params), sd.compensator)
        inv = {v: k for k, v in sd.index_map.items()}
        lam_m = np.array([lam[inv[a] - 1] for a in range(1, 5)])
        M = evaluate(Rm, lam_m).matrix
        dist = 0.0
        for a in range(1, 5):
            for b in range(1, 5):
                for cc in range(1, 5):
                    for dd in range(1, 5):
                        r = composite_index(4, sd.index_map[a], sd.index_map[b])
                        s = composite_index(4, sd.index_map[cc], sd.index_map[dd])
                        r0 = composite_index(4, a, b)
                        s0 = composite_index(4, cc, dd)
                        dist = max(dist, abs(M[r, s] - base[r0, s0]))
        dists.append(dist)
    slopes = [
        np.log(dists[k] / dists[k + 1]) / np.log(10) for k in range(len(dists) - 1)
    ]
    assert all(0.9 < s < 1.1 for s in slopes), (dists, slopes)


def test_scale_f_compensator_closed_form():
    p, c = _two_class_trig()
    sd = scale_f(c, 0.1)
    consts = c.per_block[0]
    der = derive(consts.sum_const, consts.det_const)
    sq = principal_sqrt(consts.det_const)
    lam = np.zeros(4, dtype=complex)
    # cross-class pairs carry sqrt(det)/(B - S) forward and sqrt(det)/B back
    v_fwd = sq / (der.root - consts.sum_const)
    v_back = sq / der.root
    assert abs(sd.compensator.value(1, 3, lam) - v_fwd) < 1e-13
    assert abs(sd.compensator.value(3, 1, lam) - 1 / v_fwd) < 1e-13
    assert abs(1 / sd.compensator.value(3, 1, lam) - v_back * v_fwd / v_back) < 1e-12
    # reciprocity ties the two stated values together: product is 1
    assert abs(v_fwd * v_back * der.root * (der.root - consts.sum_const)
               / consts.det_const - 1) < 1e-12


# -- dynamical-variable offsets ---------------------------------------------


def test_reparametrize_conventional_datum_zero_offsets(golden):
    _, c, _ = golden
    rep = reparametrize(c)
    assert all(abs(v) < 1e-15 for v in rep["offsets"].values())


def test_reparametrize_rational_example():
    p, base = golden_datum()
    import dataclasses

    f2 = dict(base.f_consts)
    f2[(3, 4)] = 2 + 0j
    c = dataclasses.replace(base, f_consts=f2)
    rep = reparametrize(c)
    assert abs(rep["offsets"][3] + 1) < 1e-14
    assert abs(rep["offsets"][4] + 1) < 1e-14
    assert abs(rep["offsets"][1]) < 1e-14
    R = build(p, c)
    Rc = build(p, conventional_f(c))
    rng = np.random.default_rng(10)
    off = np.array([rep["offsets"][i] for i in range(1, 5)])
    for lam in sample_lambda(R, rng, 10):
        assert np.abs(
            evaluate(Rc, lam + off).matrix - evaluate(R, lam).matrix
        ).max() < 1e-11


def test_reparametrize_trig_example():
    # sum 1, det 2 gives log-ratio -ln 2; a position constant of 4 on the
    # second index is absorbed by the offset log(4)/(-ln 2) = -2
    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2)),),))
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 2 + 0j),),
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 1 + 0j, (2,): 4 + 0j},
    )
    rep = reparametrize(c)
    assert abs(rep["offsets"][2] + 2) < 1e-12
    R = build(p, c)
    Rc = build(p, conventional_f(c))
    off = np.array([rep["offsets"][1], rep["offsets"][2]])
    lam = np.array([0.3 + 0.2j, -0.6 + 0.1j])
    assert np.abs(
        evaluate(Rc, lam + off).matrix - evaluate(R, lam).matrix
    ).max() < 1e-12


# -- zero-sum limit ---------------------------------------------------------


def test_limit_golden_datum(golden):
    _, c, _ = golden
    rep = trig_to_rational_limit(c, [1e-1, 1e-2, 1e-3])
    assert rep.converging
    assert all(0.9 <= o <= 1.1 for o in rep.orders)
    assert rep.distances[0] > rep.distances[1] > rep.distances[2]


def test_limit_members_are_solutions(golden):
    _, c, _ = golden
    from dynrmat.transforms import _limit_member

    member = _limit_member(c, 1e-2)
    R = build(c.partition, member)
    rng = np.random.default_rng(11)
    for lam in sample_lambda(R, rng, 3):
        assert dqybe_residual_normalized(R, lam) < 1e-9


def test_limit_rejects_nonzero_sum_input():
    p, c = _two_class_trig()
    with pytest.raises(ParameterError, match="block 1 has nonzero sum constant"):
        trig_to_rational_limit(c, [0.1])


@pytest.mark.parametrize("xi", [
    [], [0.1], [0.1, 0.0], [0.1, float("nan")], [0.1, float("inf")], [-0.1, 0.01],
    [1e-2, 1e-2], [1e-1, 1e-2, 1e-2],
], ids=["empty", "one", "zero", "nan", "inf", "two-signs", "equal", "equal-tail"])
def test_limit_rejects_sequences_without_an_order(golden, xi):
    _, c, _ = golden
    with pytest.raises(ParameterError, match=r"^limit sequence \[.*\] shows no convergence order"):
        trig_to_rational_limit(c, xi)


def test_limit_accepts_a_negative_sequence(golden):
    _, c, _ = golden
    rep = trig_to_rational_limit(c, [-1e-1, -1e-2, -1e-3])
    assert rep.converging
    assert all(0.9 <= o <= 1.1 for o in rep.orders)


# -- gauge invariance across random data ------------------------------------


def test_gauge_invariance_suite():
    rng = np.random.default_rng(12)
    for _ in range(4):
        n = int(rng.integers(2, 5))
        p, c = random_datum(n, rng, two_form_kind="trivial")
        R = build(p, c)
        pairs = nd_pairs(p)
        if pairs:
            g = constant_table_two_form(
                {pr: complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for pr in pairs}
            )
            Rg = apply_2form(R, g)
        else:
            Rg = R
        Rc = decouple_compose(Rg, _scalar_matrix(1.7), 1.2, 1.0 / 1.2)
        for lam in sample_lambda(Rc, rng, 2):
            assert dqybe_residual_normalized(Rc, lam) < 1e-9
        sub = tuple(range(1, n + 1))[: max(1, n - 1)]
        Rsub = contract(Rg, sub)
        for lam in sample_lambda(Rsub, rng, 2):
            assert dqybe_residual_normalized(Rsub, lam) < 1e-9
