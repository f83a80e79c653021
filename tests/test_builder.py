import numpy as np
import pytest

from dynrmat.builder import build, build_commuting_ops
from dynrmat.errors import ParameterError
from dynrmat.params import BlockConstants, ClassificationParams, derive, normalize_f
from dynrmat.partition import DeltaClass, IndexPartition
from dynrmat.rmatrix import evaluate
from dynrmat.sampling import random_datum
from dynrmat.verifier import (
    check_system,
    dqybe_residual_normalized,
    sample_lambda,
    shift_identities,
)

from conftest import golden_datum, golden_expected_tables, off_pattern, random_points


def test_golden_entries_match_closed_forms():
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(0)
    for lam in random_points(rng, 4, 4):
        dt, dd = R.tables(lam)
        want_dt, want_dd = golden_expected_tables(lam)
        assert np.abs(dt - want_dt).max() < 1e-12
        assert np.abs(dd - want_dd).max() < 1e-12


def test_build_rejects_invalid_params():
    p, c = golden_datum()
    broken = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(0j, 0j),),
        signs=c.signs,
        f_consts=c.f_consts,
    )
    with pytest.raises(ParameterError):
        build(p, broken)


def test_trig_class_constants():
    # one exchange class of two free indices: the diagonal exchange entries
    # are B for sign +1 and B - D for sign -1 (the two roots of
    # X^2 - S X - Sigma)
    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2)),),))
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 2 + 0j),),
        signs={(1,): 1, (2,): -1},
        f_consts={(1,): 1 + 0j, (2,): 1 + 0j},
    )
    R = build(p, c)
    lam = np.array([0.4 + 0.3j, -0.8 + 0.1j])
    dt, _ = R.tables(lam)
    der = derive(1 + 0j, 2 + 0j)
    assert abs(dt[0, 0] - der.root) < 1e-12  # B = 2
    assert abs(dt[1, 1] - (der.root - der.discriminant)) < 1e-12  # B - D = -1


def test_cross_block_entries():
    # two 1-index blocks: exchange entries vanish across blocks and the
    # diagonal entries equal the square root of the cross determinant
    p = IndexPartition(
        n=2, blocks=((DeltaClass(free=(1,)),), (DeltaClass(free=(2,)),))
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(0j, 1 + 0j), BlockConstants(0j, 4 + 0j)),
        cross_det={(0, 1): 9 + 0j},
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 0j, (2,): 0j},
    )
    R = build(p, c)
    lam = np.array([0.2 + 0.1j, -0.5 + 0.3j])
    dt, dd = R.tables(lam)
    assert dt[0, 1] == 0 and dt[1, 0] == 0
    assert abs(dd[0, 1] - 3) < 1e-13 and abs(dd[1, 0] - 3) < 1e-13
    assert abs(dt[0, 0] - 1) < 1e-13 and abs(dt[1, 1] - 2) < 1e-13


def test_random_builds_satisfy_system():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p, c = random_datum(n, rng)
        R = build(p, c)
        samples = sample_lambda(R, rng, 4)
        report = check_system(R, samples=samples, tol=1e-9)
        assert report.passed, report.worst_case
        for lam in samples[:2]:
            assert dqybe_residual_normalized(R, lam) < 1e-9


def test_zero_weight_structure():
    rng = np.random.default_rng(4)
    p, c = random_datum(4, rng)
    R = build(p, c)
    (lam,) = sample_lambda(R, rng, 1)
    assert not off_pattern(evaluate(R, lam).matrix, 4).any()


def test_shift_identities_golden():
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(5)
    (lam,) = sample_lambda(R, rng, 1)
    report = shift_identities(R, lam)
    assert report and max(report.values()) < 1e-10


def test_commuting_operators():
    rng = np.random.default_rng(9)
    built = 0
    while built < 5:
        n = int(rng.integers(3, 6))
        p, c = random_datum(n, rng)
        if not any(dc.d_classes for block in p.blocks for dc in block):
            continue
        built += 1
        ops = build_commuting_ops(p, c)
        R = ops["matrix"]
        for lam in sample_lambda(R, rng, 3):
            M = evaluate(R, lam).matrix
            for name, op in [("free", ops["R0"])] + list(ops["family"].items()):
                comm = M @ op - op @ M
                assert np.abs(comm).max() < 1e-12, (name, np.abs(comm).max())
