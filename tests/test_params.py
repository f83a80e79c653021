import cmath
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynrmat.builder import build
from dynrmat.errors import ParameterError, PoleError
from dynrmat.params import (
    BlockConstants,
    ClassificationParams,
    ExactTwoForm,
    QuadraticExactTwoForm,
    TrivialTwoForm,
    constant_table_two_form,
    derive,
    is_negative_real,
    normalize_f,
    principal_sqrt,
    validate_params,
)
from dynrmat.partition import DeltaClass, IndexPartition
from dynrmat.rmatrix import evaluate, stencil_points
from dynrmat.sampling import random_datum
from dynrmat.transforms import apply_twist
from dynrmat.verifier import sample_lambda

from conftest import golden_datum


# oracle values below computed by hand from the defining relations
# D^2 = S^2 + 4*Sigma, T = (D-S)/(D+S), e^A = T, B = (S+D)/2


def test_derive_nonzero_sum():
    d = derive(1 + 0j, 2 + 0j)
    assert abs(d.discriminant - 3) < 1e-14
    assert abs(d.ratio - 0.5) < 1e-14
    assert abs(d.log_ratio - cmath.log(0.5)) < 1e-14
    assert abs(d.root - 2) < 1e-14


def test_derive_zero_sum():
    d = derive(0j, 4 + 0j)
    assert abs(d.discriminant - 4) < 1e-14
    assert d.log_ratio is None
    assert abs(d.root - 2) < 1e-14  # principal sqrt of the det constant


def test_derive_negative_real_ratio_branch():
    # S=3, Sigma=-2: D=1, T=-1/2 is negative real; the log must sit on the
    # lower edge of the cut, Im A = -pi
    d = derive(3 + 0j, -2 + 0j)
    assert abs(d.ratio + 0.5) < 1e-14
    assert abs(d.log_ratio.imag + cmath.pi) < 1e-14
    assert abs(cmath.exp(d.log_ratio) - d.ratio) < 1e-14


def test_derive_rejects_zero_det():
    with pytest.raises(ParameterError):
        derive(1 + 0j, 0j)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("S, Sigma", [
    (1 + 0j, 2 + 0j), (3 + 0j, -2 + 0j), (0.4 - 1.1j, 0.3 + 2.2j), (2 + 0j, complex(-4.0, -0.0)),
    (0j, 4 + 0j), (0j, complex(-4.0, -0.0)), (0j, 1e-3 - 2j),
])
def test_block_derived_is_derive_with_the_principal_sqrt_of_sigma(S, Sigma):
    got, want = BlockConstants(S, Sigma).derived, derive(S, Sigma)
    for name in ("discriminant", "ratio", "log_ratio", "root", "sqrt_det"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is b is None) or _bits(a) == _bits(b), name
    assert _bits(got.sqrt_det) == _bits(principal_sqrt(Sigma))
    if Sigma == -4:
        # a negative real Sigma carrying -0.0j still has the root on +i
        assert _bits(got.sqrt_det) == _bits(2j)


def test_replaced_block_constants_derive_their_own_constants():
    b = BlockConstants(1 + 0j, 2 + 0j)
    old = b.derived
    assert b.derived is old  # taken once
    moved = replace(b, sum_const=0j)
    assert moved.derived == derive(0j, 2 + 0j) != old
    assert b.derived is old


def test_is_negative_real():
    assert is_negative_real(-2 + 0j)
    assert is_negative_real(-2 + 1e-14j)
    assert not is_negative_real(-2 + 1e-3j)
    assert not is_negative_real(2 + 0j)


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(-10, 10, allow_nan=False),
    im=st.floats(-10, 10, allow_nan=False),
)
@example(re=-1.0, im=-0.0)
@example(re=-1.0, im=-5e-324)
def test_principal_sqrt_properties(re, im):
    z = complex(re, im)
    r = principal_sqrt(z)
    assert abs(r * r - z) <= 1e-12 * max(1.0, abs(z))
    assert r.real >= 0
    if r.real == 0:
        assert r.imag >= 0


def test_validate_params_golden():
    _, c = golden_datum()
    assert validate_params(c)


def test_validate_params_pins_the_first_d_class_of_every_exchange_class():
    # one trigonometric block, exchange classes {1, 2} and {3}
    p = IndexPartition(n=3, blocks=((DeltaClass(free=(1, 2)), DeltaClass(free=(3,))),))
    c = ClassificationParams(partition=p, per_block=(BlockConstants(1 + 0j, 2 + 0j),),
                             signs={(1,): 1, (2,): 1, (3,): 1},
                             f_consts={(1,): 1 + 0j, (2,): 0.5 + 0j, (3,): 1 + 0j})
    assert validate_params(c)
    res = validate_params(replace(c, f_consts={**c.f_consts, (3,): 2 + 0j}))
    assert res.message == ("f constant of the first d-class [3] of an exchange class "
                           "must be (1+0j) (got (2+0j)); apply normalize_f first")


def test_validate_params_missing_sign():
    _, c = golden_datum()
    broken = ClassificationParams(
        partition=c.partition,
        per_block=c.per_block,
        signs={k: v for k, v in c.signs.items() if k != (3, 4)},
        f_consts=c.f_consts,
    )
    res = validate_params(broken)
    assert not res and "sign" in res.message


def test_validate_params_zero_det():
    _, c = golden_datum()
    broken = ClassificationParams(
        partition=c.partition,
        per_block=(BlockConstants(0j, 0j),),
        signs=c.signs,
        f_consts=c.f_consts,
    )
    res = validate_params(broken)
    assert not res and "determinant" in res.message


def _two_block_params():
    from dynrmat.partition import DeltaClass, IndexPartition

    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1,)),), (DeltaClass(free=(2,)),)))
    return ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 2 + 0j), BlockConstants(0j, 1 + 0j)),
        cross_det={(0, 1): 3 + 0j},
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 1 + 0j, (2,): 0j},
    )


@pytest.mark.parametrize("broken,named", [
    (lambda c: replace(c, per_block=(BlockConstants(complex("nan"), 2), c.per_block[1])),
     "block 1: sum constant S"),
    (lambda c: replace(c, per_block=(BlockConstants(complex(0, float("inf")), 2),
                                     c.per_block[1])),
     "block 1: sum constant S"),
    (lambda c: replace(c, per_block=(c.per_block[0], BlockConstants(0j, complex("inf")))),
     "block 2: determinant constant Sigma"),
    (lambda c: replace(c, cross_det={(0, 1): complex("nan")}),
     "cross-block determinant constant (1,2)"),
    (lambda c: replace(c, f_consts={**c.f_consts, (1,): complex("nan")}),
     "f constant of d-class [1]"),
    (lambda c: replace(c, f_consts={**c.f_consts, (2,): complex("-inf")}),
     "f constant of d-class [2]"),
], ids=["S-nan", "S-inf", "Sigma-inf", "cross-nan", "f-nan", "f-inf"])
def test_validate_params_rejects_non_finite_constants(broken, named):
    c = _two_block_params()
    assert validate_params(c)
    res = validate_params(broken(c))
    assert not res
    assert named in res.message and "must be finite" in res.message


def test_validate_params_trig_zero_f():
    from dynrmat.partition import DeltaClass, IndexPartition

    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2)),),))
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 1 + 0j),),
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 1 + 0j, (2,): 0j},
    )
    res = validate_params(c)
    assert not res and "nonzero" in res.message


def test_validate_params_unnormalized_f():
    from dynrmat.partition import DeltaClass, IndexPartition

    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2)),),))
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 1 + 0j),),
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 2 + 0j, (2,): 3 + 0j},
    )
    res = validate_params(c)
    assert not res and "normalize_f" in res.message
    fixed, report = normalize_f(c)
    assert validate_params(fixed)
    assert fixed.f_consts[(1,)] == 1 + 0j
    assert abs(fixed.f_consts[(2,)] - 1.5) < 1e-15


def test_normalize_f_idempotent_and_matrix_invariant():
    rng = np.random.default_rng(2)
    p, c = random_datum(4, rng, two_form_kind="trivial")
    again, _ = normalize_f(c)
    assert again.f_consts == c.f_consts
    # denormalize by scaling every f in a nonzero-sum block, rebuild, compare
    import dataclasses

    scaled_f = dict(c.f_consts)
    changed = False
    for q, block in enumerate(p.blocks):
        if c.per_block[q].rational:
            continue
        for dclass in block:
            for cls in dclass.all_d_classes():
                scaled_f[cls] = scaled_f[cls] * (2 - 1j)
                changed = True
    if not changed:
        pytest.skip("datum drawn with only zero-sum blocks")
    messy = dataclasses.replace(c, f_consts=scaled_f)
    renorm, _ = normalize_f(messy)
    lam = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    a = evaluate(build(p, c), lam).matrix
    b = evaluate(build(p, renorm), lam).matrix
    assert np.abs(a - b).max() < 1e-10


def test_table_two_form_reciprocity():
    g = constant_table_two_form({(1, 2): 2 + 1j, (1, 3): -0.5 + 0j})
    lam = np.zeros(3, dtype=complex)
    assert abs(g.value(1, 2, lam) * g.value(2, 1, lam) - 1) < 1e-15
    assert abs(g.value(3, 1, lam) - 1 / (-0.5)) < 1e-15


def test_exact_two_form_quotient():
    beta = {
        1: lambda lam: complex(np.exp(0.3 * lam[0] + 0.1 * lam[1])),
        2: lambda lam: complex(np.exp(-0.2 * lam[0] + 0.4 * lam[1])),
    }
    g = ExactTwoForm(beta=beta)
    lam = np.array([0.5 + 0.1j, -0.3 + 0.2j])
    lj = lam.copy()
    lj[1] += 1
    li = lam.copy()
    li[0] += 1
    want = (beta[1](lj) / beta[1](lam)) * (beta[2](lam) / beta[2](li))
    assert abs(g.value(1, 2, lam) - want) < 1e-14
    assert abs(g.value(1, 2, lam) * g.value(2, 1, lam) - 1) < 1e-14


def test_exact_two_form_pole():
    beta = {1: lambda lam: 0j, 2: lambda lam: 1 + 0j}
    g = ExactTwoForm(beta=beta)
    with pytest.raises(PoleError):
        g.value(1, 2, np.zeros(2, dtype=complex))


def test_exact_two_form_reads_a_potential_that_raises_as_a_pole():
    """A potential that raises PoleError is NaN, as a table 2-form's
    callable is: a twist by it rejects the draws whose stencil reaches the
    pole instead of raising."""
    def beta_1(lam):
        if lam[0].real > 1.5:
            raise PoleError("potential pole")
        return 1 + 0j

    beta = {1: beta_1, 2: lambda lam: 1 + 0j, 3: lambda lam: 1 + 0j}
    T = apply_twist(build(*random_datum(3, np.random.default_rng(2), "trivial")), beta)
    samples = sample_lambda(T, np.random.default_rng(0), 8)
    assert len(samples) == 8 and all(lam[0].real <= 0.5 for lam in samples)
    g = ExactTwoForm(beta=beta)
    lam = np.array([1.6, 0.2, 0.3], dtype=complex)
    with pytest.raises(PoleError, match=r"2-form entry \(1,2\) is not finite"):
        g.value(1, 2, lam)
    assert g.value(2, 3, lam) == 1


def test_the_size_of_a_potential_makes_no_pole():
    """g does not change when a potential is multiplied by a constant: the
    potentials of const = -40 read about 4e-18 and give the quotient of
    the coefficient form."""
    n = 3
    lin = np.zeros((n, n))
    lin[0, 1] = 0.3
    Q = QuadraticExactTwoForm([-40] * n, lin, np.zeros((n, n)))
    lam = np.array([0.1, 0.2, 0.3], dtype=complex)
    assert Q.value(1, 2, lam) == 1.3498588075760032
    g = ExactTwoForm(beta=Q.beta)
    # the potentials round their exponent near 40, so the quotients agree to about 1e-14
    assert abs(g.value(1, 2, lam) - Q.value(1, 2, lam)) < 1e-13
    off = ~np.eye(n, dtype=bool)
    pts = stencil_points(lam)
    assert np.allclose(g.table(n, pts, off), Q.table(n, pts, off), rtol=1e-13, atol=0)


def test_quadratic_two_form_has_no_spurious_overflow_pole():
    """Both potentials overflow at lam = (3, 3), so their quotient is NaN,
    a pole that g does not have: g_12 = exp(300 - 300) = 1."""
    lin = [[0, 300], [300, 0]]
    g = QuadraticExactTwoForm([0, 0], lin, np.zeros((2, 2)))
    lam = np.array([3, 3], dtype=complex)
    assert g.value(1, 2, lam) == 1 and g.value(2, 1, lam) == 1
    with pytest.raises(PoleError):
        ExactTwoForm(beta=g.beta).value(1, 2, lam)


def test_quadratic_two_form_closed_form():
    rng = np.random.default_rng(3)
    n = 3
    const, lin, quad = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in (n, (n, n), (n, n)))
    g = QuadraticExactTwoForm(const, lin, quad)
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    for i in range(n):
        for j in range(n):
            if i != j:
                log_g = (lin[i, j] + quad[i, j] * (2 * lam[j] + 1)
                         - lin[j, i] - quad[j, i] * (2 * lam[i] + 1))
                assert abs(g.value(i + 1, j + 1, lam) - cmath.exp(log_g)) <= 1e-14 * abs(
                    cmath.exp(log_g))
    # the table is 1 off the mask, and a non-finite entry is NaN in both orientations
    tab = g.table(n, lam[None], np.eye(n, dtype=bool))
    assert np.array_equal(tab[0], np.ones((n, n)))
    big = QuadraticExactTwoForm(np.zeros(2), [[0, 800], [0, 0]], np.zeros((2, 2)))
    assert np.isnan(big.table(2, np.zeros((1, 2)), ~np.eye(2, dtype=bool))).sum() == 2


@pytest.mark.parametrize("name, slot, where", [("const", 1, ""), ("lin", (1, 1), "[2]"),
                                               ("quad", (1, 1), "[2]")])
def test_quadratic_two_form_rejects_non_finite_coefficients(name, slot, where):
    coeffs = {"const": np.zeros(2, dtype=complex), "lin": np.zeros((2, 2), dtype=complex),
              "quad": np.zeros((2, 2), dtype=complex)}
    coeffs[name][slot] = complex("nan")
    with pytest.raises(ParameterError, match=rf"potential 2: {name}{re.escape(where)} must be finite"):
        QuadraticExactTwoForm(**coeffs)
    with pytest.raises(ParameterError, match="coefficients"):
        QuadraticExactTwoForm(np.zeros(2), np.zeros((2, 3)), np.zeros((2, 2)))


def test_conventional_f_is_zero_in_a_zero_sum_block_and_one_otherwise():
    rational, trig = BlockConstants(0j, 1 + 0j), BlockConstants(0.5 + 0j, 1 + 0j)
    assert (rational.conventional_f, trig.conventional_f) == (0j, 1 + 0j)
