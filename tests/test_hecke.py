import json

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.cli import EXIT_OK, main
from dynrmat.errors import NotInFamilyError
from dynrmat.hecke import basic_form_distance, hecke_classify
from dynrmat.params import (
    BlockConstants,
    ClassificationParams,
    constant_table_two_form,
    normalize_f,
)
from dynrmat.partition import DeltaClass, IndexPartition, single_class_partition
from dynrmat.rmatrix import DynamicalRMatrix
from dynrmat.sampling import random_datum
from dynrmat.serialize import params_to_json

from conftest import golden_datum, varied_golden


def _all_free_trig(n, S, Sigma, signs=None, two_form=None):
    p = IndexPartition(n=n, blocks=((DeltaClass(free=tuple(range(1, n + 1))),),))
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(S, Sigma),),
        signs=signs or {(i,): 1 for i in range(1, n + 1)},
        f_consts={(i,): 1 + 0j for i in range(1, n + 1)},
        two_form=two_form or None,
    )
    if two_form is None:
        from dataclasses import replace
        from dynrmat.params import TrivialTwoForm

        c = replace(c, two_form=TrivialTwoForm())
    c, _ = normalize_f(c)
    return p, c


def test_all_free_uniform_sign_is_hecke():
    p, c = _all_free_trig(3, 1 + 0j, 2 + 0j)
    R = build(p, c)
    rep = hecke_classify(R)
    assert rep.kind == "Hecke"
    # the two prescribed eigenvalues satisfy rho - kappa = pair sum and
    # rho * kappa = pair determinant
    assert abs((rep.rho - rep.kappa) - 1) < 1e-9
    assert abs(rep.rho * rep.kappa - 2) < 1e-9


def test_mixed_signs_weak_but_not_hecke():
    """S = 1, Sigma = 2: the eigenvalues are 2 and -1.  rho is the one on
    more diagonal lines; on a tie, the one on the smallest index."""
    for signs, rho, kappa in [
        ((1, -1), 2, 1),
        ((-1, 1), -1, -2),
        ((1, -1, -1), -1, -2),
        ((-1, 1, 1), 2, 1),
        ((1, -1, 1), 2, 1),
    ]:
        p, c = _all_free_trig(
            len(signs), 1 + 0j, 2 + 0j, signs={(i,): s for i, s in enumerate(signs, start=1)}
        )
        rep = hecke_classify(build(p, c))
        assert rep.kind == "WeakHecke", signs
        assert abs(rep.rho - rho) < 1e-9, (signs, rep.rho)
        assert abs(rep.kappa - kappa) < 1e-9, (signs, rep.kappa)


#: S = 0.5, Sigma = -0.3125: S^2 + 4 Sigma = -1 lies on the cut of the
#: square root, so each plane's eigenvalues (S +- i)/2 share their real part,
#: and a one-ulp difference between the computed real parts decides any
#: ordering of them
CUT_SIGMAS = [complex(-0.3125, 0.0), complex(-0.3125, -0.0),
              complex(-0.3125, 1e-13), complex(-0.3125, -1e-13)]


@pytest.mark.parametrize("sigma", CUT_SIGMAS, ids=["+0", "-0", "+1e-13", "-1e-13"])
def test_hecke_on_and_off_the_square_root_cut(sigma):
    p, c = _all_free_trig(3, 0.5 + 0j, sigma)
    rep = hecke_classify(build(p, c))
    assert rep.kind == "Hecke"
    assert abs(rep.rho - rep.kappa - 0.5) < 1e-9
    assert abs(rep.rho * rep.kappa - sigma) < 1e-9
    assert abs(abs(rep.rho.imag) - 0.5) < 1e-9


@pytest.mark.parametrize("sigma", CUT_SIGMAS, ids=["+0", "-0", "+1e-13", "-1e-13"])
def test_hecke_cli_on_and_off_the_square_root_cut(sigma, tmp_path, capsys):
    p, c = _all_free_trig(3, 0.5 + 0j, sigma)
    cfg = tmp_path / "cut.json"
    cfg.write_text(json.dumps(params_to_json(c)))
    im = json.loads(cfg.read_text())["per_block"][0]["Sigma"]["im"]
    assert (im, np.signbit(im)) == (sigma.imag, np.signbit(sigma.imag))  # signed zero kept
    assert main(["hecke", str(cfg)]) == EXIT_OK
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("Hecke rho=0.25") and "not Hecke" not in line, line


def test_golden_weak_hecke(golden):
    _, _, R = golden
    rep = hecke_classify(R)
    assert rep.kind == "WeakHecke"
    assert abs(rep.rho - 1) < 1e-9
    assert abs(rep.kappa - 1) < 1e-9


def test_decoupled_distinct_blocks_not_hecke():
    p = IndexPartition(
        n=4,
        blocks=((DeltaClass(free=(1, 2)),), (DeltaClass(free=(3, 4)),)),
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 2 + 0j), BlockConstants(2 + 0j, 1 + 0j)),
        cross_det={(0, 1): 1 + 0j},
        signs={(i,): 1 for i in range(1, 5)},
        f_consts={(i,): 1 + 0j for i in range(1, 5)},
    )
    c, _ = normalize_f(c)
    R = build(p, c)
    rep = hecke_classify(R)
    assert rep.kind == "NotHecke"


def test_single_d_class_degenerate():
    p = single_class_partition(3)
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(0j, 4 + 0j),),
        signs={(1, 2, 3): 1},
        f_consts={(1, 2, 3): 0j},
    )
    c, _ = normalize_f(c)
    R = build(p, c)
    rep = hecke_classify(R)
    assert rep.kind == "DegenerateSingleDClass"
    assert abs(rep.rho - 2) < 1e-9


def test_lambda_dependent_invariants_rejected():
    def delta(i, j, lam):
        if i == j:
            return complex(lam[0])
        return 1 + 0j

    def d(i, j, lam):
        return 2 + 0j

    R = DynamicalRMatrix(n=2, delta=delta, d=d)
    samples = [
        np.array([0.5 + 0.1j, 0.3 - 0.2j]),
        np.array([1.5 - 0.4j, -0.7 + 0.3j]),
    ]
    with pytest.raises(NotInFamilyError):
        hecke_classify(R, samples=samples)


@pytest.mark.parametrize("delta_pairs, d_pairs, message", [
    # diagonals come before pairs
    ({(2, 2), (1, 2)}, (), "Delta_22 varies with the dynamical point"),
    # within a pair the sum comes before the determinant
    ({(1, 2)}, {(1, 3)}, "pair sum (1,2) varies with the dynamical point"),
    # pairs come in row-major order
    ({(2, 4)}, {(2, 3), (1, 3)}, "pair determinant (1,3) varies with the dynamical point"),
])
def test_first_varying_invariant_is_named(delta_pairs, d_pairs, message):
    with pytest.raises(NotInFamilyError) as exc:
        hecke_classify(varied_golden(delta_pairs, d_pairs))
    assert str(exc.value) == message


def test_basic_form_identity_recipe():
    # basic datum: all-free uniform signs, kappa = 1, with the constant
    # 2-form -1 on every pair; the reduction recipe must be the identity
    g = constant_table_two_form(
        {(1, 2): -1 + 0j, (1, 3): -1 + 0j, (2, 3): -1 + 0j}
    )
    p, c = _all_free_trig(3, 1 + 0j, 2 + 0j, two_form=g)
    R = build(p, c)
    rep = hecke_classify(R)
    assert rep.kind == "Hecke"
    assert abs(rep.kappa - 1) < 1e-9
    recipe = basic_form_distance(R, rep)
    assert abs(recipe["scalar"] - 1) < 1e-9
    lam = np.array([0.4 + 0.2j, -0.3 + 0.1j, 0.9 - 0.5j])
    for (i, j) in ((1, 2), (2, 1), (1, 3), (3, 2)):
        assert abs(recipe["two_form"](i, j, lam) - 1) < 1e-7


def test_basic_form_recipe_divides_modified_pair():
    values = {(1, 2): -2 + 0j, (1, 3): -1 + 0j, (2, 3): -1 + 0j}
    g = constant_table_two_form(values)
    p, c = _all_free_trig(3, 1 + 0j, 2 + 0j, two_form=g)
    R = build(p, c)
    rep = hecke_classify(R)
    recipe = basic_form_distance(R, rep)
    lam = np.array([0.4 + 0.2j, -0.3 + 0.1j, 0.9 - 0.5j])
    # multiplier is -1/g: pair (1,2) carries g = -2, so the recipe divides
    # its diagonal coefficient by 2 (and multiplies the reverse by 2)
    assert abs(recipe["two_form"](1, 2, lam) - 0.5) < 1e-7
    assert abs(recipe["two_form"](2, 1, lam) - 2.0) < 1e-7
    assert abs(recipe["two_form"](1, 3, lam) - 1.0) < 1e-7


def test_basic_form_requires_hecke_type():
    p = single_class_partition(3)
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(0j, 4 + 0j),),
        signs={(1, 2, 3): 1},
        f_consts={(1, 2, 3): 0j},
    )
    c, _ = normalize_f(c)
    R = build(p, c)
    rep = hecke_classify(R)
    with pytest.raises(NotInFamilyError):
        basic_form_distance(R, rep)


@pytest.mark.parametrize("tol", [0, -1e-9, float("nan"), float("inf")])
def test_hecke_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    R = build(*random_datum(5, np.random.default_rng(1), "trivial"))
    with pytest.raises(ValueError) as err:
        hecke_classify(R, tol=tol)
    assert str(err.value) == f"tol must be finite and > 0, got {tol!r}"
