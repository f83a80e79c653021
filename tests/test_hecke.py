import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynrmat.builder import build
from dynrmat.cli import EXIT_OK, main
from dynrmat.errors import NotInFamilyError
from dynrmat.hecke import _verdict, basic_form_distance, hecke_classify
from dynrmat.params import (
    BlockConstants,
    ClassificationParams,
    constant_table_two_form,
    normalize_f,
)
from dynrmat.partition import DeltaClass, IndexPartition, single_class_partition
from dynrmat.rmatrix import DynamicalRMatrix, raw_tables
from dynrmat.sampling import random_datum
from dynrmat.serialize import params_to_json
from dynrmat.verifier import sample_lambda

from conftest import all_free_trig, golden_datum, times, varied_golden
from hecke_predictor import predict


def test_all_free_uniform_sign_is_hecke():
    p, c = all_free_trig(3, 1 + 0j, 2 + 0j)
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
        p, c = all_free_trig(
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
    p, c = all_free_trig(3, 0.5 + 0j, sigma)
    rep = hecke_classify(build(p, c))
    assert rep.kind == "Hecke"
    assert abs(rep.rho - rep.kappa - 0.5) < 1e-9
    assert abs(rep.rho * rep.kappa - sigma) < 1e-9
    assert abs(abs(rep.rho.imag) - 0.5) < 1e-9


@pytest.mark.parametrize("sigma", CUT_SIGMAS, ids=["+0", "-0", "+1e-13", "-1e-13"])
def test_hecke_cli_on_and_off_the_square_root_cut(sigma, tmp_path, capsys):
    p, c = all_free_trig(3, 0.5 + 0j, sigma)
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
    p, c = all_free_trig(3, 1 + 0j, 2 + 0j, two_form=g)
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
    p, c = all_free_trig(3, 1 + 0j, 2 + 0j, two_form=g)
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


def _assert_predicted(p, c):
    rep = hecke_classify(build(p, c))
    kind, rho, kappa = predict(p, c)
    assert rep.kind == kind, rep.detail
    if rho is None:
        assert rep.rho is None and rep.kappa is None
    else:
        top = max(abs(rho), abs(kappa))
        assert abs(rep.rho - rho) <= 1e-9 * top and abs(rep.kappa - kappa) <= 1e-9 * top
    return kind


def test_hecke_agrees_with_the_predictor_on_random_data():
    """Every 2-form kind at n = 1..6.  Single d-classes of size 2 and more
    are among them: each plane's double root splits by about sqrt(eps)."""
    kinds = set()
    for seed in range(120):
        n = 1 + seed % 6
        two_form = ("trivial", "table", "exact")[seed // 6 % 3]
        kinds.add(_assert_predicted(*random_datum(n, np.random.default_rng(seed), two_form)))
    assert kinds == {"Hecke", "WeakHecke", "DegenerateSingleDClass", "NotHecke"}


@pytest.mark.parametrize("spread, varies", [(2.5, False), (4.0, True)])
def test_hecke_holds_a_plane_determinant_to_lim_times_scale(spread, varies):
    """At scale C = 1.9 and tol 1e-9, lim is 1.9e-9: a plane determinant,
    a product of two entries, may vary by lim * C = 3.61e-9 and no more."""
    eps = spread * 1e-9

    def tables(lams):
        delta = np.array([[1.9, 0.3], [0.4, 0.7]], dtype=complex)
        d = np.zeros((len(lams), 2, 2), dtype=complex)
        d[:, 0, 1] = 0.5 + eps * np.sign(lams[:, 0].real)
        d[:, 1, 0] = 1.0
        return np.repeat(delta[None], len(lams), axis=0), d

    R = DynamicalRMatrix.from_tables(2, tables)
    samples = [np.array([x, 0j]) for x in (1.0, -1.0, 2.0, -2.0)]
    if varies:
        with pytest.raises(NotInFamilyError, match=r"pair determinant \(1,2\) varies"):
            hecke_classify(R, samples=samples)
    else:
        hecke_classify(R, samples=samples)


def test_hecke_takes_values_within_reach_for_one_single_d_class():
    """Eigenvalues within 1e4 tol scale are one: a single d-class whose
    Delta_22 is off by 1e-7 relative, far above tol scale, is still
    degenerate."""
    R = build(single_class_partition(3), normalize_f(ClassificationParams(
        partition=single_class_partition(3), per_block=(BlockConstants(0j, 4 + 0j),),
        signs={(1, 2, 3): 1}, f_consts={(1, 2, 3): 0j}))[0])

    def tables(lams):
        delta, d = (t.copy() for t in raw_tables(R, lams))
        delta[:, 1, 1] *= 1 + 1e-7
        return delta, d

    rep = hecke_classify(DynamicalRMatrix.from_tables(3, tables))
    assert (rep.kind, rep.rho) == ("DegenerateSingleDClass", 2)


def test_a_nan_eigenvalue_is_a_cluster_of_its_own():
    """Finite tables never give one, but the first-fit clustering must end
    on any value: a NaN, near no value, heads its own cluster."""
    delta = np.array([[[np.nan, 0.5], [0.5, 1.0]]] * 3, dtype=complex)
    rep = _verdict(delta, np.zeros_like(delta), 1.0, 1e-9, [])
    clusters = rep.evidence["eigenvalue_clusters"]
    assert np.isnan(clusters[0]) and clusters[1:] == [1, 0.5], clusters
    assert rep.kind == "NotHecke"


def test_hecke_at_a_tight_tol_agrees_with_the_predictor_at_every_scale():
    """At tol 1e-13 the eigenvalues of c R, c in {1, 3.7, 1e-8, 2^40},
    are read at the same samples: a plane inside a d-class is scalar
    and its double root is s/2 exactly, so the kind and detail are those of
    c = 1 and the predictor's, with no sqrt(eps) split of the root."""
    for seed in range(600):
        n = 1 + seed % 6
        two_form = ("trivial", "table", "exact")[seed // 6 % 3]
        p, c = random_datum(n, np.random.default_rng(seed), two_form)
        R = build(p, c)
        samples = sample_lambda(R, np.random.default_rng(0), 5, stencil=False)
        kind, rho, kappa = predict(p, c)
        reports = [hecke_classify(times(R, scale), samples=samples, tol=1e-13)
                   for scale in (1.0, 3.7, 1e-8, 2.0 ** 40)]
        assert {(rep.kind, rep.detail) for rep in reports} == {(kind, reports[0].detail)}, seed


@pytest.mark.parametrize("sigma", CUT_SIGMAS, ids=["+0", "-0", "+1e-13", "-1e-13"])
def test_hecke_agrees_with_the_predictor_on_the_square_root_cut(sigma):
    assert _assert_predicted(*all_free_trig(3, 0.5 + 0j, sigma)) == "Hecke"


@lru_cache(maxsize=None)
def _scale_cases():
    """(R, its samples, its report) for one matrix of each kind; the samples
    are drawn once, from R, since the entry cap of ``sample_lambda`` is
    absolute."""
    single = single_class_partition(3)
    single_params, _ = normalize_f(ClassificationParams(
        partition=single, per_block=(BlockConstants(0j, 4 + 0j),),
        signs={(1, 2, 3): 1}, f_consts={(1, 2, 3): 0j}))
    cases = []
    for p, c in (random_datum(5, np.random.default_rng(1), "trivial"), golden_datum(),
                 all_free_trig(3, 1 + 0j, 2 + 0j), (single, single_params)):
        R = build(p, c)
        samples = sample_lambda(R, np.random.default_rng(0), 5, stencil=False)
        cases.append((R, samples, hecke_classify(R, samples=samples)))
    assert [rep.kind for *_, rep in cases] == [
        "NotHecke", "WeakHecke", "Hecke", "DegenerateSingleDClass"]
    return cases


def _assert_scaled_report(c):
    for R, samples, base in _scale_cases():
        rep = hecke_classify(times(R, c), samples=samples)
        assert (rep.kind, rep.detail) == (base.kind, base.detail)
        if base.rho is None:
            assert rep.rho is None and rep.kappa is None
        else:
            for got, want in ((rep.rho, base.rho), (rep.kappa, base.kappa)):
                assert abs(got - c * want) <= 1e-12 * abs(c * want)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=-1000)
def test_hecke_verdict_is_that_of_r_at_every_power_of_two(k):
    """2^k R has the kind and detail of R, and rho and kappa times 2^k: no
    threshold is absolute, and the tables are decided at unit scale, where
    no plane determinant overflows or underflows."""
    _assert_scaled_report(2.0 ** k)


@pytest.mark.parametrize("c", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e3, 1e6])
def test_hecke_verdict_is_that_of_r_at_decimal_scales(c):
    _assert_scaled_report(c)


def test_hecke_rescales_a_spectrum_that_would_overflow():
    """Times 2^600 the plane determinants of the n = 3 Hecke member would
    overflow: the tables are rescaled first, so the verdict is Hecke, with
    rho and kappa times 2^600 exactly, and no numpy warning is raised."""
    R, samples, base = _scale_cases()[2]
    c = 2.0 ** 600
    rep = hecke_classify(times(R, c), samples=samples)
    assert (rep.kind, rep.detail) == ("Hecke", "")
    assert (rep.rho, rep.kappa) == (base.rho * c, base.kappa * c)
    assert rep.evidence["scale"] == base.evidence["scale"] * c


def _constant_matrix(delta, d):
    """The matrix whose tables are ``delta`` and ``d`` at every point."""
    delta, d = np.array(delta, dtype=complex), np.array(d, dtype=complex)
    return DynamicalRMatrix.from_tables(len(delta), lambda lams: (
        np.repeat(delta[None], len(lams), axis=0), np.repeat(d[None], len(lams), axis=0)))


@pytest.mark.parametrize("delta, d, detail", [
    # Delta_12 = Delta_21 = 2, d_12 d_21 = 0: the plane's double root 2 is
    # not diagonalizable, though the eigenvalues form two clusters
    ([[1, 2], [2, 1]], [[0, 1], [0, 0]],
     "non-diagonalizable repeated-eigenvalue plane(s) [(1, 2)]"),
    # two clusters, 1 on every diagonal line and 0 on the plane: kappa = 0
    ([[1, 1], [0, 1]], [[0, 1], [0, 0]], "degenerate parameters (rho, kappa)"),
], ids=["non_diagonalizable", "kappa_zero"])
def test_two_clusters_that_are_not_hecke(delta, d, detail):
    samples = [np.array([x, 0j]) for x in (0.1, 0.7, 1.3)]
    rep = hecke_classify(_constant_matrix(delta, d), samples=samples)
    assert (rep.kind, rep.detail) == ("NotHecke", detail)
    assert len(rep.evidence["eigenvalue_clusters"]) == 2
