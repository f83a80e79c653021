import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dynrmat.params
import dynrmat.serialize
from dynrmat.builder import build
from dynrmat.cli import (
    EXIT_INVALID,
    EXIT_NOT_IN_FAMILY,
    EXIT_OK,
    EXIT_POLE,
    EXIT_RESIDUAL,
    EXIT_USAGE,
    build_parser,
    main,
)
from dynrmat.rmatrix import (
    DynamicalRMatrix,
    composite_index,
    dense_point_to_json,
    evaluate,
    point_to_json,
    shifted,
)
from dynrmat.errors import ParameterError, PoleError
from dynrmat.params import BlockConstants, ClassificationParams
from dynrmat.partition import DeltaClass, IndexPartition, single_class_partition
from dynrmat.sampling import random_datum
from dynrmat.serialize import complex_to_json, params_to_json
from dynrmat.verifier import sample_lambda

from conftest import (
    all_free_trig, all_zero_config, golden_datum, huge_datum, overflow_datum,
    zero_residual_config,
)


def _matrix_config(R, base_points, include_shifts=True, perturb=None):
    pts = []
    seen = set()
    for lam in base_points:
        group = [lam]
        if include_shifts:
            group += [shifted(lam, k) for k in range(1, R.n + 1)]
        for mu in group:
            key = tuple(np.round(np.asarray(mu, dtype=complex), 12))
            if key in seen:
                continue
            seen.add(key)
            P = evaluate(R, mu)
            if perturb is not None:
                M = P.matrix.copy()
                (r, c), eps = perturb
                M[r, c] += eps
                from dynrmat.rmatrix import DensePoint

                P = DensePoint(n=P.n, lam=P.lam, matrix=M)
            pts.append(dense_point_to_json(P))
    return {"kind": "matrix", "n": R.n, "samples": pts}


@pytest.fixture
def golden_R():
    p, c = golden_datum()
    return build(p, c)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- build ------------------------------------------------------------------


def test_build_summary_and_point(golden_config, capsys):
    assert main(["build", golden_config, "--lambda", "1,2,0.5,0.25"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["summary"][0] == "n = 4"
    assert any("exchange(1,2)" in line for line in out["summary"])
    # at (1, 2, .5, .25) the (1,2) exchange entry is 1/(1-2) = -1
    entries = {
        (tuple(e["row"]), tuple(e["col"])): complex(e["re"], e["im"])
        for e in out["point"]["entries"]
    }
    assert abs(entries[((1, 2), (2, 1))] + 1) < 1e-12


def test_build_pole_exit_code(golden_config, capsys):
    assert main(["build", golden_config, "--lambda", "1,1,0.5,0.25"]) == EXIT_POLE
    assert "pole" in capsys.readouterr().err


def test_build_bad_lambda_usage(golden_config):
    assert main(["build", golden_config, "--lambda", "foo,1,2,3"]) == EXIT_USAGE


def test_build_wrong_lambda_length(golden_config):
    assert main(["build", golden_config, "--lambda", "1,2"]) == EXIT_INVALID


@pytest.mark.parametrize("value", ["nan", "1e400", "nanj", "-1e400j"])
@pytest.mark.parametrize("command,extra,point,k", [
    ("build", [], "0,{},0,0", 2),
    # the contraction to index 1 does not depend on lambda
    ("transform", ["--contract", "1"], "{}", 1),
])
def test_non_finite_lambda_component_invalid(golden_config, capsys, command, extra, point, k,
                                             value):
    """Rejected before the matrix is read at it: not a pole, and never a
    printed NaN or Infinity, which is not JSON."""
    assert main([command, golden_config, *extra, "--lambda", point.format(value)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid input: lambda component {k} is not finite: ")


def test_spelled_out_inf_lambda_is_a_usage_error(golden_config, capsys):
    # "inf" reads as "jnf" once i is taken for the imaginary unit
    assert main(["build", golden_config, "--lambda", "inf,0,0,0"]) == EXIT_USAGE
    assert "cannot parse lambda component 'inf'" in capsys.readouterr().err


# -- verify -----------------------------------------------------------------


def test_verify_datum_passes(golden_config, capsys):
    assert main(["verify", golden_config, "--samples", "5", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    head, _, csv = out.partition("\n}")
    obj = json.loads(head + "\n}")
    assert obj["passed"] is True
    assert obj["num_samples"] == 5
    assert obj["seed"] == 3
    assert "equation,max_normalized_residual" in csv
    assert "G0," in csv and "E6," in csv and "global," in csv


def test_verify_datum_with_every_residual_zero(tmp_path, capsys):
    datum = zero_residual_config()
    assert main(["verify", _write(tmp_path, "zero.json", datum), "--seed", "0"]) == EXIT_OK
    head, _, _ = capsys.readouterr().out.partition("\n}")
    obj = json.loads(head + "\n}")
    assert obj["passed"] is True and obj["worst"] is None
    assert obj["global_residual"] == 0 and set(obj["per_equation"].values()) == {0}


@pytest.mark.parametrize("argv", [["build", "BAD"], ["verify", "BAD"], ["classify", "BAD"],
                                  ["transform", "BAD", "--contract", "1,2"], ["hecke", "BAD"],
                                  ["transform", "GOLDEN", "--compose", "BAD"]])
def test_datum_two_form_missing_coupled_pair_invalid(tmp_path, capsys, golden_config, argv):
    _, c = random_datum(4, np.random.default_rng(3), "table")
    obj = params_to_json(c)
    del obj["two_form"]["values"]["1,2"]
    paths = {"BAD": _write(tmp_path, "d.json", obj), "GOLDEN": golden_config}
    assert main([paths.get(arg, arg) for arg in argv]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: 2-form table has no entry for coupled pair (1, 2)\n"


@pytest.mark.parametrize("argv, loads", [(["build", "GOLDEN"], 1),
                                         (["transform", "GOLDEN", "--compose", "GOLDEN"], 2)])
def test_each_loaded_datum_is_validated_once(golden_config, capsys, monkeypatch, argv, loads):
    # validate_partition runs once per validate_params call and nowhere else
    calls = []
    real = dynrmat.params.validate_partition
    monkeypatch.setattr(dynrmat.params, "validate_partition",
                        lambda p: calls.append(p) or real(p))
    assert main([golden_config if arg == "GOLDEN" else arg for arg in argv]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == loads


def test_verify_deterministic_output(golden_config, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", golden_config, "--seed", "7", "--out", str(a)]) == EXIT_OK
    assert main(["verify", golden_config, "--seed", "7", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["classify", "hecke"])
def test_default_stdout_is_pinned(golden_config, capsys, command):
    """The full stdout of classify and hecke on the golden datum at a fixed
    seed, byte for byte, as recorded in tests/golden/."""
    assert main([command, golden_config, "--seed", "7"]) == EXIT_OK
    expected = (GOLDEN_DIR / f"{command}_seed7.out").read_text()
    assert capsys.readouterr().out == expected


def test_classify_stdout_with_an_exact_two_form_is_pinned(tmp_path, capsys):
    """The full stdout of classify on a datum with a lambda-dependent exact
    2-form, whose recovered values are not 1, byte for byte."""
    from dynrmat.sampling import random_datum

    _, c = random_datum(5, np.random.default_rng(1), "exact")
    cfg = tmp_path / "exact.json"
    cfg.write_text(json.dumps(params_to_json(c)))
    assert main(["classify", str(cfg), "--seed", "7"]) == EXIT_OK
    expected = (GOLDEN_DIR / "classify_exact_seed7.out").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("seed", [0, 7])
def test_classify_recovers_from_the_seed_it_classifies_with(golden_config, capsys, seed):
    """classify --seed S recovers the constants from seed S's draws."""
    from dynrmat.classifier import _reference_point, classify, recover_params

    assert main(["classify", golden_config, "--seed", str(seed)]) == EXIT_OK
    R = build(*golden_datum())
    params = recover_params(R, classify(R, seed=seed), seed=seed)
    expected = json.loads(json.dumps(params_to_json(params, _reference_point(R, stencil=False))))
    assert json.loads(capsys.readouterr().out)["params"] == expected


def test_build_and_classify_check_the_reference_point_alone(tmp_path, capsys):
    """build and classify read the tables at the reference point only, so a
    pole at one of its shifts does not move their point; the stencil
    search that transform keeps moves on to the next step."""
    from dynrmat.classifier import _reference_point
    from dynrmat.params import ClassificationParams
    from dynrmat.partition import DeltaClass, IndexPartition

    direction = np.array([0.3 * (k + 1) + 0.17j * (k + 2) for k in range(2)])
    first = 0.1 * 9 * direction  # the first point the search tries
    shift = shifted(first, 1)
    # Delta_12 = 1 / (lam_1 - lam_2 + f_1 - f_2) has its pole at first + e_1
    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2), d_classes=()),),))
    c = ClassificationParams(partition=p, per_block=(BlockConstants(0j, 1 + 0j),),
                             signs={(1,): 1, (2,): 1},
                             f_consts={(1,): 0j, (2,): complex(shift[0] - shift[1])})
    R = build(p, c)
    with pytest.raises(PoleError):
        R.tables(shift)
    assert _reference_point(R, stencil=False).tobytes() == first.tobytes()
    assert _reference_point(R).tobytes() == (0.1 * 10 * direction).tobytes()

    cfg = tmp_path / "pole.json"
    cfg.write_text(json.dumps(params_to_json(c)))
    where = [complex_to_json(z) for z in first]
    assert main(["build", str(cfg)]) == EXIT_OK
    assert f"at the reference point {where}:" in capsys.readouterr().out
    assert main(["classify", str(cfg)]) == EXIT_OK
    two_form = json.loads(capsys.readouterr().out)["params"]["two_form"]
    assert two_form["sampled_at"] == json.loads(json.dumps(where))


def test_verify_env_seed(golden_config, tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("DYNRMAT_SEED", "11")
    assert main(["verify", golden_config, "--out", str(a)]) == EXIT_OK
    monkeypatch.delenv("DYNRMAT_SEED")
    assert main(["verify", golden_config, "--seed", "11", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_bad_env_seed(golden_config, monkeypatch):
    monkeypatch.setenv("DYNRMAT_SEED", "not-a-number")
    assert main(["verify", golden_config]) == EXIT_USAGE


def test_verify_nonpositive_samples(golden_config):
    assert main(["verify", golden_config, "--samples", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("command,value", [
    ("build", "3"), ("classify", "0"), ("hecke", "-5"),
])
def test_samples_only_on_verify(golden_config, capsys, command, value):
    assert main([command, golden_config, "--samples", value]) == EXIT_USAGE
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["build", "--tol=1e-9"], "--tol"),
    (["build", "--seed", "3"], "--seed"),
    (["transform", "--contract", "1,2", "--tol=nan"], "--tol"),
    (["verify", "--lambda=1,2,3,4"], "--lambda"),
    (["classify", "--lambda", "1,2,3,4"], "--lambda"),
    (["hecke", "--lambda=-1,2,3,4"], "--lambda"),
])
def test_flags_only_where_read(golden_config, capsys, argv, flag):
    assert main([argv[0], golden_config, *argv[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("command,extra", [
    ("build", []), ("transform", ["--contract", "1,2,3,4"]),
])
def test_lambda_value_may_start_with_minus(golden_config, capsys, command, extra):
    point = "-0.5+1i,0,0.25,0"
    assert main([command, golden_config, *extra, f"--lambda={point}"]) == EXIT_OK
    attached = capsys.readouterr().out
    for flag in ("--lambda", "--lam"):
        assert main([command, golden_config, *extra, flag, point]) == EXIT_OK
        assert capsys.readouterr().out == attached
    assert '"re": -0.5' in attached


def test_build_lambda_overflow_is_pole(tmp_path, capsys):
    _, c = overflow_datum()
    cfg = _write(tmp_path, "overflow.json", params_to_json(c))
    assert main(["build", cfg, "--lambda=400,-400,0,0,0"]) == EXIT_POLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pole: non-finite coefficient at pair (2,1)")


@pytest.mark.parametrize("command,sigma,message", [
    # entries of 1e4, above the absolute entry cap of 1e3 at every draw
    ("verify", 1e8, "could not find 8 well-conditioned sample points in 2000 draws"),
    ("classify", 1e8, "could not find 5 well-conditioned sample points in 2000 draws"),
    ("hecke", 1e8, "could not find 5 well-conditioned sample points in 2000 draws"),
    # entries of 1e7, above the reference point's cap of 1e6
    ("build", 1e14, "no well-conditioned reference point found"),
])
def test_no_well_conditioned_point_is_a_pole(tmp_path, capsys, command, sigma, message):
    """Exit code 3 of the README's table: the golden datum scaled past an
    absolute entry cap has no point to be read at."""
    _, c = golden_datum()
    c = replace(c, per_block=(BlockConstants(0j, sigma + 0j),))
    cfg = _write(tmp_path, "scaled.json", params_to_json(c))
    assert main([command, cfg]) == EXIT_POLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pole: {message}\n"


@pytest.mark.parametrize("command", ["verify", "classify", "hecke"])
@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
def test_bad_tol_usage(golden_config, capsys, command, tol):
    assert main([command, golden_config, f"--tol={tol}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must be" in captured.err


def test_non_finite_constant_invalid(golden_config, tmp_path, capsys):
    obj = json.loads(open(golden_config).read())
    obj["per_block"][0]["S"] = {"re": float("nan"), "im": 0.0}
    path = _write(tmp_path, "nan.json", obj)
    assert main(["verify", path]) == EXIT_INVALID
    assert "sum constant S must be finite" in capsys.readouterr().err


_GOLDEN = golden_datum()[1]
_RATIONAL = BlockConstants(0j, 1 + 0j)
_TWO_FREE = {"signs": {(1,): 1, (2,): 1}, "f_consts": {(1,): 0j, (2,): 0j}}
_TWO_CLASSES = IndexPartition(n=2, blocks=((DeltaClass(free=(1,)), DeltaClass(free=(2,))),))
_TWO_BLOCKS = IndexPartition(n=2, blocks=((DeltaClass(free=(1,)),), (DeltaClass(free=(2,)),)))


@pytest.mark.parametrize("c, message", [
    (replace(_GOLDEN, per_block=()), "0 per-block constants for 1 blocks"),
    (ClassificationParams(_TWO_CLASSES, (_RATIONAL,), **_TWO_FREE),
     "block 1: sum constant must be nonzero when the block has several exchange classes"),
    (ClassificationParams(_TWO_BLOCKS, (_RATIONAL, _RATIONAL), **_TWO_FREE),
     "missing cross-block determinant constant (1,2)"),
    (ClassificationParams(_TWO_BLOCKS, (_RATIONAL, _RATIONAL), {(0, 1): 0j}, **_TWO_FREE),
     "cross-block determinant constant (1,2) is zero"),
    (replace(_GOLDEN, f_consts={(1,): 0j, (2,): 0j}), "missing f constant for d-class [3, 4]"),
    (ClassificationParams(IndexPartition(n=0), ()), "n must be positive, got 0"),
    (ClassificationParams(
        IndexPartition(n=1, blocks=((DeltaClass(free=(1,)), DeltaClass()),)), (_RATIONAL,),
        signs={(1,): 1}, f_consts={(1,): 0j}),
     "empty exchange class in block 1"),
], ids=["block count", "zero S", "missing cross", "zero cross", "missing f", "n < 1",
        "empty exchange class"])
def test_datum_rejected_with_its_message_by_build_and_cli(c, message, tmp_path, capsys):
    with pytest.raises(ParameterError) as exc:
        build(c.partition, c)
    assert str(exc.value) == message
    assert main(["build", _write(tmp_path, "broken.json", params_to_json(c))]) == EXIT_INVALID
    assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_verify_matrix_with_shifts_passes(golden_R, tmp_path, capsys):
    rng = np.random.default_rng(0)
    base = sample_lambda(golden_R, rng, 2)
    cfg = _write(tmp_path, "m.json", _matrix_config(golden_R, base))
    assert main(["verify", cfg]) == EXIT_OK
    head, _, _ = capsys.readouterr().out.partition("\n}")
    assert json.loads(head + "\n}")["num_samples"] == 2


@pytest.mark.parametrize("command", ["verify", "classify", "hecke"])
def test_sampled_point_with_a_nan_component_invalid(golden_R, tmp_path, capsys, command):
    """Such a point is named, not left out of verify's base points."""
    obj = _matrix_config(golden_R, sample_lambda(golden_R, np.random.default_rng(0), 6))
    obj["samples"][3]["lambda"][1]["im"] = float("nan")
    assert main([command, _write(tmp_path, "m.json", obj)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "invalid input: sample 3: lambda component 2 is not finite: "
        f"({obj['samples'][3]['lambda'][1]['re']}+nanj)\n")


def test_verify_matrix_without_shifts_rejected(golden_R, tmp_path, capsys):
    rng = np.random.default_rng(1)
    base = sample_lambda(golden_R, rng, 3)
    cfg = _write(
        tmp_path, "m.json", _matrix_config(golden_R, base, include_shifts=False)
    )
    assert main(["verify", cfg]) == EXIT_INVALID
    assert "not verifiable" in capsys.readouterr().err


def test_verify_matrix_perturbed_fails_naming_equation(golden_R, tmp_path, capsys):
    rng = np.random.default_rng(2)
    base = sample_lambda(golden_R, rng, 2)
    slot = (composite_index(4, 1, 2), composite_index(4, 2, 1))
    cfg = _write(
        tmp_path,
        "m.json",
        _matrix_config(golden_R, base, perturb=(slot, 1e-2)),
    )
    assert main(["verify", cfg]) == EXIT_RESIDUAL
    err = capsys.readouterr().err
    assert "FAIL: worst equation" in err


def _large_case(member: bool, n: int = 3, count: int = 1):
    """A trivial member of size n, or the non-member with Delta_12 times
    1.3, and ``count`` base points of the member."""
    R = build(*random_datum(n, np.random.default_rng(1), "trivial"))
    base = sample_lambda(R, np.random.default_rng(0), count)
    if member:
        return R, base
    bad = DynamicalRMatrix(
        n=n, delta=lambda i, j, lam: (1.3 if (i, j) == (1, 2) else 1) * R.delta(i, j, lam), d=R.d)
    return bad, base


def _scaled_config(tmp_path, M, base, factor):
    """The sampled config of M on the stencils of ``base``, every entry
    times ``factor``."""
    obj = _matrix_config(M, base)
    for sample in obj["samples"]:
        for entry in sample["entries"]:
            entry["re"] *= factor
            entry["im"] *= factor
    return _write(tmp_path, f"m{factor:g}.json", obj)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("member", [True, False], ids=["member", "non_member"])
def test_verify_large_coefficients_print_what_scale_one_prints(tmp_path, capsys, member):
    """Times 2^400 the cubic residuals would overflow; verify rescales each
    such sample by a power of two, so its output is that of scale 1."""
    M, base = _large_case(member)
    runs = []
    for factor in (1.0, 2.0 ** 400):
        code = main(["verify", _scaled_config(tmp_path, M, base, factor)])
        runs.append((code, *capsys.readouterr()))
    assert runs[1] == runs[0]
    code, _, err = runs[0]
    if member:
        assert code == EXIT_OK and err == ""
    else:
        assert code == EXIT_RESIDUAL
        assert err.startswith("FAIL: worst equation F9 at indices [1, 2]") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factor", [1e-4, 1e-6, 1e-120])
def test_verify_fails_a_small_non_member(tmp_path, capsys, factor):
    """The component residuals are relative to C^3 however small C is."""
    M, base = _large_case(False, n=4, count=3)
    assert main(["verify", _scaled_config(tmp_path, M, base, factor)]) == EXIT_RESIDUAL
    err = capsys.readouterr().err
    assert err.startswith("FAIL: worst equation F9 at indices [") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_verify_member_times_1e120_passes(tmp_path, capsys):
    M, base = _large_case(True)
    assert main(["verify", _scaled_config(tmp_path, M, base, 1e120)]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_verify_passes_a_member_times_2_to_600(tmp_path, capsys):
    """Times 2^600 each plane determinant would overflow, and times 2^-600
    underflow: the factors are read at unit scale, so verify passes."""
    M, base = _large_case(True)
    for factor in (2.0 ** 600, 2.0 ** -600):
        assert main(["verify", _scaled_config(tmp_path, M, base, factor)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and '"invertibility_agree": true' in out


def test_verify_names_the_sample_and_factor_when_only_invertibility_fails(tmp_path, capsys):
    R = build(*dynrmat.serialize.parse_config(zero_residual_config())[1])
    W = DynamicalRMatrix(n=2, delta=lambda i, j, lam: 0j if i == j == 2 else R.delta(i, j, lam),
                         d=R.d)
    lam = np.array([0.3, 0.1j])
    cfg = _write(tmp_path, "m.json", _matrix_config(W, [lam]))
    assert main(["verify", cfg]) == EXIT_RESIDUAL
    out, err = capsys.readouterr()
    obj = json.loads(out.partition("\n}")[0] + "\n}")
    assert obj["passed"] is False and obj["invertibility_agree"] is False
    assert obj["global_residual"] == 0 and set(obj["per_equation"].values()) == {0}
    assert err == (f"FAIL: invertibility check failed at sample 1 of 1, lam={lam}: "
                   "factor Delta_ii at index 2 is 0j\n")


@pytest.mark.filterwarnings("error")
def test_transform_prints_a_finite_residual_for_huge_coefficients(tmp_path, capsys):
    """The residual is rescaled as in verify: without that, its cubic
    products overflow and it prints NaN, which is not JSON."""
    cfg = _write(tmp_path, "huge.json", params_to_json(huge_datum()[1]))
    argv = ["transform", cfg, "--contract", "1,2", "--lambda", "0.3+0.1i,0.2-0.4i"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    residual = json.loads(out)["residual"]
    assert math.isfinite(residual) and residual < 1e-9 and err == ""


@pytest.mark.filterwarnings("error")
def test_hecke_on_a_member_times_2_to_minus_40_prints_what_scale_one_prints(tmp_path, capsys):
    """Every Hecke threshold is relative: at 2^-40 the six distinct
    eigenvalues of this member stay six."""
    M, base = _large_case(True, n=5, count=2)
    runs = []
    for factor in (1.0, 2.0 ** -40):
        assert main(["hecke", _scaled_config(tmp_path, M, base, factor)]) == EXIT_OK
        runs.append(capsys.readouterr())
    assert runs[1] == runs[0]
    assert runs[0].out.startswith("NotHecke (6 distinct eigenvalue(s), need exactly 2)\n")


@pytest.mark.filterwarnings("error")
def test_hecke_prints_both_parts_of_a_small_complex_rho_and_kappa(tmp_path, capsys):
    """An imaginary part is dropped only below 1e-12 |z|: times 2^-40 the
    complex rho and kappa of this Hecke member keep both parts."""
    R = build(*all_free_trig(3, 1 + 1j, 2 + 0.5j))
    base = sample_lambda(R, np.random.default_rng(0), 2)
    lines = []
    for factor in (1.0, 2.0 ** -40):
        assert main(["hecke", _scaled_config(tmp_path, R, base, factor)]) == EXIT_OK
        lines.append(capsys.readouterr().out.partition("\n")[0])
    assert lines == ["Hecke rho=1.95535+0.843561i kappa=0.955347-0.156439i",
                     "Hecke rho=1.77838e-12+7.67214e-13i kappa=8.68883e-13-1.42281e-13i"]


def _scaled_datum(n, c):
    """random_datum(n) as the member c R: S -> c S, Sigma -> c^2 Sigma."""
    p, params = random_datum(n, np.random.default_rng(1), "trivial")
    return replace(
        params,
        per_block=tuple(BlockConstants(b.sum_const * c, b.det_const * c * c)
                        for b in params.per_block),
        cross_det={k: v * c * c for k, v in params.cross_det.items()},
    )


@pytest.mark.parametrize("n, c", [(12, 1e-4), (16, 100.0)], ids=["underflow", "overflow"])
def test_verify_passes_members_whose_determinant_leaves_the_float_range(tmp_path, capsys, n, c):
    cfg = _write(tmp_path, "scaled.json", params_to_json(_scaled_datum(n, c)))
    assert main(["verify", cfg]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out.partition("\n}")[0] + "\n}")
    assert obj["passed"] is True and obj["invertibility_agree"] is True


@pytest.mark.parametrize("row, col", [([1, 5], [5, 1]), ([0, 2], [2, 0]), ([1, -1], [-1, 1]),
                                      ([5, 1], [1, 5])])
def test_sampled_entry_index_outside_one_to_n_invalid(golden_R, tmp_path, capsys, row, col):
    obj = _matrix_config(golden_R, sample_lambda(golden_R, np.random.default_rng(0), 1))
    obj["samples"][1]["entries"].insert(3, {"row": row, "col": col, "re": 1.0, "im": 0.0})
    assert main(["verify", _write(tmp_path, "m.json", obj)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"sample 1: entry 3: row {row}, col {col} has a factor index outside 1..4" in err


def _assert_too_few_samples(golden_R, tmp_path, capsys, command, count):
    """``command`` on a sampled config of ``count`` points and no shifts
    exits 2 with one message, in-process and through ``python -m``."""
    base = sample_lambda(golden_R, np.random.default_rng(4), count)
    cfg = _write(tmp_path, "m.json", _matrix_config(golden_R, base, include_shifts=False))
    msg = (f"invalid input: {command} needs at least 3 sample points; "
           f"the sampled matrix has {count}\n")
    assert main([command, cfg]) == EXIT_INVALID
    assert capsys.readouterr() == ("", msg)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "dynrmat.cli", command, cfg],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_INVALID, "", msg)


def test_classify_with_too_few_samples_invalid(golden_R, tmp_path, capsys):
    # two sample points and no shifts: too few for the zero-pattern detection
    _assert_too_few_samples(golden_R, tmp_path, capsys, "classify", 2)


@pytest.mark.parametrize("count", [1, 2])
def test_hecke_with_too_few_samples_invalid(golden_R, tmp_path, capsys, count):
    # the same check as classify: a verdict from one or two points is not given
    _assert_too_few_samples(golden_R, tmp_path, capsys, "hecke", count)


def _off_pattern_config(golden_R, value):
    """A sampled golden config with ``value`` at (row (1,2), col (1,3)),
    outside both zero-weight patterns, in every sample."""
    obj = _matrix_config(golden_R, sample_lambda(golden_R, np.random.default_rng(0), 1))
    for sample in obj["samples"]:
        sample["entries"].append({"row": [1, 2], "col": [1, 3], "re": value, "im": 0.0})
    return obj, len(obj["samples"][0]["entries"]) - 1


@pytest.mark.parametrize("command,code", [("verify", EXIT_RESIDUAL),
                                          ("classify", EXIT_NOT_IN_FAMILY),
                                          ("hecke", EXIT_NOT_IN_FAMILY)])
def test_sampled_entry_outside_zero_weight_patterns(golden_R, tmp_path, capsys, command, code):
    obj, entry = _off_pattern_config(golden_R, 5.0)
    assert main([command, _write(tmp_path, "m.json", obj)]) == code
    out, err = capsys.readouterr()
    msg = (f"sample 0: entry {entry}: row [1, 2], col [1, 3] is outside the "
           "zero-weight pattern (|value| 5)")
    prefix = "FAIL: " if command == "verify" else "not in family: "
    assert err == prefix + msg + "\n" and out == ""


@pytest.mark.parametrize("command", ["verify", "classify", "hecke"])
def test_sampled_explicit_zero_outside_patterns_is_legal(golden_R, tmp_path, capsys, command):
    obj, _ = _off_pattern_config(golden_R, 0.0)
    assert main([command, _write(tmp_path, "m.json", obj)]) == EXIT_OK
    plain = _matrix_config(golden_R, sample_lambda(golden_R, np.random.default_rng(0), 1))
    out = capsys.readouterr().out
    assert main([command, _write(tmp_path, "p.json", plain)]) == EXIT_OK
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("command", ["verify", "classify", "hecke"])
def test_sampled_configs_build_no_dense_samples(golden_R, tmp_path, monkeypatch, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("a sampled config was read through a dense matrix")

    base = sample_lambda(golden_R, np.random.default_rng(0), 1 if command == "verify" else 5)
    cfg = _write(tmp_path, "m.json", _matrix_config(golden_R, base))
    for name, module in list(sys.modules.items()):
        if name == "dynrmat" or name.startswith("dynrmat."):
            for attr in ("tables_from_dense", "dense_point_from_json"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    assert not hasattr(dynrmat.serialize, "tables_from_dense")
    assert main([command, cfg]) == EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("argv", [["build"], ["transform", "--contract", "1,2"]])
def test_datum_commands_reject_sampled_matrix_by_kind(golden_R, tmp_path, monkeypatch,
                                                      capsys, argv):
    def refuse(obj):
        raise AssertionError("the samples of a config a command cannot use were parsed")

    monkeypatch.setattr(dynrmat.serialize, "sampled_tables_from_json", refuse)
    obj, _ = _off_pattern_config(golden_R, 5.0)
    assert main([argv[0], _write(tmp_path, "m.json", obj), *argv[1:]]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith(
        "invalid input: this command needs an evaluable datum config")


def test_verify_missing_file(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == EXIT_INVALID


def test_verify_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == EXIT_INVALID


def test_verify_bad_kind(tmp_path):
    assert main(["verify", _write(tmp_path, "k.json", {"kind": "other"})]) == EXIT_INVALID


# -- classify ---------------------------------------------------------------


def test_classify_datum_round_trip(golden_config, capsys):
    assert main(["classify", golden_config]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["partition"]["n"] == 4
    assert obj["partition"]["blocks"] == [[{"free": [1, 2], "d_classes": [[3, 4]]}]]
    assert obj["reduced_incidence"] == [[1]]
    assert obj["params"]["kind"] == "datum"
    assert abs(obj["params"]["per_block"][0]["Sigma"]["re"] - 1) < 1e-8


def test_classify_matrix_structure_only(golden_R, tmp_path, capsys):
    rng = np.random.default_rng(3)
    base = sample_lambda(golden_R, rng, 5)
    cfg = _write(
        tmp_path, "m.json", _matrix_config(golden_R, base, include_shifts=False)
    )
    assert main(["classify", cfg]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["partition"]["blocks"] == [[{"free": [1, 2], "d_classes": [[3, 4]]}]]
    assert "params" not in obj


def test_classify_not_in_family(tmp_path):
    # inconsistent vanishing pattern: a d-class whose members disagree on
    # their exchange entries toward a third index
    def delta(i, j, lam):
        if (i, j) in ((2, 3), (3, 2)):
            return 0j
        return 1.0 + 0j

    def d(i, j, lam):
        if (i, j) in ((1, 2), (2, 1)):
            return 0j
        return 2.0 + 0j

    R = DynamicalRMatrix(n=3, delta=delta, d=d)
    rng = np.random.default_rng(4)
    base = [rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3) for _ in range(4)]
    cfg = _write(tmp_path, "m.json", _matrix_config(R, base, include_shifts=False))
    assert main(["classify", cfg]) == EXIT_NOT_IN_FAMILY


# -- hecke ------------------------------------------------------------------


def test_hecke_golden_line(golden_config, capsys):
    assert main(["hecke", golden_config]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "WeakHecke rho=1 kappa=1; not Hecke"
    obj = json.loads("\n".join(out.splitlines()[1:]))
    assert obj["kind"] == "WeakHecke"


def test_hecke_matrix_not_in_family(tmp_path):
    def delta(i, j, lam):
        if i == j:
            return complex(lam[0])
        return 1 + 0j

    def d(i, j, lam):
        return 2 + 0j

    R = DynamicalRMatrix(n=2, delta=delta, d=d)
    base = [
        np.array([0.5 + 0.1j, 0.3 - 0.2j]),
        np.array([1.5 - 0.4j, -0.7 + 0.3j]),
        np.array([-0.9 + 0.6j, 0.2 + 0.8j]),
    ]
    cfg = _write(tmp_path, "m.json", _matrix_config(R, base, include_shifts=False))
    assert main(["hecke", cfg]) == EXIT_NOT_IN_FAMILY


# -- transform --------------------------------------------------------------


def test_transform_requires_exactly_one_mode(golden_config):
    assert main(["transform", golden_config]) == EXIT_USAGE
    assert (
        main(
            [
                "transform", golden_config,
                "--contract", "1,2", "--scale", "0.5",
            ]
        )
        == EXIT_USAGE
    )


def test_transform_contract(golden_config, capsys):
    code = main(
        ["transform", golden_config, "--contract", "1,2", "--lambda", "1,2.5"]
    )
    assert code == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 2
    assert obj["residual"] < 1e-9
    entries = {
        (tuple(e["row"]), tuple(e["col"])): complex(e["re"], e["im"])
        for e in obj["point"]["entries"]
    }
    assert abs(entries[((1, 2), (2, 1))] - 1 / (1 - 2.5)) < 1e-12


def test_transform_compose(golden_config, capsys):
    code = main(
        [
            "transform", golden_config,
            "--compose", golden_config,
            "--g-ab", "2", "--g-ba", "0.5",
        ]
    )
    assert code == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 8
    assert obj["residual"] < 1e-9


@pytest.mark.parametrize("flag", ["--g-ab", "--g-ba"])
def test_transform_compose_zero_cross_factor_invalid(golden_config, capsys, flag):
    code = main(["transform", golden_config, "--compose", golden_config, flag, "0"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cross coefficients" in captured.err


@pytest.mark.parametrize("flag", ["--g-ab", "--g-ba"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_transform_compose_non_finite_cross_factor_invalid(golden_config, capsys, flag, value):
    code = main(["transform", golden_config, "--compose", golden_config, f"{flag}={value}"])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cross coefficient {flag[2:].replace('-', '_')} " in captured.err
    assert "must be finite" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_transform_scale_non_finite_invalid(golden_config, capsys, value):
    assert main(["transform", golden_config, "--scale", value]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scale must be finite" in captured.err


@pytest.mark.parametrize("flag,value", [
    ("--contract", "a"), ("--contract", "1,b"), ("--scale", "abc"),
    ("--limit", "abc"), ("--limit", "1e-2,x"),
])
def test_transform_unparseable_number_usage(golden_config, capsys, flag, value):
    assert main(["transform", golden_config, flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err and repr(value) in captured.err


def test_transform_two_form(golden_config, tmp_path, capsys):
    spec = {
        "type": "table",
        "values": {
            key: {"re": 2.0, "im": 0.0}
            for key in ("1,2", "1,3", "1,4", "2,3", "2,4")
        },
    }
    code = main(
        ["transform", golden_config, "--two-form", _write(tmp_path, "g.json", spec)]
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["residual"] < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_transform_two_form_missing_coupled_pair_invalid(tmp_path, capsys, seed):
    from dynrmat.partition import nd_pairs
    from dynrmat.sampling import random_datum

    p, c = random_datum(4, np.random.default_rng(seed), "trivial")
    assert (3, 4) in nd_pairs(p)
    spec = {
        "type": "table",
        "values": {
            key: {"re": 2.0, "im": 0.0}
            for key in ("1,2", "1,3", "1,4", "2,3", "2,4")
        },
    }
    cfg = _write(tmp_path, "d.json", params_to_json(c))
    code = main(["transform", cfg, "--two-form", _write(tmp_path, "g.json", spec)])
    assert code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no entry for coupled pair (3, 4)" in captured.err


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("command", ["build", "verify", "classify", "hecke", "--two-form"])
def test_non_finite_two_form_table_constant_invalid(golden_config, tmp_path, capsys,
                                                    command, value):
    spec = {
        "type": "table",
        "values": {
            key: {"re": 1.0, "im": 0.0}
            for key in ("1,2", "1,3", "1,4", "2,3", "2,4")
        },
    }
    spec["values"]["1,3"] = {"re": value, "im": 0.0}
    if command == "--two-form":
        argv = ["transform", golden_config, command, _write(tmp_path, "g.json", spec)]
    else:
        obj = json.loads(open(golden_config).read())
        obj["two_form"] = spec
        argv = [command, _write(tmp_path, "d.json", obj)]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2-form table entry (1,3) must be finite" in captured.err


def test_transform_twist(golden_config, tmp_path, capsys):
    spec = {
        "potentials": {
            "1": {"lin": [0.2, 0.0, 0.0, 0.0]},
            "3": {"const": 1.0, "quad": [0.0, 0.0, 0.1, 0.0]},
        }
    }
    code = main(
        ["transform", golden_config, "--twist", _write(tmp_path, "b.json", spec)]
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["residual"] < 1e-9


@pytest.mark.parametrize("spec", [[1, 2], "potentials", 5])
def test_transform_twist_file_not_an_object_invalid(golden_config, tmp_path, capsys, spec):
    argv = ["transform", golden_config, "--twist", _write(tmp_path, "b.json", spec)]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err == (
        'invalid input: a --twist file is an object {"potentials": {...}}\n')


def test_hecke_single_d_class_line(tmp_path, capsys):
    p = single_class_partition(3)
    c = ClassificationParams(partition=p, per_block=(BlockConstants(0j, 4 + 0j),),
                             signs={(1, 2, 3): 1}, f_consts={(1, 2, 3): 0j})
    assert main(["hecke", _write(tmp_path, "single.json", params_to_json(c))]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("DegenerateSingleDClass value=2\n")
    assert json.loads(out.split("\n", 1)[1])["kind"] == "DegenerateSingleDClass"


@pytest.mark.parametrize("key", ["0", "-1", "5", "x", "1.5", "+1", " 1"])
@pytest.mark.parametrize("command", ["build", "twist"])
def test_exact_potential_bad_key_invalid(golden_config, tmp_path, capsys, key, command):
    pots = {"1": {"lin": [0.2, 0.0, 0.0, 0.0]}, key: {"lin": [0.1, 0.0, 0.0, 0.0]}}
    argv = _exact_argv(golden_config, tmp_path, command, pots)
    assert main(argv) == EXIT_INVALID
    assert f"potential key '{key}' is not an index 1..4" in capsys.readouterr().err


@pytest.mark.parametrize("key", [" 3,+4", "03,4", "3 ,4", "\u0663,4"])
@pytest.mark.parametrize("field, what", [("signs", "d-class"), ("f", "d-class"),
                                         ("two_form", "2-form table")])
def test_index_keys_are_read_strictly(golden_config, tmp_path, capsys, key, field, what):
    """A d-class or 2-form table key is comma-joined ASCII digits, without a
    sign, a space or a leading zero: a key that ``int()`` would read as
    (3, 4) in another spelling is named, not read."""
    obj = json.loads(open(golden_config).read())
    if field == "two_form":
        obj["two_form"] = {"type": "table", "values": {key: {"re": 2.0, "im": 0.0}}}
    else:
        obj[field][key] = obj[field].pop("3,4")
    assert main(["build", _write(tmp_path, "keys.json", obj)]) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"invalid input: bad {what} key {key!r}\n")


@pytest.mark.parametrize("command", ["build", "twist"])
def test_exact_potential_nan_coefficient_invalid(golden_config, tmp_path, capsys, command):
    pots = {"2": {"lin": [0.2, 0.0, float("nan"), 0.0]}}
    assert main(_exact_argv(golden_config, tmp_path, command, pots)) == EXIT_INVALID
    assert "potential 2: lin[3] must be finite" in capsys.readouterr().err


def _exact_argv(golden_config, tmp_path, command, pots):
    """argv of ``build`` on the golden datum with these exact potentials,
    or of a ``transform --twist`` of the golden datum by them."""
    if command == "twist":
        return ["transform", golden_config, "--twist",
                _write(tmp_path, "b.json", {"potentials": pots})]
    obj = json.loads(open(golden_config).read())
    obj["two_form"] = {"type": "exact", "potentials": pots}
    return ["build", _write(tmp_path, "exact.json", obj)]


def test_transform_limit(golden_config, capsys):
    code = main(["transform", golden_config, "--limit", "1e-1,1e-2,1e-3"])
    assert code == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["converging"] is True
    assert len(obj["distances"]) == 3


@pytest.mark.parametrize("value", [",", "1e-2,1e-2", "0"])
def test_transform_limit_without_an_order_invalid(golden_config, capsys, value):
    """An empty sequence, repeated magnitudes and a zero show no order: they
    exit 2 with a message naming the sequence, never NaN or an empty success."""
    assert main(["transform", golden_config, f"--limit={value}"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    xi = [float(tok) for tok in value.split(",") if tok]
    assert captured.err == (
        f"invalid input: limit sequence {xi} shows no convergence order: it needs at "
        "least two finite nonzero values of one sign, no two consecutive of equal magnitude\n"
    )


def test_transform_scale(tmp_path, capsys):
    from dynrmat.params import BlockConstants, ClassificationParams, normalize_f
    from dynrmat.partition import DeltaClass, IndexPartition

    p = IndexPartition(
        n=2, blocks=((DeltaClass(free=(1,)), DeltaClass(free=(2,))),)
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 2 + 0j),),
        signs={(1,): 1, (2,): 1},
        f_consts={(1,): 1 + 0j, (2,): 1 + 0j},
    )
    c, _ = normalize_f(c)
    cfg = _write(tmp_path, "d.json", params_to_json(c))
    assert main(["transform", cfg, "--scale", "0.1"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["eta"] == 0.1
    assert set(obj["index_map"]) == {"1", "2"}
    merged = obj["params"]["partition"]["blocks"]
    assert len(merged[0]) == 1  # classes merged into one
    # g_12 = sqrt(Sigma) / (B - S) with B = 2, S = 1
    assert obj["compensator"] == {"1,2": {"re": 2 ** 0.5, "im": 0.0}}


# -- top level --------------------------------------------------------------


def test_no_subcommand_usage():
    assert main([]) == EXIT_USAGE


def test_unknown_subcommand_usage():
    assert main(["frobnicate", "x.json"]) == EXIT_USAGE


def test_parser_is_built_once_and_keeps_no_option_values(golden_config, capsys):
    build_parser.cache_clear()
    argv = ["verify", golden_config, "--samples", "3", "--seed", "5"]
    assert main(argv) == EXIT_OK
    alone = capsys.readouterr().out
    parser = build_parser()
    assert main(argv + ["--tol", "1e-3"]) == EXIT_OK
    assert '"tol": 0.001' in capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == alone
    assert build_parser() is parser
    assert main(["verify", golden_config, "--tol", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["classify", "hecke"])
def test_a_matrix_zero_at_every_sample_is_not_in_family(tmp_path, capsys, command):
    cfg = _write(tmp_path, "zero.json", all_zero_config())
    assert main([command, cfg]) == EXIT_NOT_IN_FAMILY
    assert capsys.readouterr() == ("", "not in family: matrix is identically zero at all "
                                       "samples\n")


def test_classify_ambiguous_sampled_config_not_in_family(tmp_path, capsys):
    # Delta_12 dips to 0 at two of three points and peaks just below 1e3
    # times the cut (scale 1, default tol): the zero pattern is ambiguous
    peak = np.nextafter(1e3 * 1e-8, 0)
    samples = []
    for k, v in enumerate([0.0, 0.0, peak]):
        delta = np.array([[1, v], [1, 1]], dtype=complex)
        d = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        samples.append(point_to_json(np.array([k, 0.5j]), delta, d))
    cfg = _write(tmp_path, "m.json", {"kind": "matrix", "n": 2, "samples": samples})
    assert main(["classify", cfg]) == EXIT_NOT_IN_FAMILY
    assert capsys.readouterr() == ("", "not in family: Delta_12 is below threshold at some "
                                       "samples but never far above it; add samples or move them\n")
