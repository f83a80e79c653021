"""The full stdout of ``build --lambda`` and of every ``transform`` mode,
byte for byte, on the golden datum, on a two-block datum for ``--scale``, and on
``random_datum(5, default_rng(1), "exact")``, as recorded in
tests/golden/; and the same bytes with every dense helper and dense
determinant refused, since points and limit distances are written from
coefficient tables.  ``verify`` on a datum and on a sampled config writes
the same bytes with them refused, too."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.cli import EXIT_OK, main
from dynrmat.rmatrix import point_to_json, stencil_points
from dynrmat.sampling import random_datum
from dynrmat.serialize import params_to_json
from dynrmat.verifier import sample_lambda

from conftest import golden_datum

GOLDEN_DIR = Path(__file__).parent / "golden"

EXACT_LAMBDA = "0.3+0.1i,-0.7,1.1-0.4i,0.2i,-1.3"

def _sampled_golden():
    """The golden member as a sampled config on the shift stencils of two
    points."""
    R = build(*golden_datum())
    base = sample_lambda(R, np.random.default_rng(0), 2)
    points = stencil_points(np.array(base)).reshape(-1, R.n)
    return {"kind": "matrix", "n": R.n,
            "samples": [point_to_json(mu, *R.tables(mu)) for mu in points]}


INPUTS = {
    "golden": lambda: params_to_json(golden_datum()[1]),
    "sampled": _sampled_golden,
    "exact": lambda: params_to_json(random_datum(5, np.random.default_rng(1), "exact")[1]),
    # one two-class trigonometric block, and one single-class rational block
    # whose f carries a signed zero
    "mixed": lambda: {
        "kind": "datum",
        "partition": {"n": 6, "blocks": [
            [{"free": [], "d_classes": [[1, 2]]}, {"free": [3], "d_classes": []}],
            [{"free": [4], "d_classes": [[5, 6]]}]]},
        "per_block": [{"S": {"re": 1.0, "im": 0.5}, "Sigma": {"re": 0.75, "im": -0.25}},
                      {"S": {"re": 0.0, "im": 0.0}, "Sigma": {"re": 2.0, "im": 0.0}}],
        "cross_sigma": [[0, 1, {"re": 1.5, "im": 0.25}]],
        "signs": {"1,2": 1, "3": 1, "4": 1, "5,6": -1},
        "f": {"1,2": {"re": 1.0, "im": 0.0}, "3": {"re": 1.0, "im": 0.0},
              "4": {"re": 0.0, "im": 0.0}, "5,6": {"re": 0.7, "im": -0.0}},
        "two_form": {"type": "trivial"}},
    "twist4": lambda: {"potentials": {
        "1": {"lin": [0.2, 0.0, 0.0, 0.0]},
        "3": {"const": 1.0, "quad": [0.0, 0.0, 0.1, 0.0]},
    }},
    "twist5": lambda: {"potentials": {
        "2": {"const": {"re": 0.5, "im": -0.25}, "lin": [0.1, 0, -0.2, 0, 0.3]},
        "5": {"quad": [0, 0.05, 0, 0, -0.1]},
    }},
    "form4": lambda: {"type": "table", "values": {
        key: {"re": 2.0, "im": 0.0} for key in ("1,2", "1,3", "1,4", "2,3", "2,4")
    }},
    "form5": lambda: {"type": "table", "values": {
        f"{i},{j}": {"re": 1.0 + 0.25 * i, "im": 0.5 - 0.125 * j}
        for i in range(1, 6) for j in range(i + 1, 6)
    }},
}

#: golden file stem -> argv, with input names standing for their files
CASES = {
    "build_golden": ["build", "golden", "--lambda", "1,2,0.5,0.25"],
    "build_exact": ["build", "exact", "--lambda", EXACT_LAMBDA],
    "transform_twist_golden": ["transform", "golden", "--twist", "twist4"],
    "transform_twist_exact": ["transform", "exact", "--twist", "twist5",
                              "--lambda", EXACT_LAMBDA],
    "transform_two_form_golden": ["transform", "golden", "--two-form", "form4"],
    "transform_two_form_exact": ["transform", "exact", "--two-form", "form5", "--seed", "3"],
    "transform_contract_golden": ["transform", "golden", "--contract", "1,2",
                                  "--lambda", "1,2.5"],
    "transform_contract_exact": ["transform", "exact", "--contract", "2,4,5"],
    "transform_compose_golden": ["transform", "golden", "--compose", "golden",
                                 "--g-ab", "2", "--g-ba", "0.5"],
    "transform_compose_exact": ["transform", "exact", "--compose", "golden",
                                "--g-ab", "1+0.5j", "--g-ba", "-0.75"],
    "transform_scale_golden": ["transform", "golden", "--scale", "0.1"],
    "transform_scale_mixed": ["transform", "mixed", "--scale", "0.1"],
    "transform_limit_golden": ["transform", "golden", "--limit", "1e-1,1e-2,1e-3"],
    "transform_limit_golden_negative": ["transform", "golden", "--limit=-0.5,-0.05,-0.004"],
}


@pytest.fixture
def argv_of(tmp_path):
    paths = {}
    for name, make in INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(make()))
        paths[name] = str(path)
    return lambda argv: [paths.get(tok, tok) for tok in argv]


def _refuse_dense(monkeypatch):
    """Make every dense helper and dense determinant raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the output went through a dense matrix")

    for name, module in list(sys.modules.items()):
        if name == "dynrmat" or name.startswith("dynrmat."):
            for attr in ("dense_from_tables", "tables_from_dense", "evaluate"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_pinned(argv_of, capsys, case):
    assert main(argv_of(CASES[case])) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN_DIR / f"{case}.out").read_text()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_needs_no_dense_matrix(argv_of, monkeypatch, capsys, case):
    _refuse_dense(monkeypatch)
    assert main(argv_of(CASES[case])) == EXIT_OK, capsys.readouterr().err
    assert capsys.readouterr().out == (GOLDEN_DIR / f"{case}.out").read_text()


@pytest.mark.without_dense_oracle
@pytest.mark.parametrize("config", ["golden", "exact", "sampled"])
def test_verify_needs_no_dense_matrix(argv_of, monkeypatch, capsys, config):
    argv = argv_of(["verify", config, "--seed", "7"])
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr()
    _refuse_dense(monkeypatch)
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    assert capsys.readouterr() == expected
