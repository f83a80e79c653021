"""Config parsing of exact 2-forms and sampled matrices, and sample keys."""

import json
import re

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.errors import ParameterError
from dynrmat.params import ExactTwoForm, QuadraticExactTwoForm
from dynrmat.rmatrix import composite_index, dense_point_to_json, evaluate, stencil_points
from dynrmat.sampling import random_two_form
from dynrmat.serialize import (
    dense_point_from_json,
    matrix_from_samples,
    parse_config,
    sample_key,
    sample_keys,
    two_form_from_json,
    two_form_to_json,
)

from conftest import golden_datum, random_points


def test_sample_keys_equal_per_point_keys():
    rng = np.random.default_rng(4)
    lams = np.array(random_points(rng, 5, 20, box=3.0))
    # components at the rounding boundary, signed zeros and unit shifts
    lams[0] = [1e-13, -1e-13, -0.0, 0.5e-12, complex(2.0000000000005, -1e-13)]
    lams[1] = [-1e-13, 1e-13, 0.0, 0.5e-12, complex(2.0000000000005, 1e-13)]
    stack = np.concatenate([lams, stencil_points(lams).reshape(-1, 5)])
    keys = sample_keys(stack)
    assert keys == [sample_key(lam) for lam in stack]
    assert keys == [tuple(np.round(lam, 12)) for lam in stack]
    assert keys[0] == keys[1]


def test_exact_two_form_round_trips_bit_for_bit():
    rng = np.random.default_rng(8)
    n = 4
    g = QuadraticExactTwoForm(*(rng.normal(size=s) + 1j * rng.normal(size=s)
                                for s in (n, (n, n), (n, n))))
    obj = json.loads(json.dumps(two_form_to_json(g, n)))
    assert obj["type"] == "exact" and sorted(obj["potentials"]) == ["1", "2", "3", "4"]
    back = two_form_from_json(obj, n)
    for name in ("const", "lin", "quad"):
        assert getattr(back, name).tobytes() == getattr(g, name).tobytes()
    assert two_form_to_json(back, n) == two_form_to_json(g, n)
    with pytest.raises(ParameterError, match="coefficient form"):
        two_form_to_json(ExactTwoForm(beta=g.beta), n)


def test_random_exact_two_form_round_trips():
    from dynrmat.partition import all_free_partition

    g = random_two_form(all_free_partition(5), np.random.default_rng(2), "exact")
    back = two_form_from_json(json.loads(json.dumps(two_form_to_json(g, 5))), 5)
    assert back.lin.tobytes() == g.lin.tobytes() and back.quad.tobytes() == g.quad.tobytes()


def test_missing_potentials_are_one():
    g = two_form_from_json({"type": "exact", "potentials": {"2": {"lin": [0.5, 0, 0]}}}, 3)
    assert np.array_equal(g.lin, [[0, 0, 0], [0.5, 0, 0], [0, 0, 0]])
    assert not g.const.any() and not g.quad.any()


@pytest.mark.parametrize("key", ["0", "-1", "5", "x", "1.5"])
def test_exact_potential_key_outside_one_to_n_invalid(key):
    obj = {"type": "exact", "potentials": {key: {"lin": [0.1, 0, 0, 0]}}}
    with pytest.raises(ParameterError, match=rf"potential key '{re.escape(key)}' is not an index 1\.\.4"):
        two_form_from_json(obj, 4)


def test_exact_potential_repeated_index_and_bad_arrays_invalid():
    with pytest.raises(ParameterError, match="potential key '01' repeats index 1"):
        two_form_from_json({"type": "exact", "potentials": {"1": {}, "01": {}}}, 2)
    with pytest.raises(ParameterError, match="potential 2: coefficient arrays must have length 2"):
        two_form_from_json({"type": "exact", "potentials": {"2": {"quad": [0.1]}}}, 2)
    with pytest.raises(ParameterError, match="potential 2: lin\\[1\\] must be finite"):
        two_form_from_json({"type": "exact", "potentials": {"2": {"lin": [float("nan"), 0]}}}, 2)


def _entries_loop(obj):
    """The per-entry fill that dense_point_from_json replaces."""
    n = obj["n"]
    mat = np.zeros((n * n, n * n), dtype=complex)
    for e in obj["entries"]:
        mat[composite_index(n, *e["row"]), composite_index(n, *e["col"])] = complex(e["re"], e["im"])
    return mat


def test_dense_point_matches_per_entry_fill_and_keeps_last_repeat():
    p, c = golden_datum()
    lam = np.array([0.3 + 0.1j, -0.7, 0.2j, 1.1])
    obj = dense_point_to_json(evaluate(build(p, c), lam))
    assert np.array_equal(dense_point_from_json(obj).matrix, _entries_loop(obj))
    first = dict(obj["entries"][0])
    # a pair written three times keeps the last value, at either end of the list
    obj["entries"] = ([dict(first, re=1.0, im=0.0)] + obj["entries"]
                      + [dict(first, re=-0.0, im=2.5)])
    got = dense_point_from_json(obj).matrix
    assert np.array_equal(got, _entries_loop(obj))
    slot = composite_index(4, *first["row"]), composite_index(4, *first["col"])
    assert got[slot].real == 0 and np.signbit(got[slot].real) and got[slot].imag == 2.5


@pytest.mark.parametrize("row, col", [([1, 5], [5, 1]), ([0, 2], [2, 0]), ([1, -1], [1, 1]),
                                      ([5, 1], [1, 5])])
def test_dense_point_index_outside_one_to_n_invalid(row, col):
    p, c = golden_datum()
    obj = dense_point_to_json(evaluate(build(p, c), np.array([0.3, -0.7, 0.2j, 1.1])))
    obj["entries"].insert(2, {"row": row, "col": col, "re": 1.0, "im": 0.0})
    msg = f"entry 2: row {row}, col {col} has a factor index outside 1..4"
    with pytest.raises(ParameterError, match=re.escape(msg)):
        dense_point_from_json(obj)


@pytest.mark.parametrize("entry", [{"row": [1, 2], "col": [2]}, {"row": [1.5, 2], "col": [2, 1]},
                                   {"row": [1, 2], "col": [2, 1], "re": "x", "im": 0},
                                   {"col": [2, 1], "re": 1, "im": 0}])
def test_dense_point_malformed_entry_invalid(entry):
    entry = {"re": 1.0, "im": 0.0, **entry}
    with pytest.raises(ParameterError, match="every entry needs a row and a col"):
        dense_point_from_json({"n": 2, "lambda": [0, 0], "entries": [entry]})


@pytest.mark.parametrize("obj, msg", [
    ({"kind": "matrix", "samples": [{"n": 2, "lambda": [0, 0]}]}, 'need an integer "n"'),
    ({"kind": "matrix", "n": 2, "samples": [{"lambda": [0, 0]}]}, 'sample 0: .*integer "n"'),
    ({"kind": "matrix", "n": 2, "samples": [{"n": 2}]}, 'sample 0: a sample needs a "lambda" list'),
])
def test_sampled_matrix_missing_field_invalid(obj, msg):
    with pytest.raises(ParameterError, match=msg):
        parse_config(obj)


def test_sampled_lookup_reads_stacks_of_sample_points():
    p, c = golden_datum()
    R = build(p, c)
    pts = list(stencil_points(np.array([0.3 + 0.1j, -0.7, 0.2j, 1.1])))
    S = matrix_from_samples([evaluate(R, lam) for lam in pts])
    delta, d = S.lookup(np.array(pts[::-1]))
    want = R.lookup(np.array(pts[::-1]))
    assert np.array_equal(delta, want[0]) and np.array_equal(d, want[1])
    with pytest.raises(ParameterError, match="only evaluable at its own sample points"):
        S.lookup(np.array([pts[0] + 0.5]))
