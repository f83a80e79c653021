"""Config parsing of exact 2-forms and sampled matrices, and sample keys."""

import json
import math
import re

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.errors import NotInFamilyError, ParameterError, PoleError
from dynrmat.params import (
    ExactTwoForm,
    QuadraticExactTwoForm,
    TableTwoForm,
    constant_table_two_form,
)
from dynrmat.rmatrix import (
    ZERO_WEIGHT_TOL,
    composite_index,
    dense_point_to_json,
    evaluate,
    stencil_points,
)
from dynrmat.sampling import random_datum, random_two_form
from dynrmat.serialize import (
    SampledTables,
    matrix_from_samples,
    parse_config,
    sample_keys,
    two_form_from_json,
    two_form_to_json,
)

from conftest import golden_datum, random_points
from sampled_oracle import dense_point_from_json, oracle_sampled_tables


def test_sample_keys_equal_per_point_keys():
    rng = np.random.default_rng(4)
    lams = np.array(random_points(rng, 5, 20, box=3.0))
    # components at the rounding boundary, signed zeros and unit shifts
    lams[0] = [1e-13, -1e-13, -0.0, 0.5e-12, complex(2.0000000000005, -1e-13)]
    lams[1] = [-1e-13, 1e-13, 0.0, 0.5e-12, complex(2.0000000000005, 1e-13)]
    stack = np.concatenate([lams, stencil_points(lams).reshape(-1, 5)])
    keys = sample_keys(stack)
    assert keys == [sample_keys(lam[None])[0] for lam in stack]
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


def test_table_two_form_is_read_from_one_table_and_its_poles_raise():
    calls = []

    def g_12(lam):
        calls.append(lam)
        return 1e-14 if lam[0] == 1 else 2 + 0.5j

    g = TableTwoForm(g={(1, 2): g_12, (1, 3): lambda lam: 1 / lam[2], (2, 3): lambda lam: -1j})
    probe = np.array([0.5, 0, 0.25j])
    assert two_form_to_json(g, 3, probe) == {
        "type": "table",
        "values": {"1,2": {"re": 2.0, "im": 0.5}, "1,3": {"re": 0.0, "im": -4.0},
                   "2,3": {"re": -0.0, "im": -1.0}},
        "sampled_at": [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.0},
                       {"re": 0.0, "im": 0.25}],
    }
    assert len(calls) == 1
    # a value below POLE_GUARD, or a non-finite one, is a pole of the table
    with pytest.raises(PoleError, match=r"entry \(1,2\) is not finite"):
        two_form_to_json(g, 3, np.array([1, 0, 0.25j]))
    with pytest.raises(ParameterError, match=r"origin of C\^3 is a pole of the 2-form at pair \(1,3\)"):
        two_form_to_json(g, 3)
    with pytest.raises(ParameterError, match=r"keys must be pairs i < j of 1..3, got \[\(2, 1\)\]"):
        two_form_to_json(TableTwoForm(g={(2, 1): lambda lam: 1}), 3)


@pytest.mark.parametrize("probe", [None, np.array([0.5, 0, 0.25j])], ids=["origin", "probe"])
def test_constant_below_the_pole_guard_is_named(probe):
    """A constant below POLE_GUARD is a pole at every point, so no probe
    point helps: with or without one, the error names the constant."""
    g = constant_table_two_form({(1, 2): 2 + 0j, (1, 3): 0j, (2, 3): 1j})
    with pytest.raises(ParameterError, match=r"^2-form constant 0j at pair \(1,3\) is below "
                       r"POLE_GUARD in modulus: a pole at every point$"):
        two_form_to_json(g, 3, probe)


def test_missing_potentials_are_one():
    g = two_form_from_json({"type": "exact", "potentials": {"2": {"lin": [0.5, 0, 0]}}}, 3)
    assert np.array_equal(g.lin, [[0, 0, 0], [0.5, 0, 0], [0, 0, 0]])
    assert not g.const.any() and not g.quad.any()


@pytest.mark.parametrize("key", ["0", "-1", "5", "x", "1.5", "+1", " 1", "01", "1,2", "١"])
def test_exact_potential_key_outside_one_to_n_invalid(key):
    obj = {"type": "exact", "potentials": {key: {"lin": [0.1, 0, 0, 0]}}}
    with pytest.raises(ParameterError, match=rf"potential key '{re.escape(key)}' is not an index 1\.\.4"):
        two_form_from_json(obj, 4)


def test_exact_potential_bad_arrays_invalid():
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
    with pytest.raises(ParameterError, match=re.escape("sample 0: " + msg)):
        parse_config({"kind": "matrix", "n": 4, "samples": [obj]})


@pytest.mark.parametrize("entry", [{"row": [1, 2], "col": [2]}, {"row": [1.5, 2], "col": [2, 1]},
                                   {"row": [1, 2], "col": [2, 1], "re": "x", "im": 0},
                                   {"col": [2, 1], "re": 1, "im": 0}])
def test_dense_point_malformed_entry_invalid(entry):
    entry = {"re": 1.0, "im": 0.0, **entry}
    sample = {"n": 2, "lambda": [0, 0], "entries": [entry]}
    with pytest.raises(ParameterError, match="every entry needs a row and a col"):
        dense_point_from_json(sample)
    with pytest.raises(ParameterError, match="sample 0: every entry needs a row and a col"):
        parse_config({"kind": "matrix", "n": 2, "samples": [sample]})


# -- the one-pass stack parse against the per-sample dense oracle -----------


def _golden_samples():
    """Sample JSON of the golden datum at the five points of a stencil."""
    R = build(*golden_datum())
    pts = stencil_points(np.array([0.3 + 0.1j, -0.7, 0.2j, 1.1]))
    return [dense_point_to_json(evaluate(R, lam)) for lam in pts]


def _assert_same_stacks(obj):
    got = parse_config(obj)[1]
    want = oracle_sampled_tables(obj)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


def test_stack_parse_equals_dense_oracle_bit_for_bit():
    samples = _golden_samples()
    got = _assert_same_stacks({"kind": "matrix", "n": 4, "samples": samples})
    assert got.lams.shape == (5, 4) and got.delta.shape == got.d.shape == (5, 4, 4)
    for n, kind in [(3, "trivial"), (5, "table"), (6, "exact")]:
        rng = np.random.default_rng(n)
        R = build(*random_datum(n, rng, kind))
        pts = stencil_points(random_points(rng, n, 2)).reshape(-1, n)
        _assert_same_stacks({"kind": "matrix", "n": n,
                             "samples": [dense_point_to_json(evaluate(R, mu)) for mu in pts]})


def test_stack_parse_keeps_last_repeat_and_signed_zeros():
    samples = _golden_samples()
    for s, sample in enumerate(samples):
        entries = sample["entries"]
        first, last = dict(entries[0]), dict(entries[-1])
        # a pair written three times keeps the last value, at either end of the list
        sample["entries"] = ([dict(last, re=9.0, im=s)] + entries
                             + [dict(first, re=-0.0, im=-0.0)])
    # an exchange and a diagonal entry set to -0.0, and an explicit zero
    # outside the patterns, which stays legal
    samples[2]["entries"] += [{"row": [1, 3], "col": [3, 1], "re": -0.0, "im": 0.0},
                              {"row": [2, 4], "col": [2, 4], "re": 0.0, "im": -0.0},
                              {"row": [1, 2], "col": [1, 3], "re": 0.0, "im": 0.0}]
    got = _assert_same_stacks({"kind": "matrix", "n": 4, "samples": samples})
    i, j = (v - 1 for v in samples[0]["entries"][-1]["row"])
    assert np.signbit(got.delta[:, i, j].real).all() and np.signbit(got.delta[:, i, j].imag).all()
    assert np.signbit(got.delta[2, 0, 2].real) and np.signbit(got.d[2, 1, 3].imag)


@pytest.mark.parametrize("where", ["range", "malformed", "lambda", "size", "n", "range+lambda",
                                   "malformed+range", "missing", "missing+range", "none"])
def test_stack_parse_errors_equal_oracle(where):
    samples = _golden_samples()
    bad_range = {"row": [1, 5], "col": [5, 1], "re": 1.0, "im": 0.0}
    malformed = {"row": [1, 2], "col": [2], "re": 1.0, "im": 0.0}
    if "range" in where:
        samples[3]["entries"].insert(4, bad_range)
    if "malformed" in where:
        samples[1]["entries"].append(malformed)
    if "lambda" in where:
        samples[4 if "+" in where else 2]["lambda"].pop()
    if "missing" in where:  # an entry without "re" in the middle of sample 2
        del samples[2]["entries"][5]["re"]
    if where == "size":
        samples[1] = {**samples[1], "n": 3, "lambda": samples[1]["lambda"][:3]}
    if where == "n":
        del samples[0]["n"]
    obj = {"kind": "matrix", "n": 4, "samples": samples if where != "none" else []}
    with pytest.raises(ParameterError) as want:
        oracle_sampled_tables(obj)
    with pytest.raises(ParameterError) as got:
        parse_config(obj)
    assert str(got.value) == str(want.value)


def test_entry_outside_zero_weight_patterns_not_in_family():
    samples = _golden_samples()
    samples[3]["entries"].insert(7, {"row": [1, 2], "col": [1, 3], "re": 5.0, "im": 0.0})
    samples[4]["entries"].insert(2, {"row": [2, 1], "col": [3, 4], "re": 0, "im": 1.0})
    obj = {"kind": "matrix", "n": 4, "samples": samples}
    msg = "sample 3: entry 7: row [1, 2], col [1, 3] is outside the zero-weight pattern (|value| 5)"
    with pytest.raises(NotInFamilyError, match=re.escape(msg)):
        parse_config(obj)
    # the last value of a repeated position decides, and below the threshold counts as zero
    samples[3]["entries"].append({"row": [1, 2], "col": [1, 3], "re": 0.5 * ZERO_WEIGHT_TOL})
    samples[3]["entries"][-1]["im"] = 0.0
    with pytest.raises(NotInFamilyError, match=re.escape("sample 4: entry 2: row [2, 1], col [3, 4]")):
        parse_config(obj)
    samples[4]["entries"].append({"row": [2, 1], "col": [3, 4], "re": 0.0, "im": -0.0})
    parse_config(obj)
    for value in (ZERO_WEIGHT_TOL, float("nan")):
        samples[0]["entries"].insert(1, {"row": [3, 3], "col": [4, 4], "re": value, "im": 0.0})
        with pytest.raises(NotInFamilyError, match=re.escape("sample 0: entry 1: row [3, 3]")):
            parse_config(obj)
        samples[0]["entries"].pop(1)


@pytest.mark.parametrize("obj, msg", [
    ({"kind": "matrix", "samples": [{"n": 2, "lambda": [0, 0]}]}, 'need an integer "n"'),
    ({"kind": "matrix", "n": 2, "samples": [{"lambda": [0, 0]}]}, 'sample 0: .*integer "n"'),
    ({"kind": "matrix", "n": 2, "samples": [{"n": 2}]}, 'sample 0: a sample needs a "lambda" list'),
])
def test_sampled_matrix_missing_field_invalid(obj, msg):
    with pytest.raises(ParameterError, match=msg):
        parse_config(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_sampled_point_with_a_non_finite_component_invalid(value):
    """A point no lookup can find is named, sample and component, not
    dropped."""
    good = {"n": 2, "lambda": [{"re": 0.5, "im": 0.0}] * 2}
    bad = {"n": 2, "lambda": [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": value}]}
    obj = {"kind": "matrix", "n": 2, "samples": [good, bad]}
    with pytest.raises(ParameterError, match=r"sample 1: lambda component 2 is not finite"):
        parse_config(obj)


def test_sampled_lookup_reads_stacks_of_sample_points():
    p, c = golden_datum()
    R = build(p, c)
    pts = list(stencil_points(np.array([0.3 + 0.1j, -0.7, 0.2j, 1.1])))
    S = matrix_from_samples(SampledTables(np.array(pts), *R.stacked_tables(np.array(pts))))
    delta, d = S.lookup(np.array(pts[::-1]))
    want = R.lookup(np.array(pts[::-1]))
    assert np.array_equal(delta, want[0]) and np.array_equal(d, want[1])
    with pytest.raises(ParameterError, match="only evaluable at its own sample points"):
        S.lookup(np.array([pts[0] + 0.5]))


def test_sampled_lookup_matches_keys_exactly_at_12_decimals():
    """Shifts recomputed by stencil_points find the samples typed as
    decimals (-0.7 + 1 is 0.30000000000000004, not 0.3), but a point one
    ulp across a 12th-decimal rounding boundary from a sample is not
    found: 0.3000000000005 has the key 0.3, its next float up the key
    0.300000000001."""
    R = build(*golden_datum())
    base = np.array([-0.7, 0.7j, -0.9, 0.5 + 0.5j])
    stored = np.array([[-0.7, 0.7j, -0.9, 0.5 + 0.5j], [0.3, 0.7j, -0.9, 0.5 + 0.5j],
                       [-0.7, 1 + 0.7j, -0.9, 0.5 + 0.5j], [-0.7, 0.7j, 0.1, 0.5 + 0.5j],
                       [-0.7, 0.7j, -0.9, 1.5 + 0.5j]])
    shifts = stencil_points(base)
    assert shifts.tobytes() != stored.tobytes()
    S = matrix_from_samples(SampledTables(stored, *R.stacked_tables(stored)))
    got = S.stacked_tables(shifts)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, R.stacked_tables(stored)))
    edge = np.array([0.3000000000005, 0.7j, -0.9, 0.5 + 0.5j])
    up = edge.copy()
    up[0] = math.nextafter(0.3000000000005, 1)
    assert sample_keys([edge, up]) == [(0.3, 0.7j, -0.9, 0.5 + 0.5j),
                                       (0.300000000001, 0.7j, -0.9, 0.5 + 0.5j)]
    E = matrix_from_samples(SampledTables(edge[None], *R.stacked_tables(edge[None])))
    assert E.tables(edge)[0].tobytes() == R.tables(edge)[0].tobytes()
    with pytest.raises(ParameterError, match="only evaluable at its own sample points"):
        E.tables(up)


def test_sampled_matrix_whose_samples_list_no_entry_parses_to_zero_tables():
    obj = {"kind": "matrix", "n": 2, "samples": [{"n": 2, "lambda": [k, 0]} for k in range(3)]}
    kind, tables = parse_config(obj)
    assert kind == "matrix" and tables.delta.shape == tables.d.shape == (3, 2, 2)
    assert not tables.delta.any() and not tables.d.any()
