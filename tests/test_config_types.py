"""Config fields of the wrong JSON type exit with code 2 and a message that
names the field, never with a traceback; no replaced field makes the CLI
raise."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrmat.builder import build
from dynrmat.cli import EXIT_INVALID, main
from dynrmat.rmatrix import dense_point_to_json, evaluate, stencil_points
from dynrmat.sampling import random_datum
from dynrmat.serialize import params_to_json, parse_config

from conftest import golden_datum

ROOT = Path(__file__).resolve().parent.parent


def _datum():
    return params_to_json(golden_datum()[1])


def _matrix():
    R = build(*golden_datum())
    pts = stencil_points(np.array([0.3 + 0.1j, -0.7, 0.2j, 1.1]))
    return {"kind": "matrix", "n": 4,
            "samples": [dense_point_to_json(evaluate(R, lam)) for lam in pts]}


def _with(obj, path, value):
    """``obj`` with the field at ``path`` (keys and list positions) replaced."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return obj


# (config, the text that names the field)
MALFORMED = {
    "top_level_list": ([1, 2], "a config must be a JSON object, got a list"),
    "samples": (_with(_matrix(), ["samples"], 5), '"samples" must be a list, got a number'),
    "entries": (_with(_matrix(), ["samples", 1, "entries"], 5),
                'sample 1: "entries" must be a list, got a number'),
    "per_block_item": (_with(_datum(), ["per_block"], [5]),
                       '"per_block" items must be objects, got a number'),
    "cross_sigma": (_with(_datum(), ["cross_sigma"], 5),
                    '"cross_sigma" must be a list, got a number'),
    "signs": (_with(_datum(), ["signs"], []), '"signs" must be an object, got a list'),
    "f": (_with(_datum(), ["f"], 5), '"f" must be an object, got a number'),
    "two_form": (_with(_datum(), ["two_form"], 5),
                 'a 2-form ("two_form") must be an object, got a number'),
    "table_values": (_with(_datum(), ["two_form"], {"type": "table", "values": []}),
                     '"values" must be an object, got a list'),
}


@pytest.mark.parametrize("command", ["verify", "classify", "hecke", "build"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_wrong_json_type_invalid_naming_field(tmp_path, capsys, name, command):
    obj, msg = MALFORMED[name]
    if command == "build" and isinstance(obj, dict) and obj["kind"] == "matrix":
        msg = "this command needs an evaluable datum config"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert err.startswith("invalid input: " + msg) and out == ""


def test_wrong_json_type_has_no_traceback_through_module_entry(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name, (obj, msg) in sorted(MALFORMED.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        proc = subprocess.run([sys.executable, "-m", "dynrmat.cli", "verify", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert "Traceback" not in proc.stderr, (name, proc.stderr)
        assert proc.returncode == EXIT_INVALID and msg in proc.stderr, (name, proc.stderr)


def _paths(obj, prefix=()):
    yield list(prefix)
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _paths(value, prefix + (k,))


def _json_kind(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


BASES = {"golden": _datum(),
         "table": params_to_json(random_datum(4, np.random.default_rng(5), "table")[1]),
         "exact": params_to_json(random_datum(3, np.random.default_rng(6), "exact")[1]),
         "matrix": _matrix()}
PATHS = {name: list(_paths(obj)) for name, obj in BASES.items()}
VALUES = [None, True, False, 0, 7, -2.5, "x", "1", [], [1, 2], {}, {"re": 1}]
COMMANDS = [["verify"], ["classify"], ["hecke"], ["build"], ["transform", "--contract", "1,2"]]


@st.composite
def _replaced(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    path = draw(st.sampled_from(PATHS[name]))
    node = BASES[name]
    for step in path:
        node = node[step]
    value = draw(st.sampled_from([v for v in VALUES if _json_kind(v) != _json_kind(node)]))
    return _with(BASES[name], path, value)


@settings(max_examples=150, deadline=None)
@given(obj=_replaced(), command=st.sampled_from(COMMANDS))
def test_field_of_wrong_type_never_raises(obj, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command[0], path, *command[1:]])
    assert code in (0, 1, 2, 3, 4), err.getvalue()


_CLASS = ["partition", "blocks", 0, 0]
# (path, value, the message): one-field edits of the golden datum, each an
# integer that is not an integral number, a list that is not a list, or a
# complex part that is not a number
STRICT = {
    "n_fraction": (["partition", "n"], 4.9, 'partition "n" must be an integer, got 4.9'),
    "n_string": (["partition", "n"], "4", 'partition "n" must be an integer, got a string'),
    "free_fraction": (_CLASS + ["free"], [1.5, 2],
                      "a partition index must be an integer, got 1.5"),
    "free_boolean": (_CLASS + ["free"], [True, 2],
                     "a partition index must be an integer, got a boolean"),
    "free_string": (_CLASS + ["free"], "12", '"free" must be a list, got a string'),
    "free_object": (_CLASS + ["free"], {"1": 0, "2": 0}, '"free" must be a list, got an object'),
    "d_class_string": (_CLASS + ["d_classes"], ["34"], "a d-class must be a list, got a string"),
    "class_string": (["partition", "blocks", 0], ["x"],
                     "an exchange class must be an object, got a string"),
    "partition_string": (["partition"], "abc", '"partition" must be an object, got a string'),
    "sign_fraction": (["signs", "3,4"], 1.5, "sign of d-class '3,4' must be an integer, got 1.5"),
    "sign_boolean": (["signs", "3,4"], True,
                     "sign of d-class '3,4' must be an integer, got a boolean"),
    "sign_string": (["signs", "3,4"], "-1",
                    "sign of d-class '3,4' must be an integer, got a string"),
    "cross_sigma_fraction": (["cross_sigma"], [[0.5, 1, 1]],
                             "cross_sigma entry [0.5, 1, 1]: a block index must be an integer, "
                             "got 0.5"),
    "Sigma_boolean": (["per_block", 0, "Sigma"], True, 'block 1 "Sigma": expected a complex'),
    "re_string": (["per_block", 0, "S"], {"re": "0.5", "im": 0}, 'block 1 "S": expected a complex'),
    "f_im_null": (["f", "3,4"], {"re": 0, "im": None}, "f of d-class '3,4': expected a complex"),
}


@pytest.mark.parametrize("name", sorted(STRICT))
def test_datum_integers_lists_and_numbers_are_read_strictly(tmp_path, capsys, name):
    path, value, msg = STRICT[name]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_with(_datum(), path, value)))
    assert main(["build", str(config)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert err.startswith("invalid input: " + msg) and out == "", err


@pytest.mark.parametrize("path, msg", [
    (["n"], 'the "n" of a sampled matrix or a sample must be an integer, got 2.7'),
    (["samples", 2, "n"], 'sample 2: the "n" of a sampled matrix or a sample must be an integer'),
], ids=["matrix", "sample"])
def test_sampled_matrix_size_is_read_strictly(tmp_path, capsys, path, msg):
    config = tmp_path / "m.json"
    config.write_text(json.dumps(_with(_matrix(), path, 2.7)))
    assert main(["classify", str(config)]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert err.startswith("invalid input: " + msg) and out == "", err


def test_integral_numbers_read_as_integers(tmp_path, capsys):
    """4.0 is the integer 4: the datum builds as with 4."""
    outs = []
    for obj in (_datum(), _with(_with(_datum(), ["partition", "n"], 4.0), ["signs", "3,4"], -1.0)):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(obj))
        assert main(["build", str(config)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_readme_datum_example_loads():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("**Datum**", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    kind, (p, c) = parse_config(json.loads(example))
    assert kind == "datum" and p.n == 4 and c.signs[(3, 4)] == -1
    build(p, c)
