"""The README's command-line contract matches the program: its exit-code
table lists the codes ``dynrmat.cli`` exits with, its synopsis block lists
each subcommand with the flags its parser takes, and the error texts it
quotes by example are the program's."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dynrmat import build, cli
from dynrmat.errors import ParameterError
from dynrmat.rmatrix import point_to_json
from dynrmat.serialize import params_to_json, parse_config
from dynrmat.verifier import sample_lambda

from conftest import golden_datum

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_exit_code_table_lists_the_cli_exit_codes():
    table = _section("Command line").split("Exit codes:", 1)[1]
    codes = [int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.MULTILINE)]
    exits = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(codes) == sorted(exits.values()), exits


def test_help_lists_the_exit_codes_of_the_readme_table(capsys):
    """``dynrmat --help`` prints the module docstring of ``dynrmat.cli``,
    whose sentence "Exit codes: 0 success, 1 ..." lists the same codes as
    the README's table."""
    table = _section("Command line").split("Exit codes:", 1)[1]
    codes = [int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.MULTILINE)]
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    sentence = " ".join(capsys.readouterr().out.split()).split("Exit codes: ", 1)[1]
    listed = [int(code) for code in re.findall(r"(\d+) [a-z]", sentence.split(".", 1)[0])]
    assert listed == sorted(codes), sentence


def test_exit_code_table_names_the_pole_messages():
    row = next(line for line in README.splitlines() if line.startswith("| 3 "))
    assert "`pole: could not find N well-conditioned sample points in 2000 draws`" in row
    assert "`pole: no well-conditioned reference point found`" in row


def _synopsis() -> dict[str, set[str]]:
    block = _section("Command line").split("```\n", 1)[1].split("```", 1)[0]
    flags: dict[str, set[str]] = {}
    for line in block.splitlines():
        head = re.match(r"dynrmat (\w+)", line)
        if head:
            command = head.group(1)
            flags[command] = set()
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def _parser_flags() -> dict[str, set[str]]:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in parser._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, parser in sub.choices.items()
    }


def test_synopsis_lists_every_subcommand_with_its_flags():
    assert _synopsis() == _parser_flags()


def test_quoted_lambda_error_is_what_build_prints(tmp_path, capsys):
    quote = "lambda component 2 is not finite: (nan+0j)"
    assert f"`{quote}`" in README
    config = tmp_path / "golden.json"
    config.write_text(json.dumps(params_to_json(golden_datum()[1])))
    assert cli.main(["build", str(config), "--lambda", "0,nan,0,0"]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == f"invalid input: {quote}\n"


def _samples() -> list[dict]:
    R = build(*golden_datum())
    return [point_to_json(lam, *R.tables(lam))
            for lam in sample_lambda(R, np.random.default_rng(0), 4)]


def _bad_lambda(samples):
    samples[3]["lambda"][1] = {"re": 0.5, "im": float("nan")}


def _bad_index(samples):
    samples[1]["entries"].insert(3, {"row": [1, 5], "col": [5, 1], "re": 1.0, "im": 0.0})


@pytest.mark.parametrize("spoil,quote", [
    (_bad_lambda, "sample 3: lambda component 2 is not finite: (0.5+nanj)"),
    (_bad_index, "sample 1: entry 3: row [1, 5], col [5, 1] has a factor index outside 1..4"),
])
def test_quoted_sampled_config_errors_are_what_parsing_raises(spoil, quote):
    assert f"`{quote}`" in " ".join(README.split())
    samples = _samples()
    spoil(samples)
    with pytest.raises(ParameterError) as err:
        parse_config({"kind": "matrix", "n": 4, "samples": samples})
    assert str(err.value) == quote
