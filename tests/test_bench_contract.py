"""The benchmark's traced run wraps library functions by name; every name it
lists must exist, or ``bench/run.py --trace 1`` fails before measuring."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dynrmat

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans_contract", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span,target", sorted(_targets().items()))
def test_traced_name_resolves_in_library(span, target):
    modname, attr = target
    module = importlib.import_module(modname)
    package_dir = Path(dynrmat.__file__).resolve().parent
    assert Path(module.__file__).resolve().parent == package_dir, span
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is missing"
