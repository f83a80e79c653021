"""What the benchmark uses of the library must keep working.

Its traced run wraps library functions by name; every name it lists must
exist, or ``bench/run.py --trace 1`` fails before measuring.  Its inputs
wrap built matrices with per-entry fields; those wrappers must keep their
values and ``fresh`` its single stacked evaluation.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dynrmat
from dynrmat import verifier
from dynrmat.builder import build
from dynrmat.rmatrix import DynamicalRMatrix, raw_tables, shift_stencil, stencil_points

from conftest import golden_datum, random_points

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}_contract", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _targets() -> dict:
    return _bench_module("spans").TARGETS


@pytest.mark.parametrize("span,target", sorted(_targets().items()))
def test_traced_name_resolves_in_library(span, target):
    modname, attr = target
    module = importlib.import_module(modname)
    package_dir = Path(dynrmat.__file__).resolve().parent
    assert Path(module.__file__).resolve().parent == package_dir, span
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is missing"


def _rule_tables(R, lam, rule):
    """Per-entry reference: R's entries read one at a time, each passed
    through ``rule(part, i, j, value)`` (part 0 is the exchange table)."""
    tabs = np.zeros((2, R.n, R.n), dtype=complex)
    for part, field in enumerate((R.delta, R.d)):
        for i in range(1, R.n + 1):
            for j in range(1, R.n + 1):
                if i != j or part == 0:
                    tabs[part, i - 1, j - 1] = rule(part, i, j, field(i, j, lam))
    return tabs


@pytest.mark.parametrize("two_form", ["trivial", "exact"])
def test_input_wrappers_equal_a_per_entry_reference(two_form):
    inputs = _bench_module("inputs")
    datum = inputs.draw_datum(inputs.Template("T f2d2,f1 | R f1", two_form),
                              np.random.default_rng(5))
    R = datum.build()
    pair = inputs.coupled_pair(datum.partition)
    lams = stencil_points(np.array(random_points(np.random.default_rng(6), R.n, 3)))
    lams = lams.reshape(-1, R.n)
    factors = (lambda lam: 1.4, lambda lam: 1 + 0.3 * lam[0])
    cases = [(inputs.fresh(R), lambda part, i, j, v, lam: v),
             (inputs.one_sided_diagonal(R, pair),
              lambda part, i, j, v, lam: 0j if (part, i, j) == (1, *pair) else v)]
    for f in factors:
        cases.append((inputs.scaled_exchange(R, pair, f),
                      lambda part, i, j, v, lam, f=f: v * f(lam) if (part, i, j) == (0, *pair) else v))
    for W, rule in cases:
        got = W.stacked_tables(lams)
        for k, lam in enumerate(lams):
            want = _rule_tables(R, lam, lambda part, i, j, v: rule(part, i, j, v, lam))
            assert got[0][k].tobytes() == want[0].tobytes()
            assert got[1][k].tobytes() == want[1].tobytes()


def test_fresh_evaluates_a_stack_in_one_call_behind_its_own_cache():
    inputs = _bench_module("inputs")
    datum = inputs.draw_datum(inputs.Template("T f2d2,f1 | R f1", "exact"),
                              np.random.default_rng(5))
    inner = datum.build()
    calls = []

    def tables(lams):
        calls.append(len(lams))
        return raw_tables(inner, lams)

    R = DynamicalRMatrix.from_tables(inner.n, tables)
    lams = stencil_points(np.array(random_points(np.random.default_rng(6), R.n, 2)))
    lams = lams.reshape(-1, R.n)
    F = inputs.fresh(R)
    got = F.stacked_tables(lams)
    assert calls == [len(lams)]
    F.stacked_tables(lams)
    assert calls == [len(lams)]  # F keeps what it evaluated ...
    want = R.stacked_tables(lams)
    assert calls == [len(lams)] * 2  # ... in its own memo, not in R's
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("wrapper", ["scaled_exchange", "one_sided_diagonal"])
def test_input_wrappers_read_their_inner_matrix_from_one_stack_call(wrapper):
    """The benchmark's non-member wrappers read their inner matrix at the
    point they are given, so its pin serves every read: one table call per
    stack, and no lookup of the inner matrix."""
    inputs = _bench_module("inputs")
    datum = inputs.draw_datum(inputs.Template("T f2d2,f1 | R f1", "exact"),
                              np.random.default_rng(5))
    inner = datum.build()
    calls = []

    def tables(lams):
        calls.append(len(lams))
        return raw_tables(inner, lams)

    R = DynamicalRMatrix.from_tables(inner.n, tables)
    pair = inputs.coupled_pair(datum.partition)
    args = (lambda lam: 1 + 0.3 * lam[0],) if wrapper == "scaled_exchange" else ()
    W = getattr(inputs, wrapper)(R, pair, *args)
    lams = stencil_points(np.array(random_points(np.random.default_rng(6), R.n, 2)))
    for stack in lams:
        W.stacked_tables(stack)
    assert calls == [len(lams[0])] * len(lams)
    assert R._last is None and R._pin is None  # no lookup of R ran


def test_stencil_defect_is_the_defect_of_one_shift_stencil():
    """A traced global check can wrap ``verifier._stencil_defect``: it takes
    one stencil's (n+1, n, n) tables and gives ``dqybe_defect``'s (raw,
    scale) there."""
    assert callable(getattr(verifier, "_stencil_defect", None))
    member = build(*golden_datum())
    off = DynamicalRMatrix(member.n, lambda i, j, lam: 1.3 * member.delta(i, j, lam), member.d)
    for R in (member, off):
        for lam in random_points(np.random.default_rng(7), R.n, 3):
            got = verifier._stencil_defect(*shift_stencil(R, lam))
            assert got == verifier.dqybe_defect(R, lam)
    assert got[0] > 1e-6  # the scaled exchange table is not a solution
