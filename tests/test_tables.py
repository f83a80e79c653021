"""Whole-table coefficient evaluation against the per-entry closure oracle.

The builder, the transforms and sampled matrices fill n x n tables with
numpy; ``closure_oracle`` keeps the per-entry closures they replaced.
Values may differ in the last bits (numpy's complex ``*`` and ``exp``
round differently from Python's and ``cmath``'s), so tables must agree to
``ULPS`` units in the last place of the table's scale, and poles must fire
at exactly the same points, naming the same first pair.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.classifier import classify, recover_params
from dynrmat.errors import PoleError
from dynrmat.hecke import hecke_classify
from dynrmat.params import (
    BlockConstants,
    ClassificationParams,
    ExactTwoForm,
    QuadraticExactTwoForm,
    TableTwoForm,
    TrivialTwoForm,
    constant_table_two_form,
    derive,
    normalize_f,
)
from dynrmat.partition import DeltaClass, IndexPartition
from dynrmat.rmatrix import (
    DynamicalRMatrix,
    evaluate,
    raw_tables,
    shift_stencil,
    shifted,
    stencil_points,
)
from dynrmat.sampling import random_datum, random_two_form
from dynrmat.serialize import SampledTables, matrix_from_samples, two_form_from_json
from dynrmat.transforms import (
    apply_2form,
    apply_twist,
    check_closed,
    contract,
    decouple_compose,
)
from dynrmat.verifier import sample_lambda

from closure_oracle import (
    OraclePole,
    oracle_2form,
    oracle_build,
    oracle_compose,
    oracle_contract,
    oracle_exact_table,
    oracle_pair_table,
    oracle_potential,
    oracle_recovered_two_form,
    oracle_samples,
    oracle_tables,
    oracle_twist,
    oracle_two_form,
)
from conftest import golden_datum, overflow_datum, random_points, relabelled

#: Allowed difference in units of eps times the largest |coefficient|; near
#: a pole the exchange coefficient amplifies last-bit differences of its
#: denominator, which reached 24 units on random data.
ULPS = 64
EPS = np.finfo(float).eps


def outcome(tables_of, lam):
    """("pole", first pair) or ("tables", (delta, d))."""
    try:
        return "tables", tables_of(lam)
    except OraclePole as exc:
        return "pole", exc.pair
    except PoleError as exc:
        found = re.search(r"pair \((\d+),(\d+)\)", str(exc))
        assert found, f"PoleError names no pair: {exc}"
        return "pole", (int(found.group(1)), int(found.group(2)))


def assert_same(R, O, points, values=True):
    """R (tables) and the oracle O agree at every point: the same pole
    pair, or tables within ULPS of their scale.  ``values=False`` skips
    the value comparison, for points within 1e-12 of a pole, where a
    last-bit difference of a denominator moves the coefficient by its
    relative size, up to 1e-4."""
    for lam in points:
        lam = np.asarray(lam, dtype=complex)
        kind, new = outcome(R.tables, lam)
        okind, old = outcome(lambda mu: oracle_tables(O, mu), lam)
        assert (kind, kind == "pole" and new) == (okind, okind == "pole" and old), lam
        if kind == "tables" and values:
            scale = max(1.0, *(float(np.abs(t).max()) for t in old))
            for a, b in zip(new, old):
                assert np.abs(a - b).max() <= ULPS * EPS * scale


def assert_same_entry_poles(R, O, lam):
    """Per-entry calls raise PoleError exactly where the oracle's do."""
    for name in ("delta", "d"):
        for i in range(1, R.n + 1):
            for j in range(1, R.n + 1):
                raised = []
                for M in (R, O):
                    try:
                        getattr(M, name)(i, j, lam)
                        raised.append(False)
                    except PoleError:
                        raised.append(True)
                assert raised[0] == raised[1], (name, i, j)


def _datum(n, kind, seed):
    rng = np.random.default_rng(seed)
    p, c = random_datum(n, rng, kind)
    return rng, p, c


# -- agreement ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["trivial", "table", "exact"])
@pytest.mark.parametrize("n", range(1, 9))
def test_builder_tables_match_oracle(n, kind):
    for seed in range(3):
        rng, p, c = _datum(n, kind, seed)
        O = oracle_build(p, c)
        assert_same(build(p, c), O, sample_lambda(O, rng, 3))


def _transformed(mode, n, seed):
    """(new matrix, oracle matrix, points) for one transform mode."""
    rng, p, c = _datum(n, "trivial", seed)
    R, O = build(p, c), oracle_build(p, c)
    if mode == "twist":
        beta = random_two_form(p, rng, "exact").beta
        return apply_twist(R, beta), oracle_twist(O, beta), None
    if mode in ("table_2form", "exact_2form"):
        g = random_two_form(p, rng, mode.split("_")[0])
        return apply_2form(R, g), oracle_2form(O, g, p), None
    if mode == "contract":
        k = int(rng.integers(1, n + 1))
        subset = tuple(sorted(int(i) for i in rng.choice(np.arange(1, n + 1), k, replace=False)))
        return contract(R, subset), oracle_contract(O, subset), None
    if mode == "chain":
        g = random_two_form(p, rng, "table")
        beta = random_two_form(p, rng, "exact").beta
        subset = tuple(range(1, n + 1, 2)) or (1,)
        new = contract(apply_twist(apply_2form(R, g), beta), subset)
        old = oracle_contract(oracle_twist(oracle_2form(O, g, p), beta), subset)
        return new, old, None
    if mode == "compose":
        _, p2, c2 = _datum(max(1, n - 2), "table", seed + 100)
        g_ab, g_ba = 1.5 - 0.5j, 0.25 + 1j
        return (decouple_compose(R, build(p2, c2), g_ab, g_ba),
                oracle_compose(O, oracle_build(p2, c2), g_ab, g_ba), None)
    assert mode == "sampled"
    (lam,) = sample_lambda(O, rng, 1)
    pts = [lam] + [shifted(lam, k) for k in range(1, n + 1)]
    stack = np.array(pts)
    return (matrix_from_samples(SampledTables(stack, *R.stacked_tables(stack))),
            oracle_samples([evaluate(R, mu) for mu in pts]), pts)


@pytest.mark.parametrize(
    "mode",
    ["twist", "table_2form", "exact_2form", "contract", "chain", "compose", "sampled"],
)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_transform_tables_match_oracle(mode, n):
    for seed in range(2):
        new, old, points = _transformed(mode, n, seed)
        if points is None:
            points = sample_lambda(old, np.random.default_rng(seed + 50), 3)
        assert_same(new, old, points)


@pytest.mark.parametrize("kind", ["trivial", "table", "exact"])
def test_stacked_tables_equal_single_point_tables_bit_for_bit(kind):
    """A point's tables do not depend on the stack it is evaluated in."""
    for n in (3, 6, 9):
        for mode in ("chain", "compose"):
            rng, p, c = _datum(n, kind, n)
            if mode == "chain":
                g = random_two_form(p, rng, "table")
                beta = random_two_form(p, rng, "exact").beta
                make = lambda: contract(apply_twist(apply_2form(build(p, c), g), beta),
                                        tuple(range(1, n)))
                m = n - 1
            else:
                _, p2, c2 = _datum(4, "exact", n + 1)
                make = lambda: decouple_compose(build(p, c), build(p2, c2), 2, 0.5j)
                m = n + 4
            lams = np.array(random_points(rng, m, 12, box=3.0))
            stacked = make().lookup(stencil_points(lams).reshape(-1, m))
            single = make()
            for k, lam in enumerate(stencil_points(lams).reshape(-1, m)):
                for got, want in zip(stacked, single.lookup(lam[None])):
                    assert np.array_equal(got[k], want[0], equal_nan=True)


def test_sampled_tables_equal_oracle_exactly():
    p, c = golden_datum()
    R = build(p, c)
    lam = np.array([0.3 + 0.1j, -0.7, 0.2j, 1.1], dtype=complex)
    dense = [evaluate(R, mu) for mu in [lam] + [shifted(lam, k) for k in range(1, 5)]]
    lams = np.array([pt.lam for pt in dense])
    new = matrix_from_samples(SampledTables(lams, *R.stacked_tables(lams)))
    old = oracle_samples(dense)
    for pt in dense:
        for a, b in zip(new.tables(pt.lam), oracle_tables(old, pt.lam)):
            assert np.array_equal(a, b)


# -- pole set ----------------------------------------------------------------

#: Offsets of one lambda component around a pole: on it, 1e-14 and 5e-14
#: off (inside the 1e-13 pole guard), 2e-13 and 1e-12 off (outside).
OFFSETS = (0.0, 1e-14, -1e-14, 1e-14j, 5e-14, -2e-13, 1e-12, -1e-12j)


def _around(lam, k):
    """``lam`` with component k (1-based) moved by each of OFFSETS."""
    out = []
    for off in OFFSETS:
        mu = np.array(lam, dtype=complex)
        mu[k - 1] += off
        out.append(mu)
    return out


def _params(p, per_block, signs, f, two_form=None):
    c = ClassificationParams(partition=p, per_block=per_block, signs=signs, f_consts=f,
                             two_form=two_form or TrivialTwoForm())
    return normalize_f(c)[0]


def _free_block(n, S, Sigma, signs, f, two_form=None):
    """One block, one exchange class of n free indices."""
    p = IndexPartition(n=n, blocks=((DeltaClass(free=tuple(range(1, n + 1))),),))
    c = _params(p, (BlockConstants(S, Sigma),),
                {(i,): s for i, s in enumerate(signs, start=1)},
                {(i,): v for i, v in enumerate(f, start=1)}, two_form)
    return p, c


def _check_poles(R, O, points):
    assert_same(R, O, points, values=False)
    kinds = [outcome(lambda mu: oracle_tables(O, mu), lam)[0] for lam in points]
    assert "pole" in kinds and "tables" in kinds  # the offsets straddle the guard
    for lam in points:
        assert_same_entry_poles(R, O, lam)


def test_rational_pole_set():
    p, c = golden_datum()
    R, O = build(p, c), oracle_build(p, c)
    base = np.array([0.4 + 0.2j, 0.0, 0.3 - 0.1j, -0.6 + 0.5j])
    # pair (2,3): x = lam2 + lam3 + lam4 = 0; pair (1,2): lam1 = lam2
    on_23 = base.copy()
    on_23[1] = -(base[2] + base[3])
    on_12 = base.copy()
    on_12[1] = base[0]
    _check_poles(R, O, _around(on_23, 2) + _around(on_12, 2))


def test_trigonometric_pole_set():
    f = (1.0, 0.7 + 0.3j, 1.4 - 0.2j)
    p, c = _free_block(3, 1 + 0.2j, 0.5 - 0.1j, (1, 1, -1), f)
    R, O = build(p, c), oracle_build(p, c)
    A = derive(1 + 0.2j, 0.5 - 0.1j).log_ratio
    # pair (2,3): e^{A x} f2/f3 = 1 with x = lam2 + lam3
    x = np.log(f[2] / f[1]) / A
    lam = np.array([0.25 - 0.3j, x - 0.3, 0.3])
    _check_poles(R, O, _around(lam, 2))


def test_vanishing_potential_pole_set():
    beta = {
        1: lambda lam: np.exp(0.2 * lam[2]),
        2: lambda lam: lam[0] + 0.5,      # beta_2(lam + e_1) = 0 at lam1 = -1.5
        3: lambda lam: lam[1] - 0.3,      # beta_3(lam) = 0 at lam2 = 0.3
    }
    p, c = _free_block(3, 0j, 1 + 0.5j, (1, -1, 1), (0, 0.3, -0.2),
                       ExactTwoForm(beta=beta))
    R, O = build(p, c), oracle_build(p, c)
    at_12 = np.array([-1.5, 0.7 + 0.1j, 0.2j])
    at_3 = np.array([0.4, 0.3, -0.5 + 0.2j])
    _check_poles(R, O, _around(at_12, 1) + _around(at_3, 2))
    # no guard here: the size of a potential makes no pole, so offset 0,
    # where a potential is 0, is the only pole among the offsets
    poles = {at_12.tobytes(), at_3.tobytes()}
    for lam in _around(at_12, 1) + _around(at_3, 2):
        assert outcome(R.tables, lam)[0] == ("pole" if lam.tobytes() in poles else "tables")
    # the same potentials as a twist of the golden matrix
    gp, gc = golden_datum()
    beta[4] = lambda lam: 1 + 0j
    T, OT = apply_twist(build(gp, gc), beta), oracle_twist(oracle_build(gp, gc), beta)
    at = np.array([0.4, 0.3, -0.5 + 0.2j, 0.1])
    _check_poles(T, OT, _around(at, 2))


def test_vanishing_table_entry_pole_set():
    g = TableTwoForm(g={
        (1, 2): lambda lam: 2 + 0j,
        (1, 3): lambda lam: 0.5 - 1j,
        (2, 3): lambda lam: lam[2] - 0.25,   # vanishes at lam3 = 0.25
    })
    p, c = _free_block(3, 1 - 0.5j, 0.7j, (1, 1, -1), (1, 0.6, 1.3 + 0.4j), g)
    R, O = build(p, c), oracle_build(p, c)
    lam = np.array([0.1, -0.4 + 0.3j, 0.25])
    _check_poles(R, O, _around(lam, 3))
    # as a 2-form applied to another matrix (not closed, so unchecked)
    p0, c0 = _free_block(3, 0j, 1 + 0j, (1, 1, 1), (0, 0.5, -0.5))
    A, OA = apply_2form(build(p0, c0), g, check=False), oracle_2form(oracle_build(p0, c0), g, p0)
    _check_poles(A, OA, _around(lam, 3))


def test_contraction_drops_a_pole_pair():
    p, c = golden_datum()
    R, O = build(p, c), oracle_build(p, c)
    # lifted points have lam1 = lam2 = 0: pair (1,2) of the parent is a pole
    mu = np.array([0.3 + 0.1j, -0.2])
    kept = contract(R, (1, 3, 4))
    assert_same(kept, oracle_contract(O, (1, 3, 4)), [np.array([0j, *mu])])
    assert np.isfinite(kept.tables(np.array([0j, *mu]))[0]).all()
    hit = contract(R, (1, 2, 3))
    assert_same(hit, oracle_contract(O, (1, 2, 3)), [np.array([0j, 0j, 0.5])])
    with pytest.raises(PoleError, match=r"pair \(1,2\)"):
        hit.tables(np.array([0j, 0j, 0.5]))


# -- plain callables ---------------------------------------------------------


def _scaled_exchange(R, pair, factor):
    def delta(i, j, lam):
        v = R.delta(i, j, lam)
        return v * factor if (i, j) == pair else v

    return DynamicalRMatrix(n=R.n, delta=delta, d=R.d)


def test_plain_callable_wrapper_matches_oracle():
    p, c = golden_datum()
    R = _scaled_exchange(build(p, c), (1, 3), 1.3)
    O = _scaled_exchange(oracle_build(p, c), (1, 3), 1.3)
    rng = np.random.default_rng(4)
    points = sample_lambda(O, rng, 4)
    on_12 = np.array([0.2, 0.2, 0.5 - 0.5j, 0.1j])
    assert_same(R, O, points)
    assert_same(R, O, _around(on_12, 2), values=False)
    for lam in points:
        assert_same_entry_poles(R, O, lam)


def test_table_two_form_table_equals_its_values_bit_for_bit():
    n = 4
    g = TableTwoForm(g={
        (i, j): (lambda lam, i=i, j=j: (1.1 - 0.4j) * (lam[j - 1] - lam[i - 1]) + 0.3j * i + 0.2 * j)
        for i in range(1, n + 1) for j in range(i + 1, n + 1)
    })
    lams = np.array(random_points(np.random.default_rng(8), n, 40))
    lams[7, 3] = lams[7, 2] - (0.8 + 0.9j) / (1.1 - 0.4j)  # g_34 vanishes at the eighth point
    mask = ~np.eye(n, dtype=bool)
    got = g.table(n, lams, mask)
    for p, lam in enumerate(lams):
        want = np.ones((n, n), dtype=complex)
        for i, j in zip(*np.nonzero(mask)):
            try:
                want[i, j] = oracle_two_form(g, int(i) + 1, int(j) + 1, lam)
            except PoleError:
                want[i, j] = np.nan
        assert np.array_equal(got[p], want, equal_nan=True)
    assert np.isnan(got[7, 2, 3]) and np.isnan(got[7, 3, 2])


def test_constant_two_form_table_equals_its_values_bit_for_bit():
    n = 5
    rng = np.random.default_rng(12)
    values = {(i, j): complex(*rng.uniform(-2, 2, 2))
              for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) != (2, 4)}
    values[(1, 3)] = 0j             # vanishes: NaN on both orientations
    values[(3, 5)] = 5e-14 + 0j     # below POLE_GUARD
    g = constant_table_two_form(values)
    general = TableTwoForm(g=dict(g.g))  # the per-point loop over the same pair functions
    lams = np.array(random_points(rng, n, 6))
    full = ~np.eye(n, dtype=bool)
    full[1, 3] = full[3, 1] = False  # (2,4) has no constant
    for mask in (full, full & (rng.random((len(lams), n, n)) < 0.6)):
        got = g.table(n, lams, mask)
        assert got.shape == (len(lams), n, n)
        assert np.array_equal(got, general.table(n, lams, mask), equal_nan=True)
        for p, lam in enumerate(lams):
            want = np.ones((n, n), dtype=complex)
            for i, j in zip(*np.nonzero(np.broadcast_to(mask, got.shape)[p])):
                try:
                    want[i, j] = oracle_two_form(g, int(i) + 1, int(j) + 1, lam)
                except PoleError:
                    want[i, j] = np.nan
            assert np.array_equal(got[p], want, equal_nan=True)
    got = g.table(n, lams, full)
    for i, j in ((0, 2), (2, 0), (2, 4), (4, 2)):
        assert np.isnan(got[:, i, j]).all()
    assert np.isfinite(got[:, 0, 1]).all() and np.isfinite(got[:, 1, 0]).all()
    for form in (g, general):
        with pytest.raises(KeyError, match=r"\(2, 4\)"):
            form.table(n, lams, ~np.eye(n, dtype=bool))


def test_constant_two_form_matches_the_closure_oracle():
    g = constant_table_two_form({(1, 2): 2 + 0j, (1, 3): 0.5 - 1j, (2, 3): 0j})
    p, c = _free_block(3, 1 - 0.5j, 0.7j, (1, 1, -1), (1, 0.6, 1.3 + 0.4j), g)
    lam = np.array([0.1, -0.4 + 0.3j, 0.25])
    R, O = build(p, c), oracle_build(p, c)
    assert_same(R, O, [lam])
    assert outcome(R.tables, lam) == ("pole", (2, 3))
    assert_same_entry_poles(R, O, lam)
    p0, c0 = _free_block(3, 0j, 1 + 0j, (1, 1, 1), (0, 0.5, -0.5))
    g = constant_table_two_form({(1, 2): 2 + 1j, (1, 3): 0.5 - 1j, (2, 3): -0.25j})
    A, OA = apply_2form(build(p0, c0), g, check=False), oracle_2form(oracle_build(p0, c0), g, p0)
    points = random_points(np.random.default_rng(13), 3, 5)
    assert_same(A, OA, points)


def _counting(inner):
    """A matrix over ``inner``'s table function that records the stack it
    is called with."""
    calls = []

    def tables(lams):
        calls.append(lams.copy())
        return raw_tables(inner, lams)

    return DynamicalRMatrix.from_tables(inner.n, tables), calls


def test_table_function_runs_once_per_point():
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    lam = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j])
    R.delta(1, 2, lam)
    R.d(2, 1, lam)
    R.tables(lam)
    assert len(calls) == 1
    R.d(1, 2, shifted(lam, 1))
    assert len(calls) == 2


def test_one_table_call_per_cold_stencil():
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    lam = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j])
    delta, d = shift_stencil(R, lam)
    assert len(calls) == 1 and calls[0].shape == (5, 4)
    assert np.array_equal(calls[0], stencil_points(lam))
    for k in range(5):
        pt = shifted(lam, k) if k else lam
        want = build(p, c).tables(pt)
        assert np.array_equal(delta[k], want[0]) and np.array_equal(d[k], want[1])
    shift_stencil(R, lam)
    R.tables(shifted(lam, 3))
    assert len(calls) == 1  # the kept stencil serves itself and its points
    shift_stencil(R, shifted(lam, 2))
    assert len(calls) == 2 and len(calls[1]) == 5  # lam + e_2 was kept, but not as this stack
    sample_lambda(R, np.random.default_rng(0), 8)
    assert len(calls) == 3 and len(calls[2]) == 8 * 5  # no draw is rejected here


def test_kept_runs_and_points_are_served_without_a_table_call():
    """Every contiguous run of the kept stack, one point included, is read
    from the kept tables: no table call, and the bytes of a fresh
    evaluation."""
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    lams = stencil_points(np.array(random_points(np.random.default_rng(4), 4, 3))).reshape(-1, 4)
    R.stacked_tables(lams)
    fresh = build(p, c)
    for run in (lams[3:9], lams[:1], lams[7:8], lams[-4:], lams[:-1]):
        got = R.stacked_tables(run)
        want = raw_tables(fresh, run)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    for lam in lams:
        got = R.tables(lam)
        want = raw_tables(fresh, lam[None])
        assert [a.tobytes() for a in got] == [b[0].tobytes() for b in want]
        assert R.d(1, 3, lam) == want[1].item(0, 0, 2)
    assert len(calls) == 1


def test_a_match_across_rows_of_the_kept_stack_is_no_run():
    """The bytes of (a, a, a, a + 1) occur in the stencil of (a, a, a, a)
    from its second component on; only its own row serves it."""
    def tables(lams):
        delta = np.exp(lams[:, :, None] - 2 * lams[:, None, :])
        return delta, delta * (1 - np.eye(4))

    R, calls = _counting(DynamicalRMatrix.from_tables(4, tables))
    lams = stencil_points(np.full(4, 0.25 + 0.5j))
    R.stacked_tables(lams)
    got = R.tables(lams[4])
    want = tables(lams[4:])
    assert got[0].tobytes() == want[0][0].tobytes() and got[1].tobytes() == want[1][0].tobytes()
    assert len(calls) == 1


def _first_draws(seed, count, n, box=2.0):
    """The first ``count`` points a sampler seeded with ``seed`` draws."""
    draws = np.random.default_rng(seed).uniform(-box, box, (count, 2, n))
    return draws[:, 0] + 1j * draws[:, 1]


@pytest.mark.parametrize("seed", range(3))
def test_classifier_and_hecke_evaluate_only_their_samples(seed):
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    report = classify(R, seed=seed)
    assert len(calls) == 1 and np.array_equal(calls[0], _first_draws(seed, 5, 4))

    R, calls = _counting(build(p, c))
    hecke = hecke_classify(R, seed=seed)
    assert len(calls) == 1 and np.array_equal(calls[0], _first_draws(seed, 5, 4))
    assert np.array_equal(calls[0], hecke.lambda_samples)

    # recover_params reads every constant off the tables at its samples
    R, calls = _counting(build(p, c))
    recover_params(R, report, seed=seed)
    assert len(calls) == 1 and np.array_equal(calls[0], _first_draws(seed, 5, 4))


def test_recovered_two_form_evaluates_the_matrix_once_per_point():
    p, c = random_datum(8, np.random.default_rng(1), "trivial")
    R, calls = _counting(build(p, c))
    g = recover_params(R, classify(R)).two_form
    g.bare, bare_calls = _counting(g.bare)
    mask = np.zeros((8, 8), dtype=bool)
    for i, j in g.g:
        mask[i - 1, j - 1] = mask[j - 1, i - 1] = True
    lams = np.array(random_points(np.random.default_rng(2), 8, 6))
    calls.clear()
    g.table(8, lams, mask)
    # R and the bare build each evaluate the whole stack in one call
    assert len(g.g) == 28 and [len(pts) for pts in calls] == [6]
    assert [len(pts) for pts in bare_calls] == [6]
    g.table(8, lams, mask)  # warm: both memos serve the whole stack
    assert len(calls) == len(bare_calls) == 1


def test_rebuild_of_recovered_params_never_runs_the_per_pair_loop(monkeypatch):
    loop = TableTwoForm.table
    runs = []

    def counting(self, n, lams, mask):
        runs.append(type(self).__name__)
        return loop(self, n, lams, mask)

    monkeypatch.setattr(TableTwoForm, "table", counting)
    one = TableTwoForm(g={(1, 2): lambda lam: 2 + 0j})
    one.table(2, np.zeros((1, 2)), ~np.eye(2, dtype=bool))
    assert runs == ["TableTwoForm"]  # the counter sees the general loop
    runs.clear()
    for kind in ("trivial", "table", "exact"):
        p, c = random_datum(6, np.random.default_rng(3), kind)
        R = build(p, c)
        params = recover_params(R, classify(R))
        lams = np.array(random_points(np.random.default_rng(4), 6, 3))
        build(params.partition, params).stacked_tables(stencil_points(lams).reshape(-1, 6))
    assert runs == []


def _assert_bit_equal(got, want):
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("kind", ["trivial", "table", "exact"])
def test_recovered_two_form_equals_the_closure_oracle_bit_for_bit(kind):
    rng = np.random.default_rng(21)
    for n in range(3, 10):
        p, c = random_datum(n, np.random.default_rng(n), kind)
        R = build(p, c)
        if n % 2:  # original labels that differ from the canonical ones
            R = relabelled(R, rng.permutation(n))
        report = classify(R)
        params = recover_params(R, report)
        inv = {v: k for k, v in report.index_permutation.items()}
        closures = oracle_recovered_two_form(R, params, inv)
        g = params.two_form
        assert list(g.g) == list(closures)
        lams = np.array(random_points(rng, n, 12))
        full = ~np.eye(n, dtype=bool)
        cross = np.zeros((n, n), dtype=bool)
        for i, j in closures:
            cross[i - 1, j - 1] = cross[j - 1, i - 1] = True
        for mask in (cross, cross & (rng.random((len(lams), n, n)) < 0.5)):
            with np.errstate(all="ignore"):
                _assert_bit_equal(g.table(n, lams, mask),
                                  oracle_pair_table(closures, n, lams, mask))
        if not cross[full].all():  # a pair inside a d-class has no entry
            with pytest.raises(KeyError):
                g.table(n, lams, full)


def test_recovered_two_form_poles_equal_the_closure_oracle():
    # the golden bare build has Delta_12 = 1/(lam_1 - lam_2) and
    # d_12 = 1 - Delta_12: the quotient is a pole where lam_1 = lam_2 and
    # where lam_1 - lam_2 = 1
    R = build(*golden_datum())
    params = recover_params(R, classify(R))
    closures = oracle_recovered_two_form(R, params, {a: a for a in range(1, 5)})
    g = params.two_form
    lams = np.array(random_points(np.random.default_rng(5), 4, 8))
    lams[1, 1] = lams[1, 0]
    lams[4, 1] = lams[4, 0] - 1
    lams[6] = 0
    mask = np.zeros((4, 4), dtype=bool)
    for i, j in closures:
        mask[i - 1, j - 1] = mask[j - 1, i - 1] = True
    with np.errstate(all="ignore"):
        got = g.table(4, lams, mask)
        _assert_bit_equal(got, oracle_pair_table(closures, 4, lams, mask))
    for p in (1, 4, 6):
        assert np.isnan(got[p, 0, 1]) and np.isnan(got[p, 1, 0])
    assert np.isfinite(got[[0, 2, 3, 5, 7]]).all()
    with pytest.raises(PoleError):
        g.g[(1, 2)](lams[1])
    assert g.g[(1, 2)](lams[0]) == got[0, 0, 1] and g.value(2, 1, lams[0]) == got[0, 1, 0]


@pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), complex(1.0, float("inf")), 1e-14])
def test_a_pair_value_that_is_a_pole_is_nan_on_both_orientations(bad):
    g = TableTwoForm(g={(1, 2): lambda lam: bad, (1, 3): lambda lam: 2 + 0j,
                        (2, 3): lambda lam: 0.5j})
    lam = np.array([0.1, 0.2j, 0.3])
    with np.errstate(all="ignore"):
        tab = g.table(3, lam[None], ~np.eye(3, dtype=bool))[0]
    assert np.isnan(tab[0, 1]) and np.isnan(tab[1, 0])
    assert tab[0, 2] == 2 and tab[2, 0] == 0.5 and tab[1, 2] == 0.5j and tab[2, 1] == -2j
    for i, j in ((1, 2), (2, 1)):
        with pytest.raises(PoleError):
            g.value(i, j, lam)


def test_plain_callable_wrapper_evaluates_once_per_point():
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    W = _scaled_exchange(R, (1, 3), 1.3)
    lam = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j])
    delta, _ = shift_stencil(W, lam)
    assert [len(pts) for pts in calls] == [5]  # the inner stencil in one call
    assert np.array_equal(calls[0], stencil_points(lam))
    assert delta[0, 0, 2] == 1.3 * build(p, c).tables(lam)[0][0, 2]


def _one_sided_diagonal(R, pair):
    def d(i, j, lam):
        return 0j if (i, j) == pair else R.d(i, j, lam)

    return DynamicalRMatrix(n=R.n, delta=R.delta, d=d)


def _per_entry_tables(R, lam):
    """Reference: R's two tables at one point from one per-entry call each,
    NaN where the call raises PoleError."""
    tabs = np.zeros((2, R.n, R.n), dtype=complex)
    for t, fn in enumerate((R.delta, R.d)):
        for i in range(1, R.n + 1):
            for j in range(1, R.n + 1):
                if i != j or t == 0:
                    try:
                        tabs[t, i - 1, j - 1] = fn(i, j, lam)
                    except PoleError:
                        tabs[t, i - 1, j - 1] = np.nan
    return tabs


def test_raw_tables_evaluates_a_wrapper_once_per_call():
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    W = _scaled_exchange(R, (1, 3), 1.3)
    lams = stencil_points(np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j]))
    first = raw_tables(W, lams)
    second = raw_tables(W, lams)
    assert [len(pts) for pts in calls] == [5, 5]  # the second call evaluates again
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    W.delta(1, 3, lams[2])  # a point of the stack, read after the call
    assert [len(pts) for pts in calls] == [5, 5, 1]


@pytest.mark.parametrize("fail", [False, True])
def test_wrapper_evaluation_leaves_the_inner_cache_as_it_found_it(fail):
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    lams = stencil_points(np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j]))

    def delta(i, j, lam):
        if fail and np.array_equal(lam, lams[2]):
            raise RuntimeError("wrapper failed")
        return R.delta(i, j, lam)

    W = DynamicalRMatrix(n=4, delta=delta, d=R.d)
    R.tables(lams[0])  # R keeps one point of the stack
    calls.clear()
    if fail:
        with pytest.raises(RuntimeError, match="wrapper failed"):
            raw_tables(W, lams)
    else:
        raw_tables(W, lams)
    assert [len(pts) for pts in calls] == [5]
    # the point kept before is still kept; the per-entry loop kept nothing
    R.tables(lams[0])
    assert [len(pts) for pts in calls] == [5]
    R.stacked_tables(lams)
    assert [len(pts) for pts in calls] == [5, 5]
    assert np.array_equal(calls[1], lams)


def test_tables_raise_at_a_pole_whether_cold_cached_or_held():
    p, c = golden_datum()
    R = build(p, c)
    good = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j])
    on_12 = np.array([0.2, 0.2, 0.5 - 0.5j, 0.1j])  # pair (1,2): lam1 = lam2
    msg = f"non-finite coefficient at pair (1,2), lam={on_12}"

    def pole_messages(lam):
        out = []
        for fn, arg in ((R.tables, lam), (R.stacked_tables, np.array([good, lam]))):
            with pytest.raises(PoleError) as exc:
                fn(arg)
            out.append(str(exc.value))
        return out

    assert pole_messages(on_12) == [msg, msg]  # cold
    R.tables(good)
    assert R.delta(1, 3, on_12) == build(p, c).delta(1, 3, on_12)  # a finite entry
    assert pole_messages(on_12) == [msg, msg]  # after reads there, now a kept point
    pinned = []

    def delta(i, j, lam):
        if np.array_equal(lam, on_12):
            pinned.extend(pole_messages(lam))
        return R.delta(i, j, lam)

    got = raw_tables(DynamicalRMatrix(n=4, delta=delta, d=R.d), np.array([good, on_12]))
    assert pinned == [msg, msg] * 16  # on every read while on_12 is pinned
    assert np.isnan(got[0][1, 0, 1]) and np.isfinite(got[0][1, 0, 2])


def test_per_entry_reads_keep_pole_messages_and_lambda_conversion():
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    on_12 = [0.2, 0.2, 0.5 - 0.5j, 0.1j]  # pair (1,2): lam1 = lam2
    seen = []

    def delta(i, j, lam):
        try:
            return R.delta(i, j, lam)
        except PoleError as exc:
            seen.append(str(exc))
            raise

    W = DynamicalRMatrix(n=4, delta=delta, d=R.d)
    got = raw_tables(W, np.array([on_12]))  # the read at a pinned point
    assert np.isnan(got[0][0, 0, 1])
    with pytest.raises(PoleError) as outside:
        R.delta(1, 2, np.array(on_12))
    assert seen[0] == str(outside.value) == f"non-finite coefficient at pair (1,2), lam={np.array(on_12, dtype=complex)}"
    with pytest.raises(PoleError) as listed:
        R.delta(1, 2, on_12)
    assert str(listed.value) == f"non-finite coefficient at pair (1,2), lam={on_12}"
    # a list, a real array or a list of floats reads the same point's tables
    lam = np.array([0.1, 0.7, -0.3, 0.5], dtype=complex)
    calls.clear()
    want = [R.delta(1, 2, lam), R.d(2, 1, lam)]
    for mu in (lam.tolist(), lam.real, [0.1, 0.7, -0.3, 0.5]):
        assert [R.delta(1, 2, mu), R.d(2, 1, mu)] == want
    assert len(calls) == 1
    assert want == [complex(build(p, c).tables(lam)[t][i, j]) for t, i, j in ((0, 0, 1), (1, 1, 0))]


def test_nested_wrappers_evaluate_the_inner_matrix_once_per_stack():
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    lam = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j])
    lams = stencil_points(lam)
    # a wrapper of a wrapper over R: one inner call for the whole stack
    W = _scaled_exchange(_scaled_exchange(R, (2, 1), 0.5), (1, 3), 1.3)
    got = raw_tables(W, lams)
    assert [len(pts) for pts in calls] == [5]
    for k, mu in enumerate(lams):
        want = _per_entry_tables(W, mu)
        assert np.array_equal(got[0][k], want[0]) and np.array_equal(got[1][k], want[1])
    # a wrapper whose d reads a table matrix over another wrapper of R: each
    # of its points evaluates R again, while R pins the outer stack
    T = DynamicalRMatrix.from_tables(4, lambda mus: raw_tables(W, mus))
    V = DynamicalRMatrix(n=4, delta=R.delta, d=lambda i, j, mu: 2 * T.d(i, j, mu))
    calls.clear()
    got = raw_tables(V, lams)
    assert [len(pts) for pts in calls] == [5] + [1] * 5  # the outer stack serves V.delta
    for k, mu in enumerate(lams):
        want = _per_entry_tables(V, mu)
        assert np.array_equal(got[0][k], want[0]) and np.array_equal(got[1][k], want[1])


@pytest.mark.parametrize("wrap", [_scaled_exchange, _one_sided_diagonal])
def test_wrapper_tables_equal_per_point_reference_bit_for_bit(wrap):
    gp, gc = golden_datum()
    rng = np.random.default_rng(3)
    beta = random_two_form(gp, rng, "exact").beta
    args = ((1, 2), 1.3) if wrap is _scaled_exchange else ((1, 2),)
    make = lambda: wrap(apply_twist(build(gp, gc), beta), *args)
    on_12 = np.array([0.2, 0.2, 0.5 - 0.5j, 0.1j])  # pair (1,2): lam1 = lam2
    good = random_points(rng, 4, 3)
    lams = stencil_points(np.array([good[0], on_12, *good[1:]])).reshape(-1, 4)
    got = raw_tables(make(), lams)
    ref = make()
    for k, mu in enumerate(lams):
        want = _per_entry_tables(ref, mu)
        assert np.array_equal(got[0][k], want[0], equal_nan=True)
        assert np.array_equal(got[1][k], want[1], equal_nan=True)
    assert np.isnan(got[0][5, 0, 1])  # the pole sits inside the stack
    with pytest.raises(PoleError) as stacked:
        make().stacked_tables(lams)
    assert str(stacked.value) == f"non-finite coefficient at pair (1,2), lam={lams[5]}"


def _read(fn, i, j, lam):
    """fn(i, j, lam) as the bits of its value, or the PoleError message."""
    try:
        v = fn(i, j, lam)
    except PoleError as exc:
        return str(exc)
    return v.real.hex(), v.imag.hex()


def test_reads_at_the_pinned_point_equal_per_entry_reads_bit_for_bit():
    gp, gc = golden_datum()
    rng = np.random.default_rng(3)
    beta = random_two_form(gp, rng, "exact").beta
    R = apply_twist(build(gp, gc), beta)
    on_12 = np.array([0.2, 0.2, 0.5 - 0.5j, 0.1j])  # pair (1,2): lam1 = lam2
    lams = stencil_points(np.array([random_points(rng, 4, 1)[0], on_12])).reshape(-1, 4)
    seen = {}

    def delta(i, j, lam):
        assert lam is R._pin[0] and not lam.flags.writeable  # served from the pin
        for part, fn in enumerate((R.delta, R.d)):
            seen[lam.tobytes(), part, i, j] = _read(fn, i, j, lam)
        return 1j

    raw_tables(DynamicalRMatrix(n=4, delta=delta, d=R.d), lams)
    assert R._pin is None
    ref = apply_twist(build(gp, gc), beta)  # read entry by entry, nothing pinned
    want = {(mu.tobytes(), part, i, j): _read(fn, i, j, mu)
            for mu in lams for part, fn in enumerate((ref.delta, ref.d))
            for i in range(1, 5) for j in range(1, 5)}
    assert seen == want
    # the pole sits inside the stack, and a pinned read names it as before
    assert want[lams[5].tobytes(), 0, 1, 2] == f"non-finite coefficient at pair (1,2), lam={lams[5]}"


def test_no_pin_outlives_nested_wrappers_or_a_callable_that_raises():
    p, c = golden_datum()
    R = build(p, c)
    lams = stencil_points(np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j]))
    X = _scaled_exchange(R, (2, 1), 0.5)
    raw_tables(_scaled_exchange(X, (1, 3), 1.3), lams)
    assert R._pin is None and X._pin is None
    # an inner evaluation pins R again and gives the outer pin back
    T = DynamicalRMatrix.from_tables(4, lambda mus: raw_tables(X, mus))
    restored = []

    def d(i, j, mu):
        v = T.d(i, j, mu)
        restored.append(R._pin[0] is mu)
        return v

    raw_tables(DynamicalRMatrix(n=4, delta=R.delta, d=d), lams)
    assert len(restored) == 5 * 12 and all(restored) and R._pin is None

    def failing(i, j, mu):
        if np.array_equal(mu, lams[2]):
            raise RuntimeError("wrapper failed")
        return R.delta(i, j, mu)

    with pytest.raises(RuntimeError, match="wrapper failed"):
        raw_tables(DynamicalRMatrix(n=4, delta=failing, d=R.d), lams)
    assert R._pin is None and R._last is None  # no lookup of R ran


def test_writing_to_the_point_inside_a_callable_raises():
    p, c = golden_datum()
    R = build(p, c)
    lams = stencil_points(np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j]))

    def delta(i, j, lam):
        lam[0] += 1
        return R.delta(i, j, lam)

    with pytest.raises(ValueError, match="read-only"):
        raw_tables(DynamicalRMatrix(n=4, delta=delta, d=R.d), lams)
    assert R._pin is None and R._last is None  # no lookup of R ran
    assert lams.flags.writeable and lams[0, 0] == 0.1  # the caller's stack is untouched


@pytest.mark.parametrize("fail", [False, True])
def test_a_read_at_an_equal_copy_goes_through_the_inner_cache(fail):
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    lams = stencil_points(np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j]))
    pairs = []

    def delta(i, j, lam):
        if fail and np.array_equal(lam, lams[3]):
            raise RuntimeError("wrapper failed")
        mu = lam.copy()
        pairs.append((_read(R.delta, i, j, mu), _read(R.delta, i, j, lam)))
        return R.delta(i, j, mu)

    W = DynamicalRMatrix(n=4, delta=delta, d=R.d)
    if fail:
        with pytest.raises(RuntimeError, match="wrapper failed"):
            raw_tables(W, lams)
    else:
        got = raw_tables(W, lams)
        assert np.array_equal(got[0], build(p, c).stacked_tables(lams)[0])
    done = 3 if fail else 5  # the points whose callables ran
    # the inner stack in one call, and one call per distinct copied point
    assert [len(pts) for pts in calls] == [5] + [1] * done
    assert all(np.array_equal(pts[0], mu) for pts, mu in zip(calls[1:], lams))
    assert len(pairs) == done * 16 and all(a == b for a, b in pairs)
    assert R._pin is None
    if not fail:  # R keeps only the last copied point: a second evaluation reads each again
        calls.clear()
        raw_tables(W, lams)
        assert [len(pts) for pts in calls] == [5] + [1] * 5


def test_a_read_of_a_pole_at_an_equal_copy_raises_the_pinned_text():
    p, c = golden_datum()
    R = build(p, c)
    on_12 = np.array([0.2, 0.2, 0.5 - 0.5j, 0.1j])  # pair (1,2): lam1 = lam2
    texts = []

    def delta(i, j, lam):
        if (i, j) == (1, 2):
            texts.append((_read(R.delta, i, j, lam), _read(R.delta, i, j, lam.copy())))
        return R.delta(i, j, lam)

    got = raw_tables(DynamicalRMatrix(n=4, delta=delta, d=R.d), np.array([on_12]))
    msg = f"non-finite coefficient at pair (1,2), lam={on_12}"
    assert texts == [(msg, msg)]
    assert np.isnan(got[0][0, 0, 1]) and np.isfinite(got[0][0, 0, 2])


def test_a_read_at_another_point_is_not_served_from_the_pin():
    p, c = golden_datum()
    R = build(p, c)
    lams = stencil_points(np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j]))
    far = np.array([0.3, -0.2j, 0.9, 0.4 - 0.1j])
    reads = []

    def delta(i, j, lam):
        reads.append((i, j, _read(R.delta, i, j, far), _read(R.d, i, j, far)))
        return R.delta(i, j, lam)

    raw_tables(DynamicalRMatrix(n=4, delta=delta, d=R.d), lams)
    ref = build(p, c)
    assert reads == [(i, j, _read(ref.delta, i, j, far), _read(ref.d, i, j, far))
                     for _ in lams for i in range(1, 5) for j in range(1, 5)]


def test_each_plain_field_is_called_once_per_entry_and_point():
    p, c = golden_datum()
    R = build(p, c)
    lams = stencil_points(np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j]))
    seen = {"delta": [], "d": []}

    def counted(name, fn):
        def field(i, j, lam):
            seen[name].append((i, j, lam.tobytes()))
            return fn(i, j, lam)
        return field

    W = DynamicalRMatrix(n=4, delta=counted("delta", R.delta), d=counted("d", R.d))
    got = raw_tables(W, lams)
    keys = {lam.tobytes() for lam in lams}
    assert sorted(seen["delta"]) == sorted((i, j, k) for i in range(1, 5)
                                           for j in range(1, 5) for k in keys)
    assert sorted(seen["d"]) == sorted((i, j, k) for i in range(1, 5)
                                       for j in range(1, 5) if i != j for k in keys)
    assert len(seen["delta"]) == 5 * 16 and len(seen["d"]) == 5 * 12
    want = build(p, c).stacked_tables(lams)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stacked_pole_names_first_bad_point_and_pair():
    p, c = golden_datum()
    R = build(p, c)
    good = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j])
    on_12 = np.array([0.2, 0.2, 0.5 - 0.5j, 0.1j])   # pair (1,2): lam1 = lam2
    on_13 = np.array([0.3, 0.1, -0.2, -0.1])          # pair (1,3): lam1 + lam3 + lam4 = 0
    with pytest.raises(PoleError) as stacked:
        R.stacked_tables(np.array([good, on_13, on_12]))
    with pytest.raises(PoleError) as single:
        build(p, c).tables(on_13)
    assert str(stacked.value) == str(single.value)
    assert "pair (1,3)" in str(stacked.value)
    assert R.tables(good)[0].shape == (4, 4)
    assert not R.tables(good)[0].flags.writeable


def test_a_stack_mixing_kept_and_new_points_is_evaluated_whole():
    p, c = golden_datum()
    R, calls = _counting(build(p, c))
    points = np.array(random_points(np.random.default_rng(6), 4, 520))
    R.stacked_tables(points[:510])
    mixed = points[505:520]  # five kept points, then ten new ones
    delta, d = R.stacked_tables(mixed)
    assert [len(pts) for pts in calls] == [510, 15]
    want = build(p, c).stacked_tables(mixed)
    assert delta.tobytes() == want[0].tobytes() and d.tobytes() == want[1].tobytes()
    R.tables(points[0])  # the mixed stack replaced the first
    assert [len(pts) for pts in calls] == [510, 15, 1]


def test_exact_two_form_calls_each_potential_once_per_distinct_point():
    n = 5
    calls = []

    def potential(i):
        def beta(lam):
            calls.append(i)
            return np.exp(0.1 * i * lam[i - 1] + 0.05 * lam.sum())
        return beta

    g = ExactTwoForm(beta={i: potential(i) for i in range(1, n + 1)})
    lam = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j, 0.2 - 0.1j])
    mask = ~np.eye(n, dtype=bool)
    stacked = g.table(n, stencil_points(lam), mask)
    # every distinct point but beta_k(lam + 2 e_k), which no entry reads
    per_stencil = n * (1 + n + n * (n + 1) // 2) - n
    assert len(calls) == per_stencil == 100
    assert sorted(set(calls)) == list(range(1, n + 1))
    for k in range(n + 1):
        pt = shifted(lam, k) if k else lam
        want = np.ones((n, n), dtype=complex)
        for i, j in zip(*np.nonzero(mask)):
            want[i, j] = oracle_two_form(g, int(i) + 1, int(j) + 1, pt)
        assert np.abs(stacked[k] - want).max() <= ULPS * EPS * np.abs(want).max()
    # one built stencil makes the same number of calls
    p, c = _free_block(n, 1 + 0.2j, 0.5 - 0.1j, (1,) * n, (1, 0.8, 1.2, 0.9j, 1.1), g)
    calls.clear()
    shift_stencil(build(p, c), lam)
    assert len(calls) == per_stencil
    # and so does the stencil of a plain-callable wrapper around one
    calls.clear()
    shift_stencil(_scaled_exchange(build(p, c), (1, 2), 1.3), lam)
    assert len(calls) == per_stencil
    # a constant 2-form on top adds no potential call and calls no pair
    # function: its table is built once from the constants
    const = constant_table_two_form({(i, j): 1 + 0.1j * i - 0.2 * j
                                     for i in range(1, n + 1) for j in range(i + 1, n + 1)})
    pair_calls = []
    const.g = {pair: (lambda mu, fn=fn: pair_calls.append(1) or fn(mu))
               for pair, fn in const.g.items()}
    A = apply_2form(build(p, c), const, check=False)
    calls.clear()
    shift_stencil(A, lam)
    sample_lambda(A, np.random.default_rng(0), 3)
    assert len(calls) == 4 * per_stencil
    assert pair_calls == []


def _recording_potentials(n, calls):
    """Potentials beta_i(lam) = exp(0.1 i lam_i + 0.05 sum(lam)) that
    append (i, lam) to ``calls`` on every call."""
    def potential(i):
        def beta(lam):
            calls.append((i, tuple(lam.tolist())))
            return np.exp(0.1 * i * lam[i - 1] + 0.05 * lam.sum())
        return beta
    return {i: potential(i) for i in range(1, n + 1)}


def test_exact_two_form_calls_only_the_potentials_a_masked_entry_reads():
    n = 4
    calls = []
    g = ExactTwoForm(beta=_recording_potentials(n, calls))
    lam = np.array([0.1, 0.7j, -0.3, 0.5 + 0.5j])
    off = ~np.eye(n, dtype=bool)
    # one point: beta_i at lam, and beta_i(lam + e_j) for every j != i
    g.table(n, lam[None], off)
    assert len(calls) == n * n
    # a d-class {3, 4}: no entry reads beta_3(lam + e_4) or beta_4(lam + e_3)
    dclass = off.copy()
    dclass[2, 3] = dclass[3, 2] = False
    calls.clear()
    g.table(n, lam[None], dclass)
    assert len(calls) == n * n - 2
    # per-point masks: (1, 2) at lam, (3, 4) at lam + e_1, which is also
    # the first shift of lam; points in first-seen order, i ascending
    per_point = np.zeros((2, n, n), dtype=bool)
    per_point[0, 0, 1] = per_point[1, 2, 3] = True
    calls.clear()
    g.table(n, np.array([lam, shifted(lam, 1)]), per_point)

    def at(i, *shifts):
        pt = lam.copy()
        for k in shifts:
            pt[k - 1] += 1
        return i, tuple(pt.tolist())

    assert calls == [at(1), at(2), at(2, 1), at(3, 1), at(4, 1), at(1, 2),
                     at(4, 1, 3), at(3, 1, 4)]
    calls.clear()
    g.table(n, np.array([lam, lam + 5]), np.zeros((2, n, n), dtype=bool))
    assert calls == []


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_two_form_table_equals_the_all_points_oracle_bit_for_bit(n):
    """Masked entries, poles included, against every potential called at
    every point.  beta_i vanishes where lam_i = 0.25 (rounded to 12
    decimals), which some points and shifts hit."""
    rng = np.random.default_rng(30 + n)
    lin = rng.uniform(-0.3, 0.3, (n, n)) + 1j * rng.uniform(-0.3, 0.3, (n, n))

    def potential(i):
        def beta(lam):
            return np.exp(np.dot(lin[i - 1], lam)) * np.round(lam[i - 1] - 0.25, 12)
        return beta

    g = ExactTwoForm(beta={i: potential(i) for i in range(1, n + 1)})
    points = np.array(random_points(rng, n, 4))
    points[1, 0] = 0.25
    points[2, -1] = -0.75
    off = ~np.eye(n, dtype=bool)
    dclass = off.copy()
    dclass[:2, :2] = False
    for lams, pole in ((points, True), (stencil_points(points[0]), False),
                       (stencil_points(points[2]), True)):
        masks = (off, dclass, rng.random((len(lams), n, n)) < 0.3,
                 np.ones((n, n), dtype=bool))
        for mask in masks:
            with np.errstate(all="ignore"):
                got = g.table(n, lams, mask)
                want = oracle_exact_table(g.beta, n, lams, mask)
            _assert_bit_equal(got, want)
            if mask is off:
                assert np.isnan(got).any() == (pole and n > 1)


def _per_slot_exact_table(beta, n, lams, mask):
    """``ExactTwoForm.table`` as one list of calls and one row assignment
    per first-seen slot: the reference for the order of its calls and the
    bits of its table."""
    P = len(lams)
    mask = np.broadcast_to(mask, (P, n, n))
    pts = stencil_points(lams).reshape(-1, n)
    first = {}
    row = [first.setdefault(pt.tobytes(), s) for s, pt in enumerate(pts)]
    both = mask | mask.transpose(0, 2, 1)
    reads = np.concatenate([both.any(axis=2)[:, None], both], axis=1).reshape(-1, n)
    wanted = np.zeros_like(reads)
    np.logical_or.at(wanted, row, reads)
    wanted = wanted.tolist()
    b = np.ones((len(pts), n), dtype=complex)
    for s in first.values():
        pt = pts[s]
        b[s] = [oracle_potential(beta[i], pt) if w else 1 for i, w in enumerate(wanted[s], 1)]
    b = b[row].reshape(P, n + 1, n)
    b0, bk = b[:, 0], b[:, 1:]
    g = (bk.transpose(0, 2, 1) / b0[:, :, None]) * (b0[:, None, :] / bk)
    bad = ~np.isfinite(g)
    g[bad | bad.transpose(0, 2, 1)] = np.nan
    return np.where(mask, g, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_two_form_calls_as_the_per_slot_loop_and_gives_its_bits(n):
    """Logging potentials are called in the per-slot loop's order, with
    equal points, and give its table bit for bit.  beta_1 is 0 where
    Re lam_1 = 0.25 and 1e-14 times its value where Re lam_1 = -0.75 (no
    pole), and beta_n raises PoleError where Re lam_n = -0.75, which some
    points and shifts hit."""
    rng = np.random.default_rng(60 + n)
    lin = rng.uniform(-0.3, 0.3, (n, n)) + 1j * rng.uniform(-0.3, 0.3, (n, n))
    calls = []

    def potential(i):
        def beta(lam):
            calls.append((i, lam.tobytes()))
            v = complex(np.exp(np.dot(lin[i - 1], lam)))
            if i == 1 and lam[0].real == 0.25:
                return 0j
            if i == 1 and lam[0].real == -0.75:
                return v * 1e-14
            if i == n and lam[-1].real == -0.75:
                raise PoleError("potential pole")
            return v
        return beta

    g = ExactTwoForm(beta={i: potential(i) for i in range(1, n + 1)})
    points = np.array(random_points(rng, n, 4))
    points[1, 0] = 0.25
    points[2, -1] = -1.75
    points[3, 0] = -0.75
    off = ~np.eye(n, dtype=bool)
    for lams in (points, stencil_points(points[0]), stencil_points(points[2]),
                 np.concatenate([points, points[::-1]])):
        for mask in (off, rng.random((len(lams), n, n)) < 0.3, np.ones((n, n), dtype=bool)):
            with np.errstate(all="ignore"):
                got = g.table(n, lams, mask)
                logged = calls[:]
                calls.clear()
                want = _per_slot_exact_table(g.beta, n, lams, mask)
            assert logged == calls
            calls.clear()
            _assert_bit_equal(got, want)
    assert np.isnan(g.table(n, points, off)).any() == (n > 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_exact_two_form_matches_potential_oracle(n):
    """The coefficient form against its own potentials, read per entry by
    the oracle: its table on shift stencils, and a twist by it."""
    mask = ~np.eye(n, dtype=bool)
    for seed in range(4):
        rng, p, c = _datum(n, "trivial", 200 + seed)
        g = random_two_form(p, rng, "exact")
        assert isinstance(g, QuadraticExactTwoForm)
        O = oracle_build(p, c)
        points = sample_lambda(O, rng, 3)
        for lam in points:
            pts = stencil_points(lam)
            tab = g.table(n, pts, mask)
            for k, pt in enumerate(pts):
                want = np.ones((n, n), dtype=complex)
                for i, j in zip(*np.nonzero(mask)):
                    want[i, j] = oracle_two_form(g, int(i) + 1, int(j) + 1, pt)
                assert np.abs(tab[k] - want).max() <= ULPS * EPS * np.abs(want).max()
        assert_same(apply_twist(build(p, c), g), oracle_twist(O, g.beta), points)


def test_exact_two_forms_from_configs_call_no_potential():
    """Configs and random_two_form give the coefficient form, whose tables
    call no Python potential: not in a build, a twist, a 2-form action or
    the closedness check.  A callable ExactTwoForm on the same potentials
    does call them, so the guard can see a call."""
    n = 5
    rng, p, c = _datum(n, "trivial", 7)
    spec = {"type": "exact", "potentials": {
        str(i): {"const": 0.1 * i, "lin": [0.1 * (i - k) for k in range(n)],
                 "quad": [{"re": 0.0, "im": 0.02 * k} for k in range(n)]}
        for i in range(1, n + 1)}}
    calls = []

    def counted(g):
        g.beta = {i: (lambda lam, fn=fn: calls.append(i) or fn(lam)) for i, fn in g.beta.items()}
        return g

    def use(g):
        lam = sample_lambda(build(p, c), np.random.default_rng(1), 1)[0]
        shift_stencil(build(p, replace(c, two_form=g)), lam)
        shift_stencil(apply_twist(build(p, c), g), lam)
        shift_stencil(apply_2form(build(p, c), g), lam)
        assert check_closed(g, p)

    for g in (two_form_from_json(spec, n), random_two_form(p, rng, "exact")):
        assert isinstance(g, QuadraticExactTwoForm)
        use(counted(g))
    assert calls == []
    use(ExactTwoForm(beta=counted(two_form_from_json(spec, n)).beta))
    assert calls


def test_large_draw_keeps_table_calls_bounded():
    rng = np.random.default_rng(5)
    p, c = random_datum(8, rng, "trivial")
    R, calls = _counting(build(p, c))
    pts = sample_lambda(R, rng, 2000)
    assert len(pts) == 2000
    assert max(len(stack) for stack in calls) <= 512
    assert sum(len(stack) for stack in calls) >= 2000 * 9


# -- overflow ----------------------------------------------------------------


def test_overflow_is_a_pole_not_an_overflow_error():
    p, c = overflow_datum()
    R = build(p, c)
    lam = np.array([400, -400, 0, 0, 0], dtype=complex)
    with pytest.raises(OverflowError):
        oracle_tables(oracle_build(p, c), lam)
    with pytest.raises(PoleError, match=r"pair \(2,1\)"):
        R.tables(lam)
    with pytest.raises(PoleError):
        R.delta(2, 1, lam)
    assert R.delta(1, 2, lam) == c.per_block[0].sum_const  # e^{A x} underflows
    try:
        points = sample_lambda(R, np.random.default_rng(0), 3, box=1000.0)
    except PoleError:
        return
    for lam in points:
        assert all(np.isfinite(t).all() for t in R.tables(lam))
