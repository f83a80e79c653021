import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynrmat.builder import build
from dynrmat.errors import PoleError
from dynrmat.params import BlockConstants, ClassificationParams, normalize_f
from dynrmat.partition import DeltaClass, IndexPartition
from dynrmat.rmatrix import (
    DynamicalRMatrix,
    dense_from_tables,
    embed_with_shift,
    evaluate,
    raw_tables,
    shift_stencil,
    shifted,
    stencil_points,
)
from dynrmat.sampling import random_datum
from dynrmat.serialize import SampledTables, matrix_from_samples, parse_config
from dynrmat.transforms import decouple_compose
from dynrmat.verifier import (
    _LEFT,
    _RIGHT,
    EQUATION_TAGS,
    _FAMILIES,
    _defect_layout,
    _equation_layout,
    _equation_values,
    _factor_positions,
    _path_weights,
    _stencil_defect,
    check_invertibility,
    check_system,
    dqybe_defect,
    dqybe_residual_normalized,
    sample_lambda,
)

from conftest import (
    golden_datum, huge_datum, overflow_datum, random_points, times, zero_residual_config,
)
from invertibility_oracle import assert_matches_dense, dense_matrix, whole_table_result
from system_oracle import (
    constrained_indices, oracle_check_system, oracle_defect, oracle_entry_map,
    oracle_entry_sums, oracle_equation_values, oracle_path_products,
)


def _triple_oracle(R, lam):
    """Same relation via dense kron-style products built with loops over the
    spectator label only; an independent restatement of both sides."""
    n = R.n
    lam = np.asarray(lam, dtype=complex)
    size = n ** 3
    eye = np.eye(n)

    def op(slot_pair, shift_slot):
        out = np.zeros((size, size), dtype=complex)
        for k in range(1, n + 1):
            pt = shifted(lam, k) if shift_slot else lam
            M = evaluate(R, pt).matrix.reshape(n, n, n, n)
            for i in range(n):
                for j in range(n):
                    for a in range(n):
                        for b in range(n):
                            v = M[i, j, a, b]
                            if v == 0:
                                continue
                            if slot_pair == (1, 2):
                                row = i * n * n + j * n + (k - 1)
                                col = a * n * n + b * n + (k - 1)
                            elif slot_pair == (1, 3):
                                row = i * n * n + (k - 1) * n + j
                                col = a * n * n + (k - 1) * n + b
                            else:
                                row = (k - 1) * n * n + i * n + j
                                col = (k - 1) * n * n + a * n + b
                            out[row, col] += v
            if not shift_slot:
                break
        if not shift_slot:
            # replicate the k-independent block over all spectator labels
            full = np.zeros((size, size), dtype=complex)
            M = evaluate(R, lam).matrix.reshape(n, n, n, n)
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        for a in range(n):
                            for b in range(n):
                                v = M[i, j, a, b]
                                if v == 0:
                                    continue
                                if slot_pair == (1, 2):
                                    full[i * n * n + j * n + k,
                                         a * n * n + b * n + k] += v
                                elif slot_pair == (1, 3):
                                    full[i * n * n + k * n + j,
                                         a * n * n + k * n + b] += v
                                else:
                                    full[k * n * n + i * n + j,
                                         k * n * n + a * n + b] += v
            return full
        return out

    lhs = op((1, 2), True) @ op((1, 3), False) @ op((2, 3), True)
    rhs = op((2, 3), False) @ op((1, 3), True) @ op((1, 2), False)
    return float(np.abs(lhs - rhs).max())


def _dense_sides(R, lam):
    """Both sides of the relation as dense n^3 x n^3 products."""
    left = (
        embed_with_shift(R, (1, 2), 3, lam)
        @ embed_with_shift(R, (1, 3), None, lam)
        @ embed_with_shift(R, (2, 3), 1, lam)
    )
    right = (
        embed_with_shift(R, (2, 3), None, lam)
        @ embed_with_shift(R, (1, 3), 2, lam)
        @ embed_with_shift(R, (1, 2), None, lam)
    )
    return left, right


def _summed_paths(R, lam, factors):
    """One side of the relation assembled densely from its path products."""
    size = R.n ** 3
    rows, weights = oracle_path_products(*shift_stencil(R, lam), factors)
    out = np.zeros((size, size), dtype=complex)
    np.add.at(out, (rows, np.tile(np.arange(size), 8)), weights)
    return out


def _scaled_entry(R, field, pair, change):
    """R with one coefficient of ``field`` ("delta" or "d") changed."""
    fields = {"delta": R.delta, "d": R.d}
    base = fields[field]

    def changed(i, j, lam):
        v = base(i, j, lam)
        return change(v) if (i, j) == pair else v

    fields[field] = changed
    return DynamicalRMatrix(n=R.n, **fields)


def _sampled_copy(R, lam):
    """A sampled matrix holding R at lam and its n unit shifts."""
    pts = np.array([lam] + [shifted(lam, k) for k in range(1, R.n + 1)])
    return matrix_from_samples(SampledTables(pts, *R.stacked_tables(pts)))


def _kernel_cases(n, rng):
    """(name, matrix, sample point) for members and non-members of size n."""
    member = build(*random_datum(n, rng))
    cases = [("member", member)]
    if n >= 2:
        cases.append(("delta x1.4", _scaled_entry(member, "delta", (1, 2), lambda v: 1.4 * v)))
        cases.append(("d + 0.1", _scaled_entry(member, "d", (2, 1), lambda v: v + 0.1)))
        na = int(rng.integers(1, n))
        Ra = build(*random_datum(na, rng))
        Rb = build(*random_datum(n - na, rng))
        cases.append(("compose", decouple_compose(Ra, Rb, 1.5 + 0j, 0.5 + 0.5j)))
    out = [(name, R, sample_lambda(R, rng, 1)[0]) for name, R in cases]
    lam = out[0][2]
    return out + [("sampled", _sampled_copy(member, lam), lam)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_path_product_defect_matches_dense_products(n):
    # summation order differs from the dense products, so entries agree to
    # a few ulp of the scale, not bit for bit
    rng = np.random.default_rng(100 + n)
    for name, R, lam in _kernel_cases(n, rng):
        left, right = _dense_sides(R, lam)
        dense_scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
        tol = 1e-13 * max(1.0, dense_scale)
        for factors, dense in ((_LEFT, left), (_RIGHT, right)):
            assert np.abs(_summed_paths(R, lam, factors) - dense).max() <= tol, name
        raw, scale = dqybe_defect(R, lam)
        assert abs(scale - dense_scale) <= tol, name
        assert abs(raw - float(np.abs(left - right).max())) <= tol, name
        assert abs(raw - _triple_oracle(R, lam)) <= tol, name
        if name in ("member", "sampled", "compose"):
            assert raw <= tol, name


def test_defect_large_n_member_passes_check_system():
    # n = 24: dense products would need N^2 = 13824^2 complex entries (3 GB)
    rng = np.random.default_rng(24)
    R = build(*random_datum(24, rng))
    samples = sample_lambda(R, rng, 2)
    report = check_system(R, samples=samples)
    assert report.passed
    assert max(report.global_residuals) < 1e-12


def test_defect_matches_independent_oracle_on_solution():
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(0)
    (lam,) = sample_lambda(R, rng, 1)
    raw, _ = dqybe_defect(R, lam)
    assert raw < 1e-12
    assert _triple_oracle(R, lam) < 1e-12


def test_defect_matches_independent_oracle_on_non_solution():
    # doctor one coefficient so the relation genuinely fails, then both
    # computations must agree on the defect magnitude
    p, c = golden_datum()
    base = build(p, c)

    def bad_d(i, j, lam):
        v = base.d(i, j, lam)
        if (i, j) == (1, 2):
            return v + 0.1
        return v

    R = DynamicalRMatrix(n=4, delta=base.delta, d=bad_d)
    rng = np.random.default_rng(1)
    (lam,) = sample_lambda(R, rng, 1)
    raw, _ = dqybe_defect(R, lam)
    oracle = _triple_oracle(R, lam)
    assert raw > 1e-3
    assert abs(raw - oracle) < 1e-10 * max(1.0, oracle)


def test_perturbed_diagonal_coefficient_detected():
    p, c = golden_datum()
    base = build(p, c)

    def bad_d(i, j, lam):
        v = base.d(i, j, lam)
        if (i, j) == (1, 2):
            return v + 0.1
        return v

    R = DynamicalRMatrix(n=4, delta=base.delta, d=bad_d)
    rng = np.random.default_rng(2)
    (lam,) = sample_lambda(R, rng, 1)
    assert dqybe_residual_normalized(R, lam) > 1e-3


def test_equation_tags_complete():
    assert EQUATION_TAGS == (
        "G0", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
        "E1", "E2", "E3", "E4", "E5", "E6",
    )


def test_system_vanishes_on_solutions():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        p, c = random_datum(n, rng)
        R = build(p, c)
        report = check_system(R, samples=sample_lambda(R, rng, 4))
        assert report.passed
        assert all(v < 1e-9 for v in report.per_equation.values())


def test_system_equivalent_to_global_relation():
    # a generic zero-weight non-solution must fail BOTH the component
    # system and the global relation; the fifteen equations exactly cover
    # the nonzero defect components
    rng = np.random.default_rng(4)
    n = 3
    dt = rng.uniform(0.5, 2, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    dd = rng.uniform(0.5, 2, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))

    def delta(i, j, lam):
        return complex(dt[i - 1, j - 1] * np.exp(0.1 * lam[i - 1]))

    def d(i, j, lam):
        return complex(dd[i - 1, j - 1])

    R = DynamicalRMatrix(n=n, delta=delta, d=d)
    lam = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.7 - 0.3j])
    raw, _ = dqybe_defect(R, lam)
    report = check_system(R, samples=[lam])
    assert raw > 1e-3
    assert not report.passed
    assert max(report.per_equation.values()) > 1e-3


def test_normalized_residual_scale_invariance():
    # scaling the whole matrix by a constant scales the raw defect
    # cubically; the normalized residual stays within a small factor
    p, c = golden_datum()
    base = build(p, c)

    def make(scale):
        def bad_d(i, j, lam):
            v = base.d(i, j, lam)
            if (i, j) == (1, 2):
                v = v + 0.05
            return scale * v

        def sdelta(i, j, lam):
            return scale * base.delta(i, j, lam)

        return DynamicalRMatrix(n=4, delta=sdelta, d=bad_d)

    rng = np.random.default_rng(5)
    (lam,) = sample_lambda(base, rng, 1)
    r1 = dqybe_residual_normalized(make(1.0), lam)
    r10 = dqybe_residual_normalized(make(10.0), lam)
    raw1, _ = dqybe_defect(make(1.0), lam)
    raw10, _ = dqybe_defect(make(10.0), lam)
    assert 500 < raw10 / raw1 < 2000  # cubic in the scale
    assert 0.2 < r10 / r1 < 5


def test_invertibility_factorization():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        p, c = random_datum(n, rng)
        R = build(p, c)
        (lam,) = sample_lambda(R, rng, 1)
        res = check_invertibility(R, lam)
        assert res["agree"]
        assert res["det_factorized"] != 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("datum", [golden_datum, overflow_datum, huge_datum])
def test_residual_normalized_is_the_global_residual_of_check_system(datum):
    """One normalization for both: huge tables are rescaled in each."""
    R = build(*datum())
    for lam in random_points(np.random.default_rng(3), R.n, 3):
        got = dqybe_residual_normalized(R, lam)
        assert got == check_system(R, [lam]).global_residuals[0]
        assert got < 1e-9


@pytest.mark.parametrize("c, det", [(1e-4, 0.0), (1e4, math.inf), (2.0 ** -600, 0.0),
                                    (2.0 ** 600, math.inf)],
                         ids=["underflow", "overflow", "2^-600", "2^600"])
def test_invertibility_agrees_outside_the_float_range(c, det):
    R = build(*random_datum(12, np.random.default_rng(1), "trivial"))
    samples = sample_lambda(R, np.random.default_rng(0), 2)
    S = times(R, c)
    assert check_system(S, samples).passed
    for lam in samples:
        res = check_invertibility(S, lam)
        assert res["agree"] and res["detail"] is None, res
        assert abs(res["det_dense"]) == abs(res["det_factorized"]) == det
        assert check_invertibility(R, lam)["agree"]


def _non_member_4():
    """random_datum(4, default_rng(1), "trivial"), the member, and the
    non-member with Delta_12 times 1.3, with 8 sample points of the member."""
    member = build(*random_datum(4, np.random.default_rng(1), "trivial"))
    bad = _scaled_entry(member, "delta", (1, 2), lambda v: 1.3 * v)
    return member, bad, sample_lambda(member, np.random.default_rng(0), 8)


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-6, 1e-120])
def test_a_scaled_non_member_fails_at_small_scales(s):
    """The component residuals are relative to C^3 at every C > 0: a small
    non-member fails with the worst equation and residual of scale 1."""
    _, bad, samples = _non_member_4()
    report = check_system(times(bad, s), samples)
    worst, ref = report.worst_case, check_system(bad, samples).worst_case
    assert not report.passed
    assert (worst.equation, worst.indices, worst.lam) == (ref.equation, ref.indices, ref.lam)
    assert worst.value == pytest.approx(ref.value, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(-900, 900))
def test_a_power_of_two_times_r_gives_the_component_report_of_r(k):
    """2^k R has the component report of R bit for bit.  A member's global
    residual is raw / max(1, scale) of R's defect times 2^(3k), rounded
    once: the defect at unit scale is R's, bit for bit."""
    member, bad, samples = _non_member_4()
    reports = {}
    for R in (member, bad):
        report, scaled = check_system(R, samples), check_system(times(R, 2.0 ** k), samples)
        assert scaled.per_equation == report.per_equation
        assert scaled.worst_case == report.worst_case
        assert scaled.passed == report.passed
        reports[R] = scaled
    cube = Fraction(2) ** (3 * k)
    want = []
    for lam in samples:
        raw, scale = map(Fraction, dqybe_defect(member, lam))
        want.append(float(raw * cube / max(1, scale * cube)))
    assert reports[member].global_residuals == want and reports[member].passed


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(st.integers(-1060, 1000))
@example(-1040)
def test_a_non_member_fails_at_every_power_of_two(k):
    """Below 2^-1022 the tables are subnormal and 2^(1-e) is no float; the
    non-member still fails, and no numpy warning is raised."""
    _, bad, samples = _non_member_4()
    assert not check_system(times(bad, 2.0 ** k), samples).passed


def _zero_factor(which):
    """The every-residual-zero datum with Delta_22, the plane (1,2) or both
    set to 0."""
    R = build(*parse_config(zero_residual_config())[1])
    delta = R.delta if which == "plane" else (
        lambda i, j, lam: 0j if i == j == 2 else R.delta(i, j, lam))
    d = R.d if which == "Delta_22" else (lambda i, j, lam: 0j)
    return DynamicalRMatrix(n=2, delta=delta, d=d)


@pytest.mark.parametrize("which, name", [("Delta_22", "Delta_ii at index 2"),
                                         ("plane", "det_ij at pair (1,2)"),
                                         ("both", "Delta_ii at index 2")],
                         ids=["Delta_22", "det_12", "Delta_22_and_det_12"])
def test_invertibility_names_a_zero_factor(which, name):
    W = _zero_factor(which)
    lam = np.array([0.3, 0.1j])
    assert check_system(W, [lam]).passed
    res = check_invertibility(W, lam)
    assert res == {"det_factorized": 0j, "det_dense": 0j, "agree": False,
                   "detail": f"factor {name} is 0j"}


def test_invertibility_reads_an_overflowing_plane_at_unit_scale():
    # d_12 d_21 = 1e400 is no float, but at unit scale the plane determinant is
    def tables(lams):
        delta = np.broadcast_to(np.eye(2, dtype=complex), (len(lams), 2, 2)).copy()
        d = np.broadcast_to(np.array([[0, 1e200], [1e200, 0]], dtype=complex), delta.shape).copy()
        return delta, d

    res = check_invertibility(DynamicalRMatrix.from_tables(2, tables), np.zeros(2))
    assert res["agree"] and res["detail"] is None
    assert res["det_factorized"] == res["det_dense"] == complex(math.inf, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_factor_positions_name_the_determinant_factors_in_order(n):
    """Each Delta_ii, then d_ij, d_ji, Delta_ij and Delta_ji, each over the
    pairs i < j in row-major order, in ``concat(delta.ravel(), d.ravel())``."""
    names = [("Delta", i, j) for i in range(n) for j in range(n)]
    names += [("d", i, j) for i in range(n) for j in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    want = [("Delta", i, i) for i in range(n)]
    for table, swap in (("d", False), ("d", True), ("Delta", False), ("Delta", True)):
        want += [(table, j, i) if swap else (table, i, j) for i, j in pairs]
    assert [names[p] for p in _factor_positions(n).tolist()] == want


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.3, 0.8]),
       st.sampled_from([-600, 0, 600]), st.booleans())
def test_invertibility_gathers_the_whole_table_factors_bit_for_bit(n, seed, zeros, exp, pole):
    """Gathering only the factors and scaling them by their own largest
    modulus gives the determinant, ``detail`` (a zero factor's value
    included) and ``PoleError`` text of scaling both whole tables and
    forming every plane determinant, at scales 2^-600 to 2^600."""
    rng = np.random.default_rng(seed)
    delta, d = (t[0] * 2.0 ** rng.integers(exp - 8, exp + 9, size=(n, n))
                for t in _random_stencil(rng, n, zeros))
    if pole:
        delta[divmod(int(rng.integers(n * n)), n)] = complex("nan")

    def tables(lams):
        return tuple(np.broadcast_to(t, (len(lams), n, n)).copy() for t in (delta, d))

    R, lam = DynamicalRMatrix.from_tables(n, tables), np.zeros(n)
    if pole:
        with pytest.raises(PoleError) as got:
            check_invertibility(R, lam)
        with pytest.raises(PoleError) as want:
            whole_table_result(R, lam)
        assert str(got.value) == str(want.value)
    else:
        assert repr(check_invertibility(R, lam)) == repr(whole_table_result(R, lam))


@pytest.mark.without_dense_oracle
def test_dense_oracle_compares_log_moduli_and_phases_modulo_two_pi(monkeypatch):
    R = build(*random_datum(5, np.random.default_rng(2), "trivial"))
    (lam,) = sample_lambda(R, np.random.default_rng(0), 1)
    assert np.array_equal(dense_matrix(*R.tables(lam)), dense_from_tables(*R.tables(lam)))
    res = check_invertibility(R, lam)
    slogdet = np.linalg.slogdet
    for shift, agree in ((0.0, True), (2j * np.pi, True), (-4j * np.pi, True),
                         (1e-6, False), (1e-6j, False)):
        def moved(M, shift=shift):
            sign, log_abs = slogdet(M)
            return sign * np.exp(1j * shift.imag), log_abs + shift.real

        monkeypatch.setattr(np.linalg, "slogdet", moved)
        if agree:
            assert_matches_dense(R, lam, res)
        else:
            with pytest.raises(AssertionError, match="^log-determinants differ by"):
                assert_matches_dense(R, lam, res)


def test_sample_lambda_respects_caps():
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(8)
    pts = sample_lambda(R, rng, 6, entry_cap=50.0)
    assert len(pts) == 6
    for lam in pts:
        tabs = [R.tables(lam)] + [R.tables(shifted(lam, k)) for k in range(1, 5)]
        for dt, dd in tabs:
            assert np.abs(dt).max() <= 50.0 and np.abs(dd).max() <= 50.0


def test_check_system_requires_samples():
    p, c = golden_datum()
    R = build(p, c)
    with pytest.raises(ValueError):
        check_system(R, samples=[])


# -- batched sampling against a one-point-at-a-time reference ----------------


def _sequential_sample_lambda(R, rng, count, box=2.0, entry_cap=1e3, max_tries=2000,
                              stencil=True):
    """The one-draw-at-a-time sampler: draw a point, evaluate it (and, with
    ``stencil``, its n shifted neighbours) point by point, accept it or
    draw the next."""
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise PoleError(f"could not find {count} well-conditioned sample "
                            f"points in {max_tries} draws")
        lam = rng.uniform(-box, box, R.n) + 1j * rng.uniform(-box, box, R.n)
        shifts = range(1, R.n + 1) if stencil else ()
        try:
            tabs = [R.tables(lam)] + [R.tables(shifted(lam, k)) for k in shifts]
        except PoleError:
            continue
        if max(float(np.abs(t).max()) for pair in tabs for t in pair) > entry_cap:
            continue
        out.append(lam)
    return out


def _sample_both(make, seed, count, **kw):
    """(points or exception text, rng state) of the batched sampler and of
    the reference, each on its own fresh matrix and generator."""
    results = []
    for sampler in (sample_lambda, _sequential_sample_lambda):
        rng = np.random.default_rng(seed)
        try:
            got = [lam.tobytes() for lam in sampler(make(), rng, count, **kw)]
        except PoleError as exc:
            got = str(exc)
        results.append((got, rng.bit_generator.state))
    return results


def _count_rejections(make, seed, count, **kw):
    """(accepted, drawn) of the reference sampler."""
    rng = np.random.default_rng(seed)
    pts = _sequential_sample_lambda(make(), rng, count, **kw)
    probe = np.random.default_rng(seed)
    drawn = 0
    while probe.bit_generator.state != rng.bit_generator.state:
        probe.uniform(size=2 * make().n)
        drawn += 1
    return len(pts), drawn


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_sample_lambda_matches_sequential_reference(n):
    for seed in range(3):
        p, c = random_datum(n, np.random.default_rng(40 + seed), ["trivial", "table", "exact"][seed])
        for stencil in (True, False):
            batched, reference = _sample_both(lambda: build(p, c), seed, 8, box=6.0,
                                              stencil=stencil)
            assert batched == reference


def test_sample_lambda_reference_with_pole_rejections():
    p, c = overflow_datum()
    for stencil in (True, False):
        rejected = 0
        for seed in range(4):
            batched, reference = _sample_both(lambda: build(p, c), seed, 4, box=1000.0,
                                              stencil=stencil)
            assert batched == reference
            if isinstance(batched[0], list):
                accepted, drawn = _count_rejections(lambda: build(p, c), seed, 4,
                                                    box=1000.0, stencil=stencil)
                rejected += drawn - accepted
        assert rejected > 0


def test_sample_lambda_reference_with_entry_cap_rejections():
    p, c = golden_datum()
    for stencil in (True, False):
        accepted, drawn = _count_rejections(lambda: build(p, c), 8, 6, entry_cap=2.0,
                                            stencil=stencil)
        assert drawn > accepted == 6
        for seed in range(4):
            batched, reference = _sample_both(lambda: build(p, c), seed, 6, entry_cap=2.0,
                                              stencil=stencil)
            assert batched == reference


def test_sample_lambda_exhausts_after_exactly_max_tries_draws():
    p, c = golden_datum()
    for stencil in (True, False):
        batched, reference = _sample_both(lambda: build(p, c), 3, 6, entry_cap=1.0,
                                          max_tries=30, stencil=stencil)
        assert batched == reference
        assert "in 30 draws" in batched[0]
        probe = np.random.default_rng(3)
        probe.uniform(size=(30, 2, 4))
        assert batched[1] == probe.bit_generator.state


@pytest.mark.parametrize("entry_cap, calls", [(1e3, [40]), (2.0, [40, 15, 10, 5, 40])])
def test_certify_evaluates_each_sampled_stencil_once(entry_cap, calls):
    """sample_lambda, check_system and check_invertibility on a fresh
    matrix.  When every draw is accepted, check_system asks for the stack
    sample_lambda evaluated and gets those tables back, and
    check_invertibility reads its points there: the table function runs
    only in sample_lambda's round.  When draws are rejected, check_system
    evaluates the accepted stencils once more, in one call, and
    check_invertibility reads them there."""
    inner = build(*golden_datum())
    seen = []

    def tables(lams):
        seen.append(len(lams))
        return raw_tables(inner, lams)

    R = DynamicalRMatrix.from_tables(inner.n, tables)
    samples = sample_lambda(R, np.random.default_rng(3), 8, entry_cap=entry_cap)
    report = check_system(R, samples)
    invertibility = [check_invertibility(R, lam) for lam in samples]
    assert seen == calls
    points = stencil_points(np.array(samples)).reshape(-1, R.n)
    got = R.stacked_tables(points)
    assert seen == calls
    assert R.lookup(points)[0] is got[0]  # the stack check_system read is kept
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, raw_tables(inner, points)))
    assert repr(report) == repr(check_system(inner, samples))
    assert repr(invertibility) == repr([check_invertibility(inner, lam) for lam in samples])


def _golden_with_pole_beyond_re_lam1_2():
    """The golden matrix behind plain callables that raise PoleError
    wherever Re lam_1 > 2: a box of 2 never draws such a point, but the
    shift e_1 reaches one from every draw with Re lam_1 > 1."""
    G = build(*golden_datum())

    def guarded(field):
        def coeff(i, j, lam):
            if lam[0].real > 2:
                raise PoleError(f"pole at lam={lam}")
            return field(i, j, lam)
        return coeff

    return DynamicalRMatrix(n=G.n, delta=guarded(G.delta), d=guarded(G.d))


def test_sample_lambda_stencil_mode_decides_a_pole_beyond_the_box():
    make = _golden_with_pole_beyond_re_lam1_2
    got = {}
    for stencil in (True, False):
        batched, reference = _sample_both(make, 5, 6, box=2.0, stencil=stencil)
        assert batched == reference
        got[stencil] = batched[0]
    draws = np.random.default_rng(5).uniform(-2.0, 2.0, (50, 2, 4))
    points = [(draw[0] + 1j * draw[1]).tobytes() for draw in draws]
    assert got[False] == points[:6]
    kept = [pt for pt, draw in zip(points, draws) if draw[0, 0] <= 1][:6]
    assert got[True] == kept != points[:6]


# -- batched check_system against the per-sample oracle ----------------------


def _both_reports(R, samples, **kw):
    """(batched report, per-sample oracle report) of one matrix and samples."""
    return check_system(R, samples, **kw), oracle_check_system(R, samples, **kw)


@pytest.mark.parametrize("kind", ["trivial", "table", "exact"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_check_system_equals_oracle_on_members(n, kind):
    rng = np.random.default_rng(300 + n)
    R = build(*random_datum(n, rng, kind))
    report, oracle = _both_reports(R, sample_lambda(R, rng, 8))
    assert report == oracle
    assert report.passed


@pytest.mark.parametrize("n", [3, 5, 7])
def test_check_system_equals_oracle_on_perturbed_non_members(n):
    rng = np.random.default_rng(320 + n)
    member = build(*random_datum(n, rng))
    failed = 0
    for R in (_scaled_entry(member, "delta", (1, 2), lambda v: 1.3 * v),
              _scaled_entry(member, "d", (2, 1), lambda v: v + 0.1)):
        report, oracle = _both_reports(R, sample_lambda(R, rng, 5), tol=1e-6)
        assert report == oracle
        failed += not report.passed
    assert failed > 0


def test_check_system_equals_oracle_on_a_one_index_non_member():
    R = DynamicalRMatrix(1, lambda i, j, lam: 1 + 0.3 * lam[0], lambda i, j, lam: 0j)
    report, oracle = _both_reports(R, random_points(np.random.default_rng(312), 1, 4))
    assert report == oracle
    assert report.worst_case.equation == "G0" and report.worst_case.indices == (1,)
    assert {report.per_equation[tag] for tag in EQUATION_TAGS[1:]} == {0.0}


def test_an_exact_tie_in_a_family_names_its_first_entry():
    """At points with lam_1 = lam_2, G0 at index 1 and at index 2 multiply
    the same numbers: the peak of the family is tied, and its first entry
    is named."""
    R = DynamicalRMatrix(2, lambda i, j, lam: 1 + 0.3 * lam[i - 1] if i == j else 0j,
                         lambda i, j, lam: 0j)
    points = [np.repeat(lam, 2) for lam in random_points(np.random.default_rng(312), 1, 4)]
    delta, d = R.stacked_tables(stencil_points(np.array(points)).reshape(-1, 2))
    T = np.concatenate([delta.reshape(len(points), -1).T, d.reshape(len(points), -1).T])
    g0 = _equation_values(T, 2)["G0"]
    assert np.array_equal(g0[0], g0[1]) and g0[0].all()  # tied at every sample
    report, oracle = _both_reports(R, points)
    assert report == oracle
    assert report.worst_case.equation == "G0" and report.worst_case.indices == (1,)


def test_check_system_equals_oracle_on_two_index_perturbed_non_members():
    # indices 1 and 2 coupled in one trigonometric exchange class
    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1, 2), d_classes=()),),))
    c = ClassificationParams(partition=p, per_block=(BlockConstants(0.7 + 0.2j, 1.3 - 0.4j),),
                             signs={(1,): 1, (2,): -1}, f_consts={(1,): 1, (2,): 0.5 + 0.5j})
    member = build(p, normalize_f(c)[0])
    rng = np.random.default_rng(322)
    failed = 0
    for R in (_scaled_entry(member, "delta", (1, 2), lambda v: 1.3 * v),
              _scaled_entry(member, "d", (2, 1), lambda v: v + 0.1)):
        report, oracle = _both_reports(R, sample_lambda(R, rng, 5), tol=1e-6)
        assert report == oracle
        assert {report.per_equation[tag] for tag in EQUATION_TAGS[10:]} == {0.0}
        failed += not report.passed
    assert failed > 0


def test_check_system_equals_oracle_when_every_residual_is_zero():
    _, datum = parse_config(zero_residual_config())
    R = build(*datum)
    report, oracle = _both_reports(R, sample_lambda(R, np.random.default_rng(0), 8))
    assert report == oracle
    assert report.worst_case is None and set(report.per_equation.values()) == {0.0}


def test_check_system_equals_oracle_on_sampled_matrix():
    rng = np.random.default_rng(340)
    member = build(*random_datum(4, rng, "table"))
    bases = sample_lambda(member, rng, 3)
    points = np.array([mu for lam in bases for mu in [lam] + [shifted(lam, k) for k in range(1, 5)]])
    S = matrix_from_samples(SampledTables(points, *member.stacked_tables(points)))
    report, oracle = _both_reports(S, bases)
    assert report == oracle
    assert report.passed


def test_check_system_equals_oracle_across_chunks():
    # n = 12 holds 4 samples per chunk, so 9 samples take three chunks
    rng = np.random.default_rng(12)
    R = build(*random_datum(12, rng, "exact"))
    samples = sample_lambda(R, rng, 9)
    for M in (R, _scaled_entry(R, "delta", (1, 2), lambda v: 1.3 * v)):
        report, oracle = _both_reports(M, samples)
        assert report == oracle


def test_check_system_large_n_matches_oracle_one_sample_per_chunk():
    # From 256 KiB up, numpy evaluates ``weight * fresh_temporary`` as
    # ``fresh_temporary *= weight`` (temporary elision), and complex
    # products with fused multiply-adds are not bitwise commutative.  The
    # oracle's walk reaches that size at n = 16 and names its factors, so
    # it multiplies in the verifier's order there too.
    rng = np.random.default_rng(24)
    R = build(*random_datum(24, rng))
    bad = _scaled_entry(R, "delta", (1, 2), lambda v: 1.3 * v)
    report, oracle = _both_reports(bad, sample_lambda(R, rng, 2))
    assert report == oracle
    assert min(report.global_residuals) > 1e-6


@pytest.mark.parametrize("second", [
    np.array([0.5, 0.5, 0.2j, -0.3]),       # Delta_12 has a pole at lam_1 = lam_2
    np.array([0.5, 1.5, 0.2j, -0.3]),       # ... and so at lam + e_1 here
])
def test_check_system_pole_at_second_sample_raises_oracle_error(second):
    p, c = golden_datum()
    first = sample_lambda(build(p, c), np.random.default_rng(9), 1)[0]
    messages = []
    for check in (check_system, oracle_check_system):
        with pytest.raises(PoleError) as info:
            check(build(p, c), [first, second])
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_check_system_wrong_length_sample_raises_stack_error():
    p, c = golden_datum()
    R = build(p, c)
    good = sample_lambda(R, np.random.default_rng(10), 1)[0]
    messages = []
    for check in (check_system, oracle_check_system):
        with pytest.raises(ValueError) as info:
            check(R, [good, good[:3]])
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("lambda stack must have shape (P, 4)")


# -- the cached layouts -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 5])
def test_cached_layout_arrays_are_read_only(n):
    layout, equations = _defect_layout(n), _equation_layout(n)
    arrays = [*layout.gather, layout.first, layout.second, *equations.positions,
              *equations.indices, _factor_positions(n)]
    for arr in arrays:
        # np.intp: the index type that take() reads without a conversion
        assert arr.dtype == np.intp
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.3, 0.8]))
def test_equation_layout_equals_the_oracle_at_its_entries_and_leaves_out_zeros(n, seed, zeros):
    rng = np.random.default_rng(seed)
    shape = (n + 1, n, n)
    delta, d = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
    for tab in (delta, d):
        tab[rng.random(shape) < zeros] = 0
    want = oracle_equation_values(delta[0], d[0], delta[1:], d[1:])
    got = _equation_values(np.concatenate([delta.ravel(), d.ravel()])[:, None], n)
    for tags, indices in zip(_FAMILIES, _equation_layout(n).indices):
        arity = {"G": 1, "F": 2, "E": 3}[tags[0][0]]
        # the entries are every index tuple of pairwise distinct indices, in
        # row-major order, each naming its own entry of the oracle's array
        every = [t for t in np.ndindex(*(n,) * arity) if len(set(t)) == arity]
        assert [tuple(t) for t in indices.tolist()] == [tuple(v + 1 for v in t) for t in every]
        at = tuple(np.array(every, dtype=int).reshape(-1, arity).T)
        left_out = np.ones((n,) * arity, dtype=bool)
        left_out[at] = False
        for tag in tags:
            assert got[tag].shape == (len(indices), 1)
            assert got[tag][:, 0].tobytes() == want[tag][at].tobytes()
            assert (want[tag][left_out] == 0).all()


def _random_stencil(rng, n, zeros):
    """Random (n+1, n, n) exchange and diagonal tables, a share ``zeros`` of
    their entries set to 0, and d's diagonal 0 as every matrix has it."""
    shape = (n + 1, n, n)
    delta, d = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
    for tab in (delta, d):
        tab[rng.random(shape) < zeros] = 0
    d[:, np.arange(n), np.arange(n)] = 0
    return delta, d


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
def test_cached_layout_keeps_the_paths_off_d_diagonal_binned_as_a_fresh_unique(n, seed):
    """The layout keeps exactly the path products with no d_xx factor, in
    path order, and their bins are a fresh ``np.unique`` of their (column,
    row) keys: every entry a path reaches is reached without d_xx on each
    side, by one or two kept products, named in path order by ``first``
    and ``second``, the pad, a product of d_11 alone, only ever second."""
    size = n ** 3
    delta, d = _random_stencil(np.random.default_rng(seed), n, 0.0)
    # all ones but d's diagonal: a product is 0 exactly when it has a d_xx factor
    ones = np.ones((n + 1, n, n), dtype=complex)
    marks = ones - np.eye(n)
    rows, kept, weights = [], [], []
    for side in (_LEFT, _RIGHT):
        side_rows, mark = oracle_path_products(ones, marks, side)
        rows.append(side_rows)
        kept.append(mark != 0)
        weights.append(oracle_path_products(delta, d, side)[1])
    keep = np.concatenate(kept)
    layout = _defect_layout(n)
    d_pos = np.concatenate([g[:-1] for g in layout.gather]) - (n + 1) * n * n
    d_pos = d_pos[d_pos >= 0]
    assert (d_pos // n % n != d_pos % n).all()  # no factor d_xx
    assert [g[-1] for g in layout.gather] == [(n + 1) * n * n] * 3  # the pad: d_11^3
    w = _path_weights(np.concatenate([delta.ravel(), d.ravel()]), n)
    assert w.tobytes() == np.append(np.concatenate(weights)[keep], 0).tobytes()
    keys, inv = np.unique((np.tile(np.arange(size), 16) * size + np.concatenate(rows))[keep],
                          return_inverse=True)
    assert layout.m == keys.size
    bins = inv + np.repeat([0, keys.size], [kept[0].sum(), kept[1].sum()])
    products = [[] for _ in range(2 * keys.size)]
    for k, b in enumerate(bins.tolist()):
        products[b].append(k)
    pad = bins.size
    assert [[f] if s == pad else [f, s]
            for f, s in zip(layout.first.tolist(), layout.second.tolist())] == products
    assert pad not in layout.first.tolist()


class GaussQ:
    """A Gaussian rational re + im i, held exactly as a pair of Fractions; a
    float or complex operand is converted exactly."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        if isinstance(re, complex):
            re, im = re.real, re.imag
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, GaussQ) else GaussQ(x)

    def __add__(self, other):
        other = GaussQ.of(other)
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __sub__(self, other):
        return self + -GaussQ.of(other)

    def __rsub__(self, other):
        return GaussQ.of(other) - self

    def __mul__(self, other):
        other = GaussQ.of(other)
        return GaussQ(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = GaussQ(1)
        for _ in range(k):
            out = out * self
        return out

    def __abs__(self):
        return math.hypot(self.re, self.im)

    def __eq__(self, other):
        other = GaussQ.of(other)
        return self.re == other.re and self.im == other.im

    __hash__ = None


def _entries_and_mapped_values(delta, d):
    """Every (column, row) entry of left - right with its sum of |path
    products|, and ``sign * value`` of the equation the entry map sends it
    to (0 for an entry off the map)."""
    n = delta.shape[1]
    entries, weights = oracle_entry_sums(delta, d)
    values = oracle_equation_values(delta[0], d[0], delta[1:], d[1:])
    mapped = {}
    for key in entries:
        tag, indices, sign = oracle_entry_map(n).get(key, ("G0", (1,), 0))
        mapped[key] = sign * values[tag][tuple(i - 1 for i in indices)]
    return entries, weights, mapped


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_shifted_relation_is_the_component_system_entry_by_entry_exactly(n, seed):
    """The paper's equivalence: for a zero-weight matrix the shifted
    Yang-Baxter relation holds exactly when the sixteen component equations
    do.  Entry by entry: every entry of left - right is one component
    equation's value times a sign, or identically 0, and every equation at
    every index tuple it constrains is reached exactly once.  Checked in
    exact Gaussian rational arithmetic on tables with a quarter of their
    entries 0 and d's diagonal 0, as every matrix has it."""
    rng = np.random.default_rng(100 * n + seed)
    shape = (n + 1, n, n)

    def table():
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(*shape):
            re, im = (Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
                      for _ in "ri")
            out[idx] = GaussQ(0) if rng.random() < 0.25 else GaussQ(re, im)
        return out

    delta, d = table(), table()
    for at in range(n + 1):
        for i in range(n):
            d[at, i, i] = GaussQ(0)
    entries, _, mapped = _entries_and_mapped_values(delta, d)
    assert set(oracle_entry_map(n)) <= set(entries)
    for key, value in entries.items():
        assert value == mapped[key], key
    reached = Counter((tag, indices) for tag, indices, _ in oracle_entry_map(n).values())
    assert set(reached.values()) == {1}
    assert sorted(reached) == sorted((tag, idx) for tag in EQUATION_TAGS
                                     for idx in constrained_indices(tag, n))


#: c of the float bound c u sum|path products| on |entry - sign * value|.
#: An entry sums at most 16 path products of three factors each: two
#: complex products, each within sqrt(2) gamma_2 of exact (about 2.83 u),
#: then a sum within gamma_15 of sum|terms| (Higham, Accuracy and Stability
#: of Numerical Algorithms, 2nd ed., sec. 3.1 and 3.6): about 21 u.  The
#: equation's value is at most five operations deep over the same
#: monomials: about 10 u more.  Measured: at most 5.3 over 300 draws.
ENTRY_MAP_C = 32


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.3]))
def test_shifted_relation_is_the_component_system_entry_by_entry_in_floats(n, seed, zeros):
    """The same entry map in float arithmetic, on tables whose moduli span
    2^-8 to 2^8: each entry of left - right is within ENTRY_MAP_C u
    sum|path products of the entry| of its mapped equation value."""
    rng = np.random.default_rng(seed)
    delta, d = _random_stencil(rng, n, zeros)
    delta *= 2.0 ** rng.integers(-8, 9, size=delta.shape)
    d *= 2.0 ** rng.integers(-8, 9, size=d.shape)
    entries, weights, mapped = _entries_and_mapped_values(delta, d)
    u = 2.0 ** -53
    for key, value in entries.items():
        assert abs(value - mapped[key]) <= ENTRY_MAP_C * u * weights[key], key


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.3, 0.8]))
def test_stencil_defect_equals_the_oracle_over_every_path(n, seed, zeros):
    """Leaving out the products through d_xx only drops exact zeros: the
    defect and scale are the oracle's, over all 16 n^3 products, bit for
    bit."""
    delta, d = _random_stencil(np.random.default_rng(seed), n, zeros)
    assert _stencil_defect(delta, d) == oracle_defect(delta, d)


# -- bad inputs raise ---------------------------------------------------------


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
def test_check_system_rejects_bad_tol(tol):
    p, c = golden_datum()
    R = build(p, c)
    samples = sample_lambda(R, np.random.default_rng(11), 2)
    bad = _scaled_entry(R, "delta", (1, 2), lambda v: 1.3 * v)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        check_system(bad, samples, tol=tol)


@pytest.mark.parametrize("name", ["box", "entry_cap"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -2.0])
def test_sample_lambda_rejects_bad_box_and_entry_cap(name, value):
    p, c = golden_datum()
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        sample_lambda(build(p, c), rng, 5, **{name: value})
    assert rng.bit_generator.state == state
