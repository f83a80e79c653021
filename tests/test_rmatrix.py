import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrmat.errors import PoleError
from dynrmat.rmatrix import (
    composite_index,
    dense_from_tables,
    dense_point_to_json,
    embed_with_shift,
    evaluate,
    pair_invariants,
    shift_stencil,
    shifted,
    stencil_points,
    tables_from_dense,
    unit_scale,
)

from conftest import golden_datum, golden_expected_tables, off_pattern, random_points
from dynrmat.builder import build, build_commuting_ops, check_datum
from dynrmat.sampling import random_datum
from dynrmat.verifier import sample_lambda


def test_composite_index_convention():
    # (a, b) -> (a-1)*n + b, reported 0-based
    assert composite_index(3, 1, 1) == 0
    assert composite_index(3, 1, 3) == 2
    assert composite_index(3, 2, 1) == 3
    assert composite_index(3, 3, 3) == 8


def test_shifted_moves_one_component():
    lam = np.array([0.1 + 0.2j, -0.3 + 0j])
    out = shifted(lam, 2)
    assert out[0] == lam[0] and abs(out[1] - (lam[1] + 1)) < 1e-15
    assert lam[1] == -0.3 + 0j  # input untouched


def test_evaluate_sparsity_and_values():
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(0)
    (lam,) = random_points(rng, 4, 1)
    P = evaluate(R, lam)
    delta, d = golden_expected_tables(lam)
    n = 4
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            row = composite_index(n, i, j)
            assert abs(P.matrix[row, composite_index(n, j, i)] - delta[i - 1, j - 1]) < 1e-12
            if i != j:
                assert abs(P.matrix[row, row] - d[i - 1, j - 1]) < 1e-12
    # everything else is zero
    assert not off_pattern(P.matrix, n).any()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tables_from_dense_inverts_evaluate(n):
    p, c = random_datum(n, np.random.default_rng(40 + n), "table")
    R = build(p, c)
    (lam,) = sample_lambda(R, np.random.default_rng(n), 1)
    P = evaluate(R, lam)
    assert not off_pattern(P.matrix, n).any()
    delta, d = tables_from_dense(P.matrix, n)
    dt, dd = R.tables(lam)
    assert np.array_equal(delta, dt) and np.array_equal(d, dd)


_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.25)


def _special_tables(rng, shape):
    """Complex arrays whose real and imaginary parts are each drawn from
    ``_SPECIAL``, set part by part so that signed zeros survive."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.choice(_SPECIAL, shape)
    out.imag = rng.choice(_SPECIAL, shape)
    return out


def _dense_oracle(delta, d):
    """Entry-by-entry placement through composite_index: Delta_ij at row
    (i, j), column (j, i); d_ij, i != j, on the diagonal at (i, j)."""
    n = len(delta)
    M = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                M[composite_index(n, i, j), composite_index(n, i, j)] = d[i - 1, j - 1]
            M[composite_index(n, i, j), composite_index(n, j, i)] = delta[i - 1, j - 1]
    return M


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dense_round_trip_bit_for_bit(n):
    """dense_from_tables places each entry where the composite_index oracle
    does, and tables_from_dense gives back Delta and d, d with a +0j
    diagonal, with every bit of ±0.0, NaN and ±inf kept (np.array_equal
    sees neither signed zeros nor NaN); d's diagonal is never placed."""
    rng = np.random.default_rng(70 + n)
    delta, d = _special_tables(rng, (2, n, n))
    M = dense_from_tables(delta, d)
    assert M.shape == (n * n, n * n)
    assert M.tobytes() == _dense_oracle(delta, d).tobytes()
    back_delta, back_d = tables_from_dense(M, n)
    want_d = d.copy()
    np.fill_diagonal(want_d, 0)
    assert back_delta.tobytes() == delta.tobytes()
    assert back_d.tobytes() == want_d.tobytes()


@pytest.mark.parametrize("n", [1, 3, 5])
def test_tables_from_dense_reads_a_stack_and_ignores_off_pattern_entries(n):
    """A (S, n^2, n^2) stack reads as its matrices one by one, and entries
    outside the two patterns, NaN or not, change nothing."""
    rng = np.random.default_rng(80 + n)
    tables = _special_tables(rng, (3, 2, n, n))
    stack = np.stack([dense_from_tables(delta, d) for delta, d in tables])
    clean = tables_from_dense(stack, n)
    noisy = stack.copy()
    off = np.ones((n * n, n * n), dtype=bool)
    off[np.nonzero(_dense_oracle(np.ones((n, n)), np.ones((n, n))))] = False
    noisy[:, off] = _special_tables(rng, noisy[:, off].shape)
    for got in clean, tables_from_dense(noisy, n):
        assert got[0].shape == got[1].shape == (3, n, n)
        for s, M in enumerate(stack):
            one = tables_from_dense(M, n)
            assert got[0][s].tobytes() == one[0].tobytes()
            assert got[1][s].tobytes() == one[1].tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_build_commuting_ops_places_like_composite_index(seed):
    """R0 holds Delta_I at ((i, i), (i, i)) for each free index i, and each
    family operator Delta_I / |I| at ((j, j'), (j', j)) for j, j' in I."""
    rng = np.random.default_rng(90 + seed)
    p, c = golden_datum() if seed == 0 else random_datum(int(rng.integers(3, 7)), rng)
    n = p.n
    ops = build_commuting_ops(p, c)
    free = np.zeros((n * n, n * n), dtype=complex)
    family = {}
    for cls, const in zip(p.all_d_classes(), check_datum(p, c)):
        if len(cls) == 1:
            (i,) = cls
            free[composite_index(n, i, i), composite_index(n, i, i)] = const
            continue
        op = family[cls] = np.zeros((n * n, n * n), dtype=complex)
        for j in cls:
            for jp in cls:
                op[composite_index(n, j, jp), composite_index(n, jp, j)] = const / len(cls)
    assert ops["R0"].tobytes() == free.tobytes()
    assert list(ops["family"]) == list(family)
    for cls, op in family.items():
        assert ops["family"][cls].shape == op.shape
        assert ops["family"][cls].tobytes() == op.tobytes()
    if seed == 0:
        assert list(family) == [(3, 4)]


def test_shift_stencil_matches_shifted_tables():
    p, c = golden_datum()
    R = build(p, c)
    (lam,) = random_points(np.random.default_rng(5), 4, 1)
    delta_st, d_st = shift_stencil(R, lam)
    assert delta_st.shape == d_st.shape == (5, 4, 4)
    for k in range(5):
        pt = shifted(lam, k) if k else lam
        dt, dd = build(p, c).tables(pt)  # fresh matrix: no shared memo
        assert np.array_equal(delta_st[k], dt) and np.array_equal(d_st[k], dd)


def test_stencil_points_equal_shifted_bit_for_bit():
    lam = np.array([complex(-0.0, -0.0), complex(0.5, -0.0), complex(-0.0, 1.5)])
    pts = stencil_points(lam)
    assert pts.shape == (4, 3)
    for k in range(4):
        want = shifted(lam, k) if k else lam
        assert pts[k].tobytes() == want.tobytes()
    two = stencil_points(np.array([lam, 2 * lam]))
    assert two.shape == (2, 4, 3)
    assert two[0].tobytes() == pts.tobytes()


def _embed_oracle(R, slot_pair, shift_slot, lam):
    """Independent n^6 nested-loop embedding: entry by entry, multiply the
    matrix element on the active slots by the identity on the spectator,
    shifting the evaluation point by the spectator's basis label."""
    n = R.n
    out = np.zeros((n ** 3, n ** 3), dtype=complex)
    spectator = ({1, 2, 3} - set(slot_pair)).pop()
    cache = {}
    for k in range(1, n + 1):
        pt = shifted(lam, k) if shift_slot is not None else np.asarray(lam, dtype=complex)
        cache[k] = evaluate(R, pt).matrix
    for a1 in range(1, n + 1):
        for a2 in range(1, n + 1):
            for a3 in range(1, n + 1):
                for b1 in range(1, n + 1):
                    for b2 in range(1, n + 1):
                        for b3 in range(1, n + 1):
                            outs = (a1, a2, a3)
                            ins = (b1, b2, b3)
                            if outs[spectator - 1] != ins[spectator - 1]:
                                continue
                            k = outs[spectator - 1]
                            i, j = slot_pair
                            row = composite_index(n, outs[i - 1], outs[j - 1])
                            col = composite_index(n, ins[i - 1], ins[j - 1])
                            r3 = (a1 - 1) * n * n + (a2 - 1) * n + (a3 - 1)
                            c3 = (b1 - 1) * n * n + (b2 - 1) * n + (b3 - 1)
                            out[r3, c3] = cache[k][row, col]
    return out


@pytest.mark.parametrize("slot_pair,shift_slot", [
    ((1, 2), 3), ((1, 2), None),
    ((1, 3), 2), ((1, 3), None),
    ((2, 3), 1), ((2, 3), None),
])
def test_embed_with_shift_against_nested_loop_oracle(slot_pair, shift_slot):
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(7)
    (lam,) = random_points(rng, 4, 1)
    fast = embed_with_shift(R, slot_pair, shift_slot, lam)
    slow = _embed_oracle(R, slot_pair, shift_slot, lam)
    assert np.abs(fast - slow).max() < 1e-13


def test_embed_rejects_bad_slots():
    p, c = golden_datum()
    R = build(p, c)
    lam = np.zeros(4, dtype=complex) + 0.5
    with pytest.raises(ValueError):
        embed_with_shift(R, (2, 1), None, lam)
    with pytest.raises(ValueError):
        embed_with_shift(R, (1, 2), 1, lam)  # shift slot must spectate


def test_pair_invariants_constancy():
    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(2)
    pts = random_points(rng, 4, 3)
    sums, dets = pair_invariants(*R.stacked_tables(np.array(pts)))
    iu = np.triu_indices(4, 1)
    sums, dets = sums[:, iu[0], iu[1]], dets[:, iu[0], iu[1]]
    assert np.abs(sums - sums[0]).max() < 1e-10
    assert np.abs(dets - dets[0]).max() < 1e-10
    # the golden datum has pair sum 0 and pair determinant 1 on every
    # cross-class pair
    for i, j, s, det in zip(iu[0] + 1, iu[1] + 1, sums[0], dets[0]):
        if (i, j) == (3, 4):
            assert abs(s + 2) < 1e-12 and abs(det + 1) < 1e-12
        else:
            assert abs(s) < 1e-12 and abs(det - 1) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_pair_invariants_match_scalar_loop(n, count, seed):
    rng = np.random.default_rng(seed)

    def stack():
        mag = 10.0 ** rng.uniform(-8, 8, (count, n, n))
        return mag * (rng.standard_normal((count, n, n))
                      + 1j * rng.standard_normal((count, n, n)))

    delta, d = stack(), stack()
    sums, dets = pair_invariants(delta, d)
    assert sums.shape == dets.shape == (count, n, n)
    eps = np.finfo(float).eps
    for p in range(count):
        for i in range(n):
            for j in range(i + 1, n):
                a, b = complex(delta[p, i, j]), complex(delta[p, j, i])
                x, y = complex(d[p, i, j]), complex(d[p, j, i])
                assert complex(sums[p, i, j]) == a + b
                # with fused multiply-adds a component of a complex product
                # is rounded once, not twice: allow 4 eps of the products' size
                want = x * y - a * b
                bound = 4 * eps * (abs(x) * abs(y) + abs(a) * abs(b))
                got = complex(dets[p, i, j])
                assert abs(got.real - want.real) <= bound
                assert abs(got.imag - want.imag) <= bound


def test_pole_detection():
    p, c = golden_datum()
    R = build(p, c)
    lam = np.array([0.5, 0.5, 0.25, 0.25], dtype=complex)  # lam1 == lam2
    with pytest.raises(PoleError):
        R.tables(lam)


def test_dense_point_json_round_trip():
    from sampled_oracle import dense_point_from_json

    p, c = golden_datum()
    R = build(p, c)
    rng = np.random.default_rng(3)
    (lam,) = random_points(rng, 4, 1)
    P = evaluate(R, lam)
    back = dense_point_from_json(dense_point_to_json(P))
    assert back.n == P.n
    assert np.abs(back.matrix - P.matrix).max() == 0
    assert np.abs(np.asarray(back.lam) - np.asarray(P.lam)).max() == 0


def _ldexp_reference(column):
    """k, C 2^k and the entries times 2^k of one complex column, from
    ``math.frexp`` of its largest modulus C and ``np.ldexp``."""
    C = float(np.abs(column).max())
    k = 1 - math.frexp(C)[1]
    return k, math.ldexp(C, k), np.ldexp(column.view(np.float64), k).view(np.uint64)


@pytest.mark.filterwarnings("error")
def test_unit_scale_gives_the_bits_of_ldexp_at_the_ends_of_the_float_range():
    """Columns with C below 2^-1022 (2^k is no float there), near 2^1023
    (the smaller entries go subnormal), near 1 and 0: the one-array path
    and the per-column path give the reference's bits."""
    rng = np.random.default_rng(5)
    top = np.array([-1070, -1030, 1023, 1010, 0, 0])[:, None]
    T = np.ldexp(rng.uniform(-1, 1, (9, 6, 2)), top - rng.integers(0, 30, (9, 6, 2)))
    T = T.view(complex)[..., 0]
    T[:, 5] = 0
    want = [_ldexp_reference(T[:, j].copy()) for j in range(6)]
    got = T.copy()
    ks, units = unit_scale(got, axis=0)
    assert (ks, units) == ([w[0] for w in want], [w[1] for w in want])
    assert np.array_equal(got.T.copy().view(np.uint64), np.array([w[2] for w in want]))
    for j, (k, unit, scaled) in enumerate(want):
        column = T[:, j].copy()
        assert unit_scale(column) == (k, unit)
        assert np.array_equal(column.view(np.uint64), scaled)
