import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynrmat.partition import (
    DeltaClass,
    IndexPartition,
    all_free_partition,
    class_id_map,
    d_class_of,
    delta_class_of,
    from_json,
    nd_pairs,
    relabel,
    single_class_partition,
    to_json,
    validate,
)
from dynrmat.sampling import random_partition

from conftest import golden_datum


def test_golden_partition_valid():
    p, _ = golden_datum()
    assert validate(p)


def test_helpers_valid():
    for n in range(1, 7):
        assert validate(all_free_partition(n))
        assert validate(single_class_partition(n))


def test_rejects_out_of_order():
    p = IndexPartition(
        n=3, blocks=((DeltaClass(free=(2, 1, 3)),),)
    )
    res = validate(p)
    assert not res and "order" in res.message


def test_rejects_gap():
    p = IndexPartition(n=3, blocks=((DeltaClass(free=(1, 3)),),))
    res = validate(p)
    assert not res


def test_rejects_singleton_d_class():
    p = IndexPartition(n=2, blocks=((DeltaClass(free=(1,), d_classes=((2,),)),),))
    res = validate(p)
    assert not res and "free" in res.message


def test_rejects_empty_block():
    p = IndexPartition(n=1, blocks=((), (DeltaClass(free=(1,)),)))
    assert not validate(p)


def test_nd_pairs_golden():
    p, _ = golden_datum()
    pairs = nd_pairs(p)
    assert (3, 4) not in pairs
    assert set(pairs) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}


def test_class_lookup_golden():
    p, _ = golden_datum()
    assert d_class_of(p, 3) == (3, 4)
    assert d_class_of(p, 1) == (1,)
    assert delta_class_of(p, 4) == (1, 2, 3, 4)
    cid = class_id_map(p)
    assert cid[3] == cid[4] != cid[1]


def test_json_round_trip():
    p, _ = golden_datum()
    assert from_json(to_json(p)) == p


def test_members_and_all_d_classes():
    cls = DeltaClass(free=(1, 2), d_classes=((3, 4), (5, 6, 7)))
    assert cls.members() == (1, 2, 3, 4, 5, 6, 7)
    assert cls.all_d_classes() == ((1,), (2,), (3, 4), (5, 6, 7))


def _as_blocks(p):
    return [[(d.free, d.d_classes) for d in block] for block in p.blocks]


def test_relabel_of_a_canonical_partition_is_the_identity():
    for p in (golden_datum()[0], all_free_partition(3), single_class_partition(4),
              random_partition(9, np.random.default_rng(5))):
        q, index_map = relabel(p.n, _as_blocks(p))
        assert q == p
        assert list(index_map.items()) == [(i, i) for i in range(1, p.n + 1)]


def test_relabel_numbers_shuffled_labels_depth_first_frees_first():
    blocks = [[(["e"], [("b", "x")]), ((), [("q", "a"), ("z", "c")])], [(("m", "k"), ())]]
    p, index_map = relabel(9, blocks)
    assert p == IndexPartition(n=9, blocks=(
        (DeltaClass(free=(1,), d_classes=((2, 3),)),
         DeltaClass(d_classes=((4, 5), (6, 7)))),
        (DeltaClass(free=(8, 9)),),
    ))
    assert list(index_map.items()) == [
        ("e", 1), ("b", 2), ("x", 3), ("q", 4), ("a", 5), ("z", 6), ("c", 7), ("m", 8), ("k", 9)]
    assert validate(p)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=9), seed=st.integers(0, 2**31 - 1))
def test_relabel_undoes_a_permutation_of_the_labels(n, seed):
    rng = np.random.default_rng(seed)
    p = random_partition(n, rng)
    perm = dict(zip(range(1, n + 1), (rng.permutation(n) + 1).tolist()))
    shuffled = [[([perm[i] for i in free], [[perm[i] for i in c] for c in dcs])
                 for free, dcs in block] for block in _as_blocks(p)]
    q, index_map = relabel(n, shuffled)
    assert q == p
    assert index_map == {perm[i]: i for i in range(1, n + 1)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=9), seed=st.integers(0, 2**31 - 1))
def test_random_partitions_always_valid(n, seed):
    rng = np.random.default_rng(seed)
    p = random_partition(n, rng)
    assert validate(p)
    members = [i for cls in p.all_d_classes() for i in cls]
    assert sorted(members) == list(range(1, n + 1))
    for cls in p.all_d_classes():
        assert len(cls) != 0
    # d-classes of size >= 2 never hide behind a free declaration
    for _, _, dclass in p.delta_classes():
        for cls in dclass.d_classes:
            assert len(cls) >= 2


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(0, 2**31 - 1))
def test_json_round_trip_random(n, seed):
    rng = np.random.default_rng(seed)
    p = random_partition(n, rng)
    assert from_json(to_json(p)) == p
