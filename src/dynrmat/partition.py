"""Ordered partitions of the index set {1..n}.

The index set of a zero-weight dynamical R-matrix is organised on three
levels:

* *coupling blocks* -- maximal groups of indices coupled through constant
  exchange coefficients (each block carries its own sum/determinant
  constants);
* *exchange classes* inside a block -- groups whose mutual exchange
  coefficients are generically nonvanishing in both directions;
* *diagonal classes* (d-classes) inside an exchange class -- groups whose
  diagonal coefficients vanish identically; singleton d-classes are called
  *free* indices.

An :class:`IndexPartition` stores this nesting in canonical order: reading
the structure depth-first must enumerate 1, 2, ..., n exactly, every
multi-element d-class has at least two members, and inside each exchange
class the free indices precede the multi-element d-classes.

All indices are 1-based, here and in every report and JSON document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence


@dataclass(frozen=True)
class DeltaClass:
    """One exchange class: free indices followed by multi-element d-classes."""

    free: tuple[int, ...] = ()
    d_classes: tuple[tuple[int, ...], ...] = ()

    def members(self) -> tuple[int, ...]:
        out = list(self.free)
        for cls in self.d_classes:
            out.extend(cls)
        return tuple(out)

    def all_d_classes(self) -> tuple[tuple[int, ...], ...]:
        """All d-classes including the free singletons, in declaration order."""
        return tuple((i,) for i in self.free) + tuple(self.d_classes)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class IndexPartition:
    """Ordered partition of {1..n} into blocks / exchange classes / d-classes."""

    n: int
    blocks: tuple[tuple[DeltaClass, ...], ...] = field(default_factory=tuple)

    # -- iteration helpers -------------------------------------------------

    def delta_classes(self) -> Iterator[tuple[int, int, DeltaClass]]:
        """Yield (block_index, class_index_within_block, class), 0-based."""
        for q, block in enumerate(self.blocks):
            for p, dclass in enumerate(block):
                yield q, p, dclass

    def all_d_classes(self) -> list[tuple[int, ...]]:
        """Every d-class (free singletons included) in declaration order."""
        out: list[tuple[int, ...]] = []
        for _, _, dclass in self.delta_classes():
            out.extend(dclass.all_d_classes())
        return out

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")


def relabel(n: int, blocks) -> tuple[IndexPartition, dict]:
    """Number the labels of ``blocks`` 1..n depth-first: the canonical order.

    ``blocks`` is a sequence of blocks, each a sequence of exchange classes
    given as ``(free, d_classes)`` over arbitrary labels.  Labels are
    numbered block by block, class by class, frees before d-classes, in the
    order given.  Returns the partition and the map old label -> new label,
    in new-label order.
    """
    index_map: dict = {}

    def number(labels) -> tuple[int, ...]:
        for i in labels:
            index_map[i] = len(index_map) + 1
        return tuple(index_map[i] for i in labels)

    relabelled = tuple(
        tuple(
            DeltaClass(free=number(free), d_classes=tuple(number(c) for c in d_classes))
            for free, d_classes in block
        )
        for block in blocks
    )
    return IndexPartition(n=n, blocks=relabelled), index_map


def validate(p: IndexPartition) -> ValidationResult:
    """Check all structural invariants of an :class:`IndexPartition`.

    Returns a result value (never raises): the first violated invariant is
    reported with the offending indices.
    """
    if p.n < 1:
        return ValidationResult(False, f"n must be positive, got {p.n}")
    seen: list[int] = []
    for q, block in enumerate(p.blocks):
        if len(block) == 0:
            return ValidationResult(False, f"block {q + 1} is empty")
        for dclass in block:
            for cls in dclass.d_classes:
                if len(cls) < 2:
                    return ValidationResult(
                        False,
                        f"d-class {list(cls)} has fewer than 2 members; "
                        "singletons must be listed as free indices",
                    )
            members = dclass.members()
            if not members:
                return ValidationResult(False, f"empty exchange class in block {q + 1}")
            seen.extend(members)
    expected = list(range(1, p.n + 1))
    if seen != expected:
        if sorted(seen) == expected:
            return ValidationResult(
                False,
                f"indices out of canonical order: declaration order is {seen}",
            )
        return ValidationResult(
            False,
            f"declared indices {sorted(seen)} do not cover 1..{p.n} exactly",
        )
    return ValidationResult(True)


def d_class_of(p: IndexPartition, i: int) -> tuple[int, ...]:
    """The (possibly singleton) d-class containing index ``i``."""
    p._check_index(i)
    for cls in p.all_d_classes():
        if i in cls:
            return cls
    raise IndexError(f"index {i} not found in partition")


def delta_class_of(p: IndexPartition, i: int) -> tuple[int, ...]:
    """The members of the exchange class containing index ``i``."""
    p._check_index(i)
    for _, _, dclass in p.delta_classes():
        members = dclass.members()
        if i in members:
            return members
    raise IndexError(f"index {i} not found in partition")


def nd_pairs(p: IndexPartition) -> list[tuple[int, int]]:
    """All ordered pairs (i, j), i < j, whose members lie in distinct d-classes."""
    class_id = class_id_map(p)
    return [
        (i, j)
        for i in range(1, p.n + 1)
        for j in range(i + 1, p.n + 1)
        if class_id[i] != class_id[j]
    ]


def class_id_map(p: IndexPartition) -> dict[int, int]:
    """Map each index to the ordinal of its d-class in declaration order."""
    out: dict[int, int] = {}
    for cid, cls in enumerate(p.all_d_classes()):
        for i in cls:
            out[i] = cid
    return out


# -- JSON schema -----------------------------------------------------------

def to_json(p: IndexPartition) -> dict:
    return {
        "n": p.n,
        "blocks": [
            [
                {"free": list(d.free), "d_classes": [list(c) for c in d.d_classes]}
                for d in block
            ]
            for block in p.blocks
        ],
    }


def from_json(doc: dict) -> IndexPartition:
    blocks = tuple(
        tuple(
            DeltaClass(
                free=tuple(int(i) for i in d.get("free", [])),
                d_classes=tuple(
                    tuple(int(i) for i in cls) for cls in d.get("d_classes", [])
                ),
            )
            for d in block
        )
        for block in doc["blocks"]
    )
    return IndexPartition(n=int(doc["n"]), blocks=blocks)


def single_class_partition(n: int) -> IndexPartition:
    """All of 1..n in one d-class (n >= 2) or a single free index (n = 1)."""
    if n == 1:
        cls = DeltaClass(free=(1,))
    else:
        cls = DeltaClass(d_classes=(tuple(range(1, n + 1)),))
    return IndexPartition(n=n, blocks=((cls,),))


def all_free_partition(n: int) -> IndexPartition:
    """All of 1..n free inside a single exchange class."""
    return IndexPartition(n=n, blocks=((DeltaClass(free=tuple(range(1, n + 1))),),))
