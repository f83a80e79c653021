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
from typing import Any, Iterator

import numpy as np

from .errors import ParameterError


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

    def d_classes(self) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
        """Yield (q, pos, k, cls) for every d-class, free singletons included,
        in declaration order: its 0-based block q, the 0-based position pos
        of its exchange class in the block and k of the d-class in that
        exchange class, and its members cls."""
        for q, block in enumerate(self.blocks):
            for pos, dclass in enumerate(block):
                for k, cls in enumerate(dclass.all_d_classes()):
                    yield q, pos, k, cls

    def all_d_classes(self) -> list[tuple[int, ...]]:
        """Every d-class (free singletons included) in declaration order."""
        return [cls for _, _, _, cls in self.d_classes()]


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


def index_table(p: IndexPartition) -> np.ndarray:
    """The (n, 3) int array whose row i - 1 holds index i's 0-based block,
    exchange-class ordinal and d-class ordinal, both ordinals counted in
    declaration order over the whole partition; ``KeyError`` when ``p``
    lacks one of 1..n."""
    rows: dict[int, tuple[int, int, int]] = {}
    x = k = 0
    for q, block in enumerate(p.blocks):
        # the order of IndexPartition.d_classes, without its tuples
        for dclass in block:
            for i in dclass.free:
                rows[i] = (q, x, k)
                k += 1
            for cls in dclass.d_classes:
                rows.update(dict.fromkeys(cls, (q, x, k)))
                k += 1
            x += 1
    return np.array([rows[i] for i in range(1, p.n + 1)], dtype=int).reshape(-1, 3)


def nd_mask(p: IndexPartition) -> np.ndarray:
    """The n x n boolean matrix of the 0-based pairs in distinct d-classes,
    both orientations; ``KeyError`` when ``p`` lacks one of 1..n."""
    cid = index_table(p)[:, 2]
    return cid[:, None] != cid[None, :]


def nd_pairs(p: IndexPartition) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of the upper triangle of :func:`nd_mask`, row by row."""
    rows, cols = np.nonzero(np.triu(nd_mask(p), 1))
    return list(zip((rows + 1).tolist(), (cols + 1).tolist()))


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


def is_json_number(value: Any) -> bool:
    """An int or a float as ``json`` parses them: a boolean is not one."""
    return type(value) in (int, float)


def json_type(value: Any) -> str:
    """The JSON type of a parsed value, with its article, for messages."""
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    return {dict: "an object", list: "a list", str: "a string"}.get(type(value), "null")


def json_value(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind``, dict or list; else :class:`ParameterError` naming ``what``."""
    if not isinstance(value, kind):
        article = "an object" if kind is dict else "a list"
        raise ParameterError(f"{what} must be {article}, got {json_type(value)}")
    return value


def json_int(value: Any, what: str) -> int:
    """``value`` as an int if it is an integral JSON number (4 or 4.0); a boolean,
    a fraction, a string or any other value raises :class:`ParameterError` naming ``what``."""
    if is_json_number(value) and value % 1 == 0:
        return int(value)
    got = repr(value) if isinstance(value, float) else json_type(value)
    raise ParameterError(f"{what} must be an integer, got {got}")


def from_json(doc: Any) -> IndexPartition:
    """The partition of ``{"n": n, "blocks": [[{"free": [i, ...], "d_classes":
    [[i, ...], ...]}, ...], ...]}``; a field or an item of another JSON type
    raises :class:`ParameterError` naming it."""
    doc = json_value(doc, dict, '"partition"')

    def indices(values: Any, what: str) -> tuple[int, ...]:
        return tuple(json_int(i, "a partition index") for i in json_value(values, list, what))

    def exchange_class(d: Any) -> DeltaClass:
        d = json_value(d, dict, "an exchange class")
        d_classes = json_value(d.get("d_classes", []), list, '"d_classes"')
        return DeltaClass(free=indices(d.get("free", []), '"free"'),
                          d_classes=tuple(indices(cls, "a d-class") for cls in d_classes))

    blocks = tuple(tuple(map(exchange_class, json_value(block, list, "a block")))
                   for block in json_value(doc.get("blocks"), list, 'partition "blocks"'))
    return IndexPartition(n=json_int(doc.get("n"), 'partition "n"'), blocks=blocks)


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
