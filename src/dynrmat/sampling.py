"""Random generation of valid classification data, for testing and demos.

The generator draws a random nested partition (blocks / exchange classes /
d-classes) in canonical order and random constants subject to the family's
validity constraints plus mild conditioning guards: discriminants are kept
away from zero and from the square-root branch cut, and trigonometric
ratios away from 1, so that class constants stay O(10) and recovery
tolerances remain meaningful.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .params import (
    BlockConstants,
    ClassificationParams,
    QuadraticExactTwoForm,
    TrivialTwoForm,
    TwoFormSpec,
    constant_table_two_form,
    derive,
    normalize_f,
)
from .partition import IndexPartition, nd_pairs, relabel


def _random_composition(total: int, rng: np.random.Generator) -> list[int]:
    parts = []
    left = total
    while left > 0:
        size = int(rng.integers(1, left + 1))
        parts.append(size)
        left -= size
    return parts


def random_partition(n: int, rng: np.random.Generator) -> IndexPartition:
    labels = itertools.count()  # placeholders, numbered 1..n by relabel
    blocks = []
    for block_size in _random_composition(n, rng):
        classes = []
        for class_size in _random_composition(block_size, rng):
            # split the class into free indices and >= 2-element d-classes
            free_count = int(rng.integers(0, class_size + 1))
            rest = class_size - free_count
            if rest == 1:
                free_count += 1
                rest = 0
            d_sizes = []
            while rest > 0:
                size = int(rng.integers(2, rest + 1)) if rest > 2 else rest
                if rest - size == 1:
                    size += 1
                d_sizes.append(size)
                rest -= size
            classes.append(([next(labels) for _ in range(free_count)],
                            [[next(labels) for _ in range(k)] for k in d_sizes]))
        blocks.append(classes)
    return relabel(n, blocks)[0]


def _random_complex(rng: np.random.Generator, lo: float, hi: float) -> complex:
    mag = rng.uniform(lo, hi)
    phase = rng.uniform(0, 2 * np.pi)
    return complex(mag * np.cos(phase), mag * np.sin(phase))


def _random_block_constants(
    rng: np.random.Generator, force_trig: bool
) -> BlockConstants:
    for _ in range(200):
        rational = (not force_trig) and bool(rng.integers(0, 2))
        sum_c = 0j if rational else _random_complex(rng, 0.3, 3.0)
        det_c = _random_complex(rng, 0.1, 3.0)
        derived = derive(sum_c, det_c)
        if abs(derived.discriminant) < 0.3:
            continue
        disc2 = sum_c * sum_c + 4 * det_c
        if disc2.real < 0 and abs(disc2.imag) < 1e-2 * abs(disc2):
            continue  # too close to the square-root branch cut
        if not rational:
            ratio = derived.ratio
            if abs(1 - ratio) < 0.05 or abs(1 - 1 / ratio) < 0.05:
                continue  # class constants would blow up
        return BlockConstants(sum_c, det_c)
    raise RuntimeError("could not draw well-conditioned block constants")


def random_two_form(
    p: IndexPartition, rng: np.random.Generator, kind: Optional[str] = None
) -> TwoFormSpec:
    if kind is None:
        kind = rng.choice(["trivial", "exact", "table"])
    if kind == "trivial":
        return TrivialTwoForm()
    if kind == "table":
        values = {
            (i, j): _random_complex(rng, 0.5, 2.0) for (i, j) in nd_pairs(p)
        }
        return constant_table_two_form(values)
    # exact: potentials exp(sum_k a_k lam_k + b_k lam_k^2) with small
    # coefficients, giving genuinely lambda-dependent quotients
    lin = rng.uniform(-0.3, 0.3, (p.n, p.n)) + 1j * rng.uniform(-0.3, 0.3, (p.n, p.n))
    quad = rng.uniform(-0.1, 0.1, (p.n, p.n)) + 1j * rng.uniform(-0.1, 0.1, (p.n, p.n))
    return QuadraticExactTwoForm(np.zeros(p.n), lin, quad)


def random_datum(
    n: int,
    rng: np.random.Generator,
    two_form_kind: Optional[str] = None,
) -> tuple[IndexPartition, ClassificationParams]:
    """A random valid, f-normalized datum over a random partition of 1..n."""
    p = random_partition(n, rng)
    per_block = tuple(
        _random_block_constants(rng, force_trig=len(block) >= 2)
        for block in p.blocks
    )
    cross_det = {}
    for q in range(len(p.blocks)):
        for qq in range(q + 1, len(p.blocks)):
            cross_det[(q, qq)] = _random_complex(rng, 0.3, 3.0)
    signs = {}
    f_consts = {}
    for q, block in enumerate(p.blocks):
        rational = per_block[q].rational
        for dclass in block:
            for cls in dclass.all_d_classes():
                signs[cls] = int(rng.choice([-1, 1]))
                if rational:
                    f_consts[cls] = _random_complex(rng, 0.0, 2.0)
                else:
                    f_consts[cls] = _random_complex(rng, 0.3, 3.0)
    c = ClassificationParams(
        partition=p,
        per_block=per_block,
        cross_det=cross_det,
        signs=signs,
        f_consts=f_consts,
        two_form=random_two_form(p, rng, two_form_kind),
    )
    c, _ = normalize_f(c)
    return p, c
