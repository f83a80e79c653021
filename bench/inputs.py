"""Seeded, stratified inputs for the benchmark workloads.

A template fixes everything that changes the amount or the kind of work:
the index partition (blocks, exchange classes, d-classes), which blocks
are trigonometric (nonzero sum constant) or rational, the signs, and the
2-form kind.  The seed draws only the continuous constants (and, in the
workloads, the lambda points), so every seed runs the same mix of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import dynrmat as dr
from dynrmat.partition import nd_pairs


@dataclass(frozen=True)
class Template:
    """Shape of one generated datum.

    ``shape`` lists blocks separated by ``|``; each block starts with ``T``
    (nonzero sum constant) or ``R`` (zero sum constant) and lists its
    exchange classes separated by ``,``; a class is ``f<k>`` free indices
    followed by ``d<m>`` d-classes, e.g. ``"T f2d2,f1 | R d2"``.
    """

    shape: str
    two_form: str = "trivial"  # "trivial" | "table" | "exact"

    @property
    def n(self) -> int:
        return parse_shape(self.shape)[1]


def parse_shape(shape: str):
    """Returns (blocks, n) with blocks = [(trig, [(free, (dsize, ...)), ...])]."""
    blocks = []
    n = 0
    for text in shape.split("|"):
        text = text.strip()
        kind, _, rest = text.partition(" ")
        if kind not in ("T", "R"):
            raise ValueError(f"block kind must be T or R in {shape!r}")
        classes = []
        for cls in rest.split(","):
            cls = cls.strip()
            free = 0
            dsizes = []
            pos = 0
            while pos < len(cls):
                tag = cls[pos]
                end = pos + 1
                while end < len(cls) and cls[end].isdigit():
                    end += 1
                count = int(cls[pos + 1:end])
                if tag == "f":
                    free += count
                elif tag == "d" and count >= 2:
                    dsizes.append(count)
                else:
                    raise ValueError(f"bad class {cls!r} in {shape!r}")
                pos = end
            classes.append((free, tuple(dsizes)))
            n += free + sum(dsizes)
        if kind == "R" and len(classes) > 1:
            raise ValueError("a rational block has a single exchange class")
        blocks.append((kind == "T", classes))
    return blocks, n


def make_partition(shape: str) -> dr.IndexPartition:
    """Canonically numbered partition of a shape string."""
    blocks, n = parse_shape(shape)
    out = []
    nxt = 1
    for _, classes in blocks:
        block = []
        for free, dsizes in classes:
            frees = tuple(range(nxt, nxt + free))
            nxt += free
            dcs = []
            for size in dsizes:
                dcs.append(tuple(range(nxt, nxt + size)))
                nxt += size
            block.append(dr.DeltaClass(free=frees, d_classes=tuple(dcs)))
        out.append(tuple(block))
    return dr.IndexPartition(n=n, blocks=tuple(out))


def _complex(rng: np.random.Generator, lo: float, hi: float) -> complex:
    mag = rng.uniform(lo, hi)
    phase = rng.uniform(0, 2 * np.pi)
    return complex(mag * np.cos(phase), mag * np.sin(phase))


def _block_constants(rng: np.random.Generator, trig: bool) -> dr.BlockConstants:
    # Same conditioning guards as the library's own sampler: discriminant away
    # from 0 and from the square-root cut, trigonometric ratio away from 1.
    for _ in range(1000):
        s = _complex(rng, 0.3, 3.0) if trig else 0j
        sigma = _complex(rng, 0.1, 3.0)
        der = dr.derive(s, sigma)
        if abs(der.discriminant) < 0.3:
            continue
        disc2 = s * s + 4 * sigma
        if disc2.real < 0 and abs(disc2.imag) < 1e-2 * abs(disc2):
            continue
        if trig and (abs(1 - der.ratio) < 0.05 or abs(1 - 1 / der.ratio) < 0.05):
            continue
        return dr.BlockConstants(s, sigma)
    raise RuntimeError("could not draw well-conditioned block constants")


@dataclass
class Datum:
    """A generated datum together with the raw data needed to write it as a
    JSON config (exact 2-forms cannot be serialized from closures)."""

    template: Template
    partition: dr.IndexPartition
    params: dr.ClassificationParams
    table_values: dict        # (i, j) -> complex, table 2-forms
    potentials: dict          # i -> (lin, quad) arrays, exact 2-forms

    def build(self) -> dr.DynamicalRMatrix:
        return dr.build(self.partition, self.params)


def _potential(lin: np.ndarray, quad: np.ndarray):
    def beta(lam):
        lam = np.asarray(lam, dtype=complex)
        return complex(np.exp(np.dot(lin, lam) + np.dot(quad, lam * lam)))
    return beta


def exact_two_form(potentials: dict) -> dr.ExactTwoForm:
    return dr.ExactTwoForm(beta={i: _potential(*pq) for i, pq in potentials.items()})


def draw_potentials(n: int, rng: np.random.Generator) -> dict:
    lin = rng.uniform(-0.3, 0.3, (n, n)) + 1j * rng.uniform(-0.3, 0.3, (n, n))
    quad = rng.uniform(-0.1, 0.1, (n, n)) + 1j * rng.uniform(-0.1, 0.1, (n, n))
    return {i: (lin[i - 1], quad[i - 1]) for i in range(1, n + 1)}


def draw_datum(template: Template, rng: np.random.Generator) -> Datum:
    """Draw the constants of ``template``.  Signs are +1 in blocks with a
    nonzero sum constant and alternate by d-class ordinal in the others."""
    blocks, n = parse_shape(template.shape)
    p = make_partition(template.shape)
    per_block = tuple(_block_constants(rng, trig) for trig, _ in blocks)
    cross = {
        (q, qq): _complex(rng, 0.3, 3.0)
        for q in range(len(blocks)) for qq in range(q + 1, len(blocks))
    }
    signs, f = {}, {}
    ordinal = 0
    for q, block in enumerate(p.blocks):
        for dclass in block:
            for cls in dclass.all_d_classes():
                trig = not per_block[q].rational
                signs[cls] = 1 if trig or ordinal % 2 == 0 else -1
                ordinal += 1
                if per_block[q].rational:
                    f[cls] = _complex(rng, 0.0, 2.0)
                else:
                    f[cls] = _complex(rng, 0.3, 3.0)
    table_values, potentials = {}, {}
    if template.two_form == "trivial":
        g = dr.TrivialTwoForm()
    elif template.two_form == "table":
        table_values = {pair: _complex(rng, 0.5, 2.0) for pair in nd_pairs(p)}
        g = dr.constant_table_two_form(table_values)
    elif template.two_form == "exact":
        potentials = draw_potentials(n, rng)
        g = exact_two_form(potentials)
    else:
        raise ValueError(f"unknown 2-form kind {template.two_form!r}")
    c = dr.ClassificationParams(
        partition=p, per_block=per_block, cross_det=cross, signs=signs,
        f_consts=f, two_form=g,
    )
    c, _ = dr.normalize_f(c)
    return Datum(template, p, c, table_values, potentials)


def fresh(R: dr.DynamicalRMatrix) -> dr.DynamicalRMatrix:
    """The same coefficient fields behind an empty table cache, so that every
    operation evaluates its tables itself."""
    return dr.DynamicalRMatrix(n=R.n, delta=R.delta, d=R.d, provenance=R.provenance)


def coupled_pair(p: dr.IndexPartition) -> tuple[int, int]:
    """First pair of distinct d-classes inside one exchange class."""
    for block in p.blocks:
        for dclass in block:
            classes = dclass.all_d_classes()
            if len(classes) >= 2:
                return classes[0][0], classes[1][0]
    raise ValueError("template has no exchange class with two d-classes")


def scaled_exchange(R: dr.DynamicalRMatrix, pair, factor) -> dr.DynamicalRMatrix:
    """Non-member: Delta_ij of one coupled pair multiplied by ``factor(lam)``,
    which breaks the pair's constant sum Delta_ij + Delta_ji."""
    i0, j0 = pair

    def delta(i, j, lam):
        v = R.delta(i, j, lam)
        return v * factor(lam) if (i, j) == (i0, j0) else v

    return dr.DynamicalRMatrix(n=R.n, delta=delta, d=R.d)


def one_sided_diagonal(R: dr.DynamicalRMatrix, pair) -> dr.DynamicalRMatrix:
    """Non-member: d_ij of one coupled pair set to 0 while d_ji stays."""
    i0, j0 = pair

    def d(i, j, lam):
        return 0j if (i, j) == (i0, j0) else R.d(i, j, lam)

    return dr.DynamicalRMatrix(n=R.n, delta=R.delta, d=d)


def draw_points(rng: np.random.Generator, n: int, count: int, box: float = 2.0):
    return [rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n)
            for _ in range(count)]
