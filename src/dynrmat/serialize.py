"""JSON schemas for configs, data, and sampled matrices.

One config schema covers two kinds of input, discriminated by ``kind``:

* ``"datum"`` -- a full classification datum:
  ``{"kind": "datum", "partition": {...}, "per_block": [{"S": C, "Sigma": C}],
  "cross_sigma": [[q, q', C]], "signs": {"3,4": 1}, "f": {"3,4": C},
  "two_form": {...}}`` where ``C`` is a complex number and d-class keys are
  comma-joined member indices.
* ``"matrix"`` -- a raw sampled matrix:
  ``{"kind": "matrix", "n": n, "samples": [sample, ...]}``.

Complex numbers are always objects ``{"re": float, "im": float}`` for
bit-exact round-trips.  A sample is ``{"n": n, "lambda": [C, ...],
"entries": [{"row": [a, b], "col": [c, d], "re": .., "im": ..}, ...]}``
listing nonzero entries only, with factor indices in 1..n; of entries that
repeat a (row, col) pair the last one counts.  All samples of a config are
parsed in one pass straight to :class:`SampledTables`, the (S, n, n)
exchange and diagonal table stacks, without a dense matrix.  A position
outside the two zero-weight patterns whose value is not below
:data:`~dynrmat.rmatrix.ZERO_WEIGHT_TOL` in modulus raises
:class:`NotInFamilyError` naming the sample and the entry; an explicit 0
there is legal.  A sampled matrix finds the tables of a stack of points by
their :func:`sample_keys`.

2-form schemas: ``{"type": "trivial"}``; ``{"type": "table", "values":
{"1,2": C}}`` (constant per unordered pair); ``{"type": "exact",
"potentials": {"1": {"const": C, "lin": [C...], "quad": [C...]}}}`` giving
per-index potentials exp(const + sum_k lin_k lam_k + sum_k quad_k lam_k^2),
keyed "1".."n" (an index without one has beta_i = 1).  An exact 2-form is
read into, and written back from, the coefficient form
:class:`~dynrmat.params.QuadraticExactTwoForm`, whose tables are closed-form.
Bad keys, indices and coefficients raise :class:`ParameterError` naming them,
and so does a field of the wrong JSON type (a list where an object belongs,
say), or a config that is not an object.
"""

from __future__ import annotations

import cmath
import json
from itertools import chain
from operator import itemgetter
from typing import Any, NamedTuple, Optional

import numpy as np

from .errors import NotInFamilyError, ParameterError, PoleError
from .params import (
    BlockConstants,
    ClassificationParams,
    ConstantTableTwoForm,
    ExactTwoForm,
    QuadraticExactTwoForm,
    TableTwoForm,
    TrivialTwoForm,
    TwoFormSpec,
    constant_table_two_form,
)
from .partition import IndexPartition
from .partition import from_json as partition_from_json
from .partition import to_json as partition_to_json
from .rmatrix import ZERO_WEIGHT_TOL, DynamicalRMatrix


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def json_to_complex(obj: Any) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ParameterError(f"expected a complex object {{re, im}}, got {obj!r}")
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"expected a complex object {{re, im}}, got {obj!r}") from exc


def _json_type(value: Any) -> str:
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    return {dict: "an object", list: "a list", str: "a string"}.get(type(value), "null")


def _field(obj: dict, name: str, kind: type, default: Any) -> Any:
    """``obj[name]``, or ``default`` when it is absent; a value of another
    JSON type raises :class:`ParameterError` naming the field."""
    if name not in obj:
        return default
    value = obj[name]
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ParameterError(f'"{name}" must be {what}, got {_json_type(value)}')
    return value


def _parse_class_key(key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in key.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad d-class key {key!r}") from exc


# -- 2-form -----------------------------------------------------------------


def two_form_to_json(g: TwoFormSpec, n: int, probe_lam: Optional[np.ndarray] = None) -> dict:
    """JSON of a 2-form on n indices; a table 2-form is read from one table
    at ``probe_lam``, or at the origin of C^n when it is None.  A pole of
    the table there raises :class:`PoleError` (:class:`ParameterError` at
    the origin); a constant below ``POLE_GUARD`` is a pole at every point
    and raises :class:`ParameterError` naming it."""
    if isinstance(g, TrivialTwoForm):
        return {"type": "trivial"}
    if isinstance(g, TableTwoForm):
        lam = np.asarray(np.zeros(n) if probe_lam is None else probe_lam, dtype=complex)
        pairs = list(g.g)
        if not all(1 <= i < j <= n for i, j in pairs):
            raise ParameterError(f"2-form table keys must be pairs i < j of 1..{n}, got {pairs}")
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T - 1
        mask = np.zeros((n, n), dtype=bool)
        mask[rows, cols] = True
        with np.errstate(all="ignore"):
            entries = g.table(n, lam[None], mask)[0, rows, cols].tolist()
        for (i, j), v in zip(pairs, entries):
            if cmath.isfinite(v):
                continue
            if isinstance(g, ConstantTableTwoForm):
                raise ParameterError(
                    f"2-form constant {g.values[(i, j)]} at pair ({i},{j}) is below "
                    "POLE_GUARD in modulus: a pole at every point"
                )
            if probe_lam is not None:
                raise PoleError(f"2-form entry ({i},{j}) is not finite at lam={lam}")
            raise ParameterError(
                f"the origin of C^{n} is a pole of the 2-form at pair "
                f"({i},{j}); pass probe_lam, a point where it is finite"
            )
        values = {f"{i},{j}": complex_to_json(v) for (i, j), v in zip(pairs, entries)}
        out = {"type": "table", "values": values}
        if probe_lam is not None:
            out["sampled_at"] = [complex_to_json(z) for z in probe_lam]
        return out
    if isinstance(g, QuadraticExactTwoForm):
        return {"type": "exact", "potentials": {
            str(i + 1): {
                "const": complex_to_json(g.const[i]),
                "lin": [complex_to_json(z) for z in g.lin[i]],
                "quad": [complex_to_json(z) for z in g.quad[i]],
            }
            for i in range(len(g.const))
        }}
    if isinstance(g, ExactTwoForm):
        raise ParameterError(
            "potential-derived 2-forms can be serialized only when created "
            "from coefficient arrays; pass the coefficient form "
            "QuadraticExactTwoForm instead"
        )
    raise ParameterError(f"unknown 2-form spec {type(g).__name__}")


def two_form_from_json(obj: Optional[dict], n: int) -> TwoFormSpec:
    if obj is None:
        return TrivialTwoForm()
    if not isinstance(obj, dict):
        raise ParameterError(f'a 2-form ("two_form") must be an object, got {_json_type(obj)}')
    kind = obj.get("type")
    if kind == "trivial":
        return TrivialTwoForm()
    if kind == "table":
        values = {}
        for key, cval in _field(obj, "values", dict, {}).items():
            pair = _parse_class_key(key)
            if len(pair) != 2 or not (1 <= pair[0] < pair[1] <= n):
                raise ParameterError(f"bad 2-form table key {key!r}")
            values[pair] = json_to_complex(cval)
        return constant_table_two_form(values)
    if kind == "exact":
        return _exact_two_form_from_json(obj.get("potentials", {}), n)
    raise ParameterError(f"unknown 2-form type {kind!r}")


def _exact_two_form_from_json(pots: Any, n: int) -> QuadraticExactTwoForm:
    """The coefficient form of exact-2-form potentials keyed "1".."n"; an
    index without a potential gets zero coefficients (beta_i = 1)."""
    if not isinstance(pots, dict):
        raise ParameterError(f"exact 2-form potentials must be an object, got {pots!r}")
    coeffs = {"const": np.zeros(n, dtype=complex),
              "lin": np.zeros((n, n), dtype=complex),
              "quad": np.zeros((n, n), dtype=complex)}
    seen: set[int] = set()
    for key, pot in pots.items():
        try:
            i = int(key)
        except ValueError:
            i = 0
        if not 1 <= i <= n:
            raise ParameterError(f"potential key {key!r} is not an index 1..{n}")
        if i in seen:
            raise ParameterError(f"potential key {key!r} repeats index {i}")
        seen.add(i)
        if not isinstance(pot, dict):
            raise ParameterError(f"potential {key}: expected an object, got {pot!r}")
        coeffs["const"][i - 1] = json_to_complex(pot.get("const", 0))
        for name in ("lin", "quad"):
            values = pot.get(name, [0] * n)
            if not isinstance(values, list) or len(values) != n:
                raise ParameterError(
                    f"potential {key}: coefficient arrays must have length {n}"
                )
            coeffs[name][i - 1] = [json_to_complex(v) for v in values]
    return QuadraticExactTwoForm(**coeffs)


# -- datum ------------------------------------------------------------------


def params_to_json(
    c: ClassificationParams, probe_lam: Optional[np.ndarray] = None
) -> dict:
    obj: dict = {
        "kind": "datum",
        "partition": partition_to_json(c.partition),
        "per_block": [
            {
                "S": complex_to_json(b.sum_const),
                "Sigma": complex_to_json(b.det_const),
            }
            for b in c.per_block
        ],
        "cross_sigma": [
            [q, qq, complex_to_json(v)] for (q, qq), v in sorted(c.cross_det.items())
        ],
        "signs": {",".join(map(str, k)): int(v) for k, v in c.signs.items()},
        "f": {",".join(map(str, k)): complex_to_json(v) for k, v in c.f_consts.items()},
        "two_form": two_form_to_json(c.two_form, c.partition.n, probe_lam),
    }
    return obj


def params_from_json(obj: dict) -> tuple[IndexPartition, ClassificationParams]:
    try:
        partition = partition_from_json(obj["partition"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"bad or missing partition: {exc}") from exc
    per_block = []
    for b in _field(obj, "per_block", list, []):
        if not isinstance(b, dict):
            raise ParameterError(f'"per_block" items must be objects, got {_json_type(b)}')
        per_block.append(BlockConstants(sum_const=json_to_complex(b.get("S", 0)),
                                        det_const=json_to_complex(b.get("Sigma", 0))))
    cross = {}
    for item in _field(obj, "cross_sigma", list, []):
        try:
            q, qq, value = item
            cross[(int(q), int(qq))] = json_to_complex(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad cross_sigma entry {item!r}") from exc
    signs = {}
    for key, v in _field(obj, "signs", dict, {}).items():
        try:
            signs[_parse_class_key(key)] = int(v)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"sign of d-class {key!r} must be an integer, "
                                 f"got {_json_type(v)}") from exc
    f_consts = {}
    for key, v in _field(obj, "f", dict, {}).items():
        f_consts[_parse_class_key(key)] = json_to_complex(v)
    two_form = two_form_from_json(obj.get("two_form"), partition.n)
    c = ClassificationParams(
        partition=partition,
        per_block=tuple(per_block),
        cross_det=cross,
        signs=signs,
        f_consts=f_consts,
        two_form=two_form,
    )
    return partition, c


# -- sampled matrices -------------------------------------------------------


_MALFORMED = ("every entry needs a row and a col of two integer factor indices "
              "and numbers re, im")
_ENTRY_FIELDS = tuple(map(itemgetter, ("row", "col", "re", "im")))


class SampledTables(NamedTuple):
    """The samples of a sampled matrix as stacks: the (S, n) points and the
    (S, n, n) exchange and diagonal tables at them."""

    lams: np.ndarray
    delta: np.ndarray
    d: np.ndarray


def _size(obj) -> int:
    try:
        return int(obj["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError('a sampled matrix and each sample need an integer "n"') from exc


def _sample_head(sample) -> tuple[int, list, list]:
    """A sample's n, its point and its entries, checked in that order."""
    n = _size(sample)
    lam = sample.get("lambda")
    if not isinstance(lam, list):
        raise ParameterError('a sample needs a "lambda" list')
    lam = [json_to_complex(v) for v in lam]
    if len(lam) != n:
        raise ParameterError("lambda length does not match n")
    for k, z in enumerate(lam, 1):
        if not cmath.isfinite(z):
            raise ParameterError(f"lambda component {k} is not finite: {z}")
    return n, lam, _field(sample, "entries", list, [])


def _entries(rows: list, cols: list, res: list, ims: list,
             sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 4) factor indices (row, then col) and the m values of the
    ``row``, ``col``, ``re`` and ``im`` fields of m entries, the indices of
    entry k checked against 1..``sizes[k]``; an error names the entry by
    its place in the lists."""
    m = len(rows)
    pairs = rows + cols
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        raise ParameterError(_MALFORMED)
    try:
        idx = np.array(list(chain.from_iterable(pairs)), dtype=float)
        values = np.empty(m, dtype=complex)
        values.real = res
        values.imag = ims
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(_MALFORMED) from exc
    if idx.shape != (4 * m,) or not (np.isfinite(idx) & (idx == np.round(idx))).all():
        raise ParameterError(_MALFORMED)
    idx = idx.reshape(2, m, 2).transpose(1, 0, 2).reshape(m, 4)
    outside = (idx < 1) | (idx > sizes[:, None])
    if outside.any():
        # the first entry with a bad row, else the first with a bad col
        bad_row = outside[:, :2].any(axis=1)
        e = int(np.flatnonzero(bad_row if bad_row.any() else outside[:, 2:].any(axis=1))[0])
        raise ParameterError(
            f"entry {e}: row {idx[e, :2].astype(int).tolist()}, col "
            f"{idx[e, 2:].astype(int).tolist()} has a factor index outside 1..{sizes[e]}"
        )
    return idx.astype(np.int64), values


def sampled_tables_from_json(obj: dict) -> SampledTables:
    """The :class:`SampledTables` of a sampled-matrix config, parsed in one
    pass over all samples.

    Structural errors raise :class:`ParameterError` naming the first
    sample, in order, that has one.  A (row, col) position outside the two
    zero-weight patterns whose value (the last entry's, when the pair
    repeats) is not below :data:`ZERO_WEIGHT_TOL` in modulus raises
    :class:`NotInFamilyError` naming the sample and that entry.
    """
    n = _size(obj)
    heads, late = [], None
    columns = [], [], [], []  # the row, col, re and im fields of all entries
    for s, sample in enumerate(_field(obj, "samples", list, [])):
        try:
            head = _sample_head(sample)
            try:
                for column, get in zip(columns, _ENTRY_FIELDS):
                    column += map(get, head[2])
            except (KeyError, TypeError) as exc:
                raise ParameterError(_MALFORMED) from exc
        except ParameterError as exc:
            late = s, exc  # the entries of an earlier sample may hold the first error
            break
        heads.append(head)
    sizes = [head[0] for head in heads]
    counts = [len(head[2]) for head in heads]
    for column in columns:  # the fields of a sample that failed part way
        del column[sum(counts):]
    try:
        idx, values = _entries(*columns, np.repeat(sizes, counts))
    except ParameterError:
        # name the first sample with a bad entry, and the entry in it
        start = 0
        for s, (size, count) in enumerate(zip(sizes, counts)):
            try:
                _entries(*(column[start:start + count] for column in columns),
                         np.full(count, size))
            except ParameterError as exc:
                raise ParameterError(f"sample {s}: {exc}") from exc
            start += count
        raise
    if late is not None:
        s, exc = late
        raise ParameterError(f"sample {s}: {exc}") from exc
    if not heads:
        raise ParameterError("matrix input has no samples")
    if any(size != n for size in sizes):
        raise ParameterError("sample size does not match n")
    S, nn = len(heads), n * n
    sample_of = np.repeat(np.arange(S), counts)
    a, b, c, e = (idx - 1).T
    row, col = a * n + b, c * n + e
    # the entry that sets each (sample, row, col) is the last of its run
    key = (sample_of * nn + row) * nn + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = order[np.append(key[1:] != key[:-1], True)]
    exchange = col[last] == (b * n + a)[last]
    diagonal = ~exchange & (col[last] == row[last])
    outside = ~(exchange | diagonal) & ~(np.abs(values[last]) < ZERO_WEIGHT_TOL)
    if outside.any():
        k = int(last[outside].min())
        s = int(sample_of[k])
        raise NotInFamilyError(
            f"sample {s}: entry {k - sum(counts[:s])}: "
            f"row {idx[k, :2].tolist()}, col {idx[k, 2:].tolist()} is outside the "
            f"zero-weight pattern (|value| {abs(values[k]):g})")
    delta = np.zeros((S, nn), dtype=complex)
    d = np.zeros((S, nn), dtype=complex)
    for table, part in ((delta, exchange), (d, diagonal)):
        won = last[part]
        table[sample_of[won], row[won]] = values[won]
    lams = np.array([head[1] for head in heads], dtype=complex)
    return SampledTables(lams, delta.reshape(S, n, n), d.reshape(S, n, n))


def sample_keys(lams) -> list[tuple]:
    """Lookup keys of a (P, n) stack of sampled dynamical points: components
    rounded to 12 decimals, so points recomputed by a unit shift find their
    sample."""
    return list(map(tuple, np.round(np.asarray(lams, dtype=complex), 12).tolist()))


def matrix_from_samples(samples: SampledTables) -> DynamicalRMatrix:
    """Zero-weight matrix backed by the stacks of a finite set of samples.

    Evaluable only at the sampled dynamical points (nearest-key lookup
    with an exact-match tolerance); anywhere else raises
    :class:`ParameterError`.  Of samples with the same key the last counts.
    """
    lams, delta, d = samples
    row = {key: s for s, key in enumerate(sample_keys(lams))}

    def lookup(lams: np.ndarray):
        try:
            rows = [row[key] for key in sample_keys(lams)]
        except KeyError:
            raise ParameterError(
                "sampled matrix is only evaluable at its own sample points"
            ) from None
        return delta[rows], d[rows]

    return DynamicalRMatrix.from_tables(lams.shape[1], lookup)


# -- config loading ---------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParameterError(f"config file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc


def parse_config(obj: dict):
    """Returns ("datum", (partition, params)) or ("matrix", SampledTables)."""
    if not isinstance(obj, dict):
        raise ParameterError(f"a config must be a JSON object, got {_json_type(obj)}")
    kind = obj.get("kind")
    if kind == "datum":
        return "datum", params_from_json(obj)
    if kind == "matrix":
        return "matrix", sampled_tables_from_json(obj)
    raise ParameterError(f'config "kind" must be "datum" or "matrix", got {kind!r}')
