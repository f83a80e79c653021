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
exchange and diagonal table stacks, without a dense matrix.

2-form schemas: ``{"type": "trivial"}``; ``{"type": "table", "values":
{"1,2": C}}`` (constant per unordered pair); ``{"type": "exact",
"potentials": {"1": {"const": C, "lin": [C...], "quad": [C...]}}}`` giving
per-index potentials exp(const + sum_k lin_k lam_k + sum_k quad_k lam_k^2),
keyed "1".."n" (an index without one has beta_i = 1).  An exact 2-form is
read into, and written back from, the coefficient form
:class:`~dynrmat.params.QuadraticExactTwoForm`, whose tables are closed-form.
Bad keys, indices and coefficients raise :class:`ParameterError` naming them,
and so does a field of the wrong JSON type (a list where an object belongs,
or a fraction, a string or a boolean where an integer belongs), or a config
that is not an object.
"""

from __future__ import annotations

import cmath
import json
import re
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
from .partition import IndexPartition, is_json_number, json_int, json_type, json_value
from .partition import from_json as partition_from_json
from .partition import to_json as partition_to_json
from .rmatrix import ZERO_WEIGHT_TOL, DynamicalRMatrix


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def json_to_complex(obj: Any, what: str = "a complex number") -> complex:
    """A JSON number, or an object ``{"re": x, "im": y}`` of two JSON numbers, as a
    complex; anything else raises :class:`ParameterError` naming ``what``."""
    re, im = (obj.get("re"), obj.get("im")) if isinstance(obj, dict) else (obj, 0.0)
    if is_json_number(re) and is_json_number(im):
        try:
            return complex(float(re), float(im))
        except OverflowError:
            pass
    raise ParameterError(f"{what}: expected a complex object {{re, im}} of two numbers, "
                         f"got {obj!r}")


def _field(obj: dict, name: str, kind: type, default: Any) -> Any:
    """``obj[name]``, or ``default`` when it is absent; a value of another
    JSON type raises :class:`ParameterError` naming the field."""
    return json_value(obj.get(name, default), kind, f'"{name}"')


#: An index in a key: ASCII digits, without a sign, a space or a leading zero.
_INDEX = re.compile(r"0|[1-9][0-9]*")


def _index_key(key: str) -> Optional[tuple[int, ...]]:
    """The indices of a key of comma-joined :data:`_INDEX` tokens, or None
    for any other key."""
    tokens = key.split(",")
    return tuple(map(int, tokens)) if all(map(_INDEX.fullmatch, tokens)) else None


def _parse_class_key(key: str) -> tuple[int, ...]:
    indices = _index_key(key)
    if indices is None:
        raise ParameterError(f"bad d-class key {key!r}")
    return indices


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
        raise ParameterError(f'a 2-form ("two_form") must be an object, got {json_type(obj)}')
    kind = obj.get("type")
    if kind == "trivial":
        return TrivialTwoForm()
    if kind == "table":
        values = {}
        for key, cval in _field(obj, "values", dict, {}).items():
            pair = _index_key(key)
            if pair is None or len(pair) != 2 or not (1 <= pair[0] < pair[1] <= n):
                raise ParameterError(f"bad 2-form table key {key!r}")
            values[pair] = json_to_complex(cval, f"2-form table entry {key!r}")
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
    for key, pot in pots.items():
        # one spelling per index, so no two keys of an object name one index
        index = _index_key(key)
        if index is None or len(index) != 1 or not 1 <= index[0] <= n:
            raise ParameterError(f"potential key {key!r} is not an index 1..{n}")
        i = index[0]
        if not isinstance(pot, dict):
            raise ParameterError(f"potential {key}: expected an object, got {pot!r}")
        coeffs["const"][i - 1] = json_to_complex(pot.get("const", 0), f"potential {key}: const")
        for name in ("lin", "quad"):
            values = pot.get(name, [0] * n)
            if not isinstance(values, list) or len(values) != n:
                raise ParameterError(
                    f"potential {key}: coefficient arrays must have length {n}"
                )
            what = f"potential {key}: {name}"
            coeffs[name][i - 1] = [json_to_complex(v, what) for v in values]
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
    partition = partition_from_json(obj.get("partition"))
    per_block = []
    for q, b in enumerate(_field(obj, "per_block", list, []), 1):
        if not isinstance(b, dict):
            raise ParameterError(f'"per_block" items must be objects, got {json_type(b)}')
        per_block.append(BlockConstants(sum_const=json_to_complex(b.get("S", 0), f'block {q} "S"'),
                                        det_const=json_to_complex(b.get("Sigma", 0),
                                                                  f'block {q} "Sigma"')))
    cross = {}
    for item in _field(obj, "cross_sigma", list, []):
        if not isinstance(item, list) or len(item) != 3:
            raise ParameterError(f"bad cross_sigma entry {item!r}: expected [q, q', C]")
        what = f"cross_sigma entry {item!r}"
        q, qq = (json_int(v, f"{what}: a block index") for v in item[:2])
        cross[(q, qq)] = json_to_complex(item[2], what)
    signs = {_parse_class_key(key): json_int(v, f"sign of d-class {key!r}")
             for key, v in _field(obj, "signs", dict, {}).items()}
    f_consts = {_parse_class_key(key): json_to_complex(v, f"f of d-class {key!r}")
                for key, v in _field(obj, "f", dict, {}).items()}
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
    if not isinstance(obj, dict) or "n" not in obj:
        raise ParameterError('a sampled matrix and each sample need an integer "n"')
    return json_int(obj["n"], 'the "n" of a sampled matrix or a sample')


def _sample_head(sample) -> tuple[int, list, list]:
    """A sample's n, its point and its entries, checked in that order."""
    n = _size(sample)
    lam = sample.get("lambda")
    if not isinstance(lam, list):
        raise ParameterError('a sample needs a "lambda" list')
    lam = [json_to_complex(v, "a lambda component") for v in lam]
    if len(lam) != n:
        raise ParameterError("lambda length does not match n")
    return n, finite_lambda(lam), _field(sample, "entries", list, [])


def finite_lambda(lam: list) -> list:
    """``lam``, or :class:`ParameterError` naming its first component that is not finite."""
    for k, z in enumerate(lam, 1):
        if not cmath.isfinite(z):
            raise ParameterError(f"lambda component {k} is not finite: {z}")
    return lam


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
    """The :class:`SampledTables` of a sampled-matrix config.

    A fast pass reads every sample's head, builds the four entry fields of
    all samples at once and checks them in one :func:`_entries` call.  When
    it meets an error, an attribution pass checks sample by sample (head,
    then entry fields, then entries) and raises :class:`ParameterError`
    naming the first sample that has an error.  A (row, col) position
    outside the two zero-weight patterns whose value (the last entry's,
    when the pair repeats) is not below :data:`ZERO_WEIGHT_TOL` in modulus
    raises :class:`NotInFamilyError` naming the sample and that entry; an
    explicit 0 there is legal.
    """
    n = _size(obj)
    samples = _field(obj, "samples", list, [])
    try:
        heads = [_sample_head(sample) for sample in samples]
        sizes = [head[0] for head in heads]
        counts = [len(head[2]) for head in heads]
        entries = list(chain.from_iterable(head[2] for head in heads))
        idx, values = _entries(*(list(map(get, entries)) for get in _ENTRY_FIELDS),
                               np.repeat(sizes, counts))
    except (ParameterError, KeyError, TypeError):
        for s, sample in enumerate(samples):
            try:
                size, _, entries = _sample_head(sample)
                try:
                    columns = [list(map(get, entries)) for get in _ENTRY_FIELDS]
                except (KeyError, TypeError) as exc:
                    raise ParameterError(_MALFORMED) from exc
                _entries(*columns, np.full(len(entries), size))
            except ParameterError as exc:
                raise ParameterError(f"sample {s}: {exc}") from exc
        raise
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
    ends = np.ones(len(key), dtype=bool)  # a sample may list no entry at all
    ends[:-1] = key[1:] != key[:-1]
    last = order[ends]
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

    Evaluable only where the :func:`sample_keys` (exact 12-decimal keys, so
    one ulp across a rounding boundary is another key) equal a sample's;
    anywhere else raises :class:`ParameterError`.  Of samples with the same
    key the last counts.
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
        raise ParameterError(f"a config must be a JSON object, got {json_type(obj)}")
    kind = obj.get("kind")
    if kind == "datum":
        return "datum", params_from_json(obj)
    if kind == "matrix":
        return "matrix", sampled_tables_from_json(obj)
    raise ParameterError(f'config "kind" must be "datum" or "matrix", got {kind!r}')
