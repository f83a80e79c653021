"""JSON schemas for configs, data, and dense matrix samples.

One config schema covers two kinds of input, discriminated by ``kind``:

* ``"datum"`` -- a full classification datum:
  ``{"kind": "datum", "partition": {...}, "per_block": [{"S": C, "Sigma": C}],
  "cross_sigma": [[q, q', C]], "signs": {"3,4": 1}, "f": {"3,4": C},
  "two_form": {...}}`` where ``C`` is a complex number and d-class keys are
  comma-joined member indices.
* ``"matrix"`` -- a raw sampled matrix:
  ``{"kind": "matrix", "n": n, "samples": [DensePoint, ...]}``.

Complex numbers are always objects ``{"re": float, "im": float}`` for
bit-exact round-trips.  A DensePoint is ``{"n": n, "lambda": [C, ...],
"entries": [{"row": [a, b], "col": [c, d], "re": .., "im": ..}, ...]}``
listing nonzero entries only, with factor indices in 1..n; of entries that
repeat a (row, col) pair the last one counts.  A sample's matrix is filled
by one assignment, and a sampled matrix finds the tables of a stack of
points by their :func:`sample_keys`.

2-form schemas: ``{"type": "trivial"}``; ``{"type": "table", "values":
{"1,2": C}}`` (constant per unordered pair); ``{"type": "exact",
"potentials": {"1": {"const": C, "lin": [C...], "quad": [C...]}}}`` giving
per-index potentials exp(const + sum_k lin_k lam_k + sum_k quad_k lam_k^2),
keyed "1".."n" (an index without one has beta_i = 1).  An exact 2-form is
read into, and written back from, the coefficient form
:class:`~dynrmat.params.QuadraticExactTwoForm`, whose tables are closed-form.
Bad keys, indices and coefficients raise :class:`ParameterError` naming them.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .errors import ParameterError, PoleError
from .params import (
    BlockConstants,
    ClassificationParams,
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
from .rmatrix import DensePoint, DynamicalRMatrix, composite_index, tables_from_dense


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


def _parse_class_key(key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in key.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad d-class key {key!r}") from exc


# -- 2-form -----------------------------------------------------------------


def two_form_to_json(g: TwoFormSpec, n: int, probe_lam: Optional[np.ndarray] = None) -> dict:
    """JSON of a 2-form on n indices; a table 2-form's pair functions are
    read at ``probe_lam``, or at the origin of C^n when it is None.  A pole
    of a pair function at the origin raises :class:`ParameterError`."""
    if isinstance(g, TrivialTwoForm):
        return {"type": "trivial"}
    if isinstance(g, TableTwoForm):
        lam = np.zeros(n) if probe_lam is None else probe_lam
        lam = np.asarray(lam, dtype=complex)
        values = {}
        for (i, j), fn in g.g.items():
            try:
                values[f"{i},{j}"] = complex_to_json(complex(fn(lam)))
            except PoleError as exc:
                if probe_lam is not None:
                    raise
                raise ParameterError(
                    f"the origin of C^{n} is a pole of the 2-form at pair "
                    f"({i},{j}); pass probe_lam, a point where it is finite"
                ) from exc
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
    kind = obj.get("type")
    if kind == "trivial":
        return TrivialTwoForm()
    if kind == "table":
        values = {}
        for key, cval in obj.get("values", {}).items():
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
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"bad or missing partition: {exc}") from exc
    per_block = tuple(
        BlockConstants(
            sum_const=json_to_complex(b.get("S", 0)),
            det_const=json_to_complex(b.get("Sigma", 0)),
        )
        for b in obj.get("per_block", [])
    )
    cross = {}
    for item in obj.get("cross_sigma", []):
        if len(item) != 3:
            raise ParameterError(f"bad cross_sigma entry {item!r}")
        cross[(int(item[0]), int(item[1]))] = json_to_complex(item[2])
    signs = {}
    for key, v in obj.get("signs", {}).items():
        signs[_parse_class_key(key)] = int(v)
    f_consts = {}
    for key, v in obj.get("f", {}).items():
        f_consts[_parse_class_key(key)] = json_to_complex(v)
    two_form = two_form_from_json(obj.get("two_form"), partition.n)
    c = ClassificationParams(
        partition=partition,
        per_block=per_block,
        cross_det=cross,
        signs=signs,
        f_consts=f_consts,
        two_form=two_form,
    )
    return partition, c


# -- dense matrix samples ---------------------------------------------------


def _size(obj: dict) -> int:
    try:
        return int(obj["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError('a sampled matrix and each sample need an integer "n"') from exc


def dense_point_from_json(obj: dict) -> DensePoint:
    """A sampled point; every factor index of ``row`` and ``col`` must lie
    in 1..n (:class:`ParameterError` naming the entry otherwise), and of
    entries repeating a (row, col) pair the last one counts."""
    n = _size(obj)
    if not isinstance(obj.get("lambda"), list):
        raise ParameterError('a sample needs a "lambda" list')
    lam = np.array([json_to_complex(v) for v in obj["lambda"]], dtype=complex)
    if len(lam) != n:
        raise ParameterError("lambda length does not match n")
    entries = obj.get("entries", [])
    m = len(entries)
    malformed = ParameterError(
        "every entry needs a row and a col of two integer factor indices and numbers re, im")
    try:
        # m rows, then m cols: one (2m, 2) array of factor indices
        idx = np.array([e["row"] for e in entries] + [e["col"] for e in entries],
                       dtype=float) if m else np.zeros((0, 2))
        values = np.empty(m, dtype=complex)
        values.real = [e["re"] for e in entries]
        values.imag = [e["im"] for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise malformed from exc
    if idx.shape != (2 * m, 2) or not (np.isfinite(idx) & (idx == np.round(idx))).all():
        raise malformed
    if ((idx < 1) | (idx > n)).any():
        e = int(np.flatnonzero(((idx < 1) | (idx > n)).any(axis=1))[0]) % m
        raise ParameterError(
            f"entry {e}: row {idx[e].astype(int).tolist()}, col "
            f"{idx[m + e].astype(int).tolist()} has a factor index outside 1..{n}"
        )
    comp = composite_index(n, *idx.astype(np.int64).T)
    pos = comp[:m] * (n * n) + comp[m:]
    # the last entry of each position, so that a repeated pair keeps its last value
    _, last = np.unique(pos[::-1], return_index=True)
    keep = len(pos) - 1 - last
    mat = np.zeros((n * n, n * n), dtype=complex)
    mat.flat[pos[keep]] = values[keep]
    return DensePoint(n=n, lam=lam, matrix=mat)


def sampled_matrix_from_json(obj: dict) -> list[DensePoint]:
    n = _size(obj)
    points = []
    for s, sample in enumerate(obj.get("samples", [])):
        try:
            points.append(dense_point_from_json(sample))
        except ParameterError as exc:
            raise ParameterError(f"sample {s}: {exc}") from exc
    if not points:
        raise ParameterError("matrix input has no samples")
    for pt in points:
        if pt.n != n:
            raise ParameterError("sample size does not match n")
    return points


def sample_keys(lams) -> list[tuple]:
    """Lookup keys of a (P, n) stack of sampled dynamical points: components
    rounded to 12 decimals, so points recomputed by a unit shift find their
    sample."""
    return list(map(tuple, np.round(np.asarray(lams, dtype=complex), 12).tolist()))


def sample_key(lam) -> tuple:
    """The :func:`sample_keys` key of one point."""
    return sample_keys(np.asarray(lam)[None])[0]


def matrix_from_samples(points: list[DensePoint]) -> DynamicalRMatrix:
    """Zero-weight matrix backed by a finite list of dense samples.

    Evaluable only at the sampled dynamical points (nearest-key lookup
    with an exact-match tolerance); anywhere else raises
    :class:`ParameterError`.  Of samples with the same key the last counts.
    """
    n = points[0].n
    row = {key: s for s, key in enumerate(sample_keys([pt.lam for pt in points]))}
    tabs = [tables_from_dense(pt.matrix, n) for pt in points]
    delta = np.stack([t[0] for t in tabs])
    d = np.stack([t[1] for t in tabs])

    def lookup(lams: np.ndarray):
        try:
            rows = [row[key] for key in sample_keys(lams)]
        except KeyError:
            raise ParameterError(
                "sampled matrix is only evaluable at its own sample points"
            ) from None
        return delta[rows], d[rows]

    return DynamicalRMatrix.from_tables(n, lookup)


# -- config loading ---------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParameterError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc


def parse_config(obj: dict):
    """Returns ("datum", (partition, params)) or ("matrix", [DensePoint])."""
    kind = obj.get("kind")
    if kind == "datum":
        return "datum", params_from_json(obj)
    if kind == "matrix":
        return "matrix", sampled_matrix_from_json(obj)
    raise ParameterError(f'config "kind" must be "datum" or "matrix", got {kind!r}')
