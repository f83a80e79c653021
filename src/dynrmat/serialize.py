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
listing nonzero entries only, with 1-based factor indices.

2-form schemas: ``{"type": "trivial"}``; ``{"type": "table", "values":
{"1,2": C}}`` (constant per unordered pair); ``{"type": "exact",
"potentials": {"1": {"const": C, "lin": [C...], "quad": [C...]}}}`` giving
per-index potentials exp(const + sum_k lin_k lam_k + sum_k quad_k lam_k^2).
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
    TableTwoForm,
    TrivialTwoForm,
    TwoFormSpec,
    constant_table_two_form,
    exp_quadratic_potential,
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
    return complex(float(obj["re"]), float(obj["im"]))


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
    if isinstance(g, ExactTwoForm):
        raise ParameterError(
            "potential-derived 2-forms can be serialized only when created "
            "from coefficient arrays; pass the coefficient form instead"
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
        beta = {}
        pots = obj.get("potentials", {})
        for key, pot in pots.items():
            i = int(key)
            const = json_to_complex(pot.get("const", 0))
            lin = np.array([json_to_complex(v) for v in pot.get("lin", [0] * n)])
            quad = np.array([json_to_complex(v) for v in pot.get("quad", [0] * n)])
            if len(lin) != n or len(quad) != n:
                raise ParameterError(
                    f"potential {key}: coefficient arrays must have length {n}"
                )
            beta[i] = exp_quadratic_potential(const, lin, quad)
        for i in range(1, n + 1):
            if i not in beta:
                beta[i] = lambda lam: 1.0 + 0j
        return ExactTwoForm(beta=beta)
    raise ParameterError(f"unknown 2-form type {kind!r}")


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


def dense_point_from_json(obj: dict) -> DensePoint:
    n = int(obj["n"])
    lam = np.array([json_to_complex(v) for v in obj["lambda"]], dtype=complex)
    if len(lam) != n:
        raise ParameterError("lambda length does not match n")
    mat = np.zeros((n * n, n * n), dtype=complex)
    for e in obj.get("entries", []):
        a, b = (int(v) for v in e["row"])
        cc, d = (int(v) for v in e["col"])
        mat[composite_index(n, a, b), composite_index(n, cc, d)] = complex(
            float(e["re"]), float(e["im"])
        )
    return DensePoint(n=n, lam=lam, matrix=mat)


def sampled_matrix_from_json(obj: dict) -> list[DensePoint]:
    n = int(obj["n"])
    points = [dense_point_from_json(s) for s in obj.get("samples", [])]
    if not points:
        raise ParameterError("matrix input has no samples")
    for pt in points:
        if pt.n != n:
            raise ParameterError("sample size does not match n")
    return points


def sample_key(lam) -> tuple:
    """Lookup key of a sampled dynamical point: components rounded to 12
    decimals, so points recomputed by a unit shift find their sample."""
    return tuple(np.round(np.asarray(lam, dtype=complex), 12))


def matrix_from_samples(points: list[DensePoint]) -> DynamicalRMatrix:
    """Zero-weight matrix backed by a finite list of dense samples.

    Evaluable only at the sampled dynamical points (nearest-key lookup
    with an exact-match tolerance); anywhere else raises
    :class:`ParameterError`.
    """
    n = points[0].n
    tables = {sample_key(pt.lam): tables_from_dense(pt.matrix, n) for pt in points}

    def lookup(lams: np.ndarray):
        found = []
        for lam in lams:
            key = sample_key(lam)
            if key not in tables:
                raise ParameterError(
                    "sampled matrix is only evaluable at its own sample points"
                )
            found.append(tables[key])
        return np.stack([t[0] for t in found]), np.stack([t[1] for t in found])

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
