"""The per-sample dense parse of sampled-matrix configs, kept as the oracle
of :func:`dynrmat.serialize.sampled_tables_from_json`.

Each sample is filled into a dense n^2 x n^2 matrix, and its tables are
read off with :func:`dynrmat.rmatrix.tables_from_dense`, which reads only
the two zero-weight patterns: this oracle drops every other entry, where
the library rejects a sample that sets one.
"""

from __future__ import annotations

import numpy as np

from dynrmat.errors import ParameterError
from dynrmat.rmatrix import DensePoint, composite_index, tables_from_dense
from dynrmat.serialize import json_to_complex


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


def oracle_sampled_tables(obj: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (S, n) points and (S, n, n) exchange and diagonal tables of a
    sampled-matrix config, one dense sample at a time."""
    points = sampled_matrix_from_json(obj)
    tabs = [tables_from_dense(pt.matrix, pt.n) for pt in points]
    return (np.array([pt.lam for pt in points]), np.stack([t[0] for t in tabs]),
            np.stack([t[1] for t in tabs]))
