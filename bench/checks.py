"""Correctness checks computed apart from the program.

Dense operators are assembled here from the coefficient tables with the
benchmark's own index arithmetic; nothing in this module calls the
library's residual, evaluation, flip or eigenvalue code.
"""

from __future__ import annotations

import numpy as np

import dynrmat as dr


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own result."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- dense operators from coefficient tables ---------------------------------


def dense_operator(dt: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """n^2 x n^2 matrix: row (i,j), column (j,i) holds Delta_ij; row and
    column (i,j), i != j, hold d_ij (composite index (a-1)*n + (b-1))."""
    n = dt.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    M = np.zeros((n * n, n * n), dtype=complex)
    M[(i * n + j).ravel(), (j * n + i).ravel()] = dt.ravel()
    off = (i != j).ravel()
    ij = (i * n + j).ravel()[off]
    M[ij, ij] = dd.ravel()[off]
    return M


def flip_composed(dt: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """The factor flip applied after the matrix."""
    n = dt.shape[0]
    M = dense_operator(dt, dd)
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    flip = (b * n + a).ravel()
    return M[flip, :]


def _embedded(tables_at, n: int, pair: tuple[int, int], shifted: bool) -> np.ndarray:
    """The matrix acting on two of three tensor slots.  The spectating
    slot's basis index k selects the tables at lam + e_k when ``shifted``."""
    N = n ** 3
    E = np.zeros((N, N), dtype=complex)
    r = np.arange(n)
    x, y = np.meshgrid(r, r, indexing="ij")
    x, y = x.ravel(), y.ravel()
    for k in range(n):
        M = dense_operator(*tables_at(k + 1 if shifted else 0))
        if pair == (1, 2):
            idx = x * n * n + y * n + k
        elif pair == (1, 3):
            idx = x * n * n + k * n + y
        else:
            idx = k * n * n + x * n + y
        E[np.ix_(idx, idx)] = M
    return E


def shifted_residual(R: dr.DynamicalRMatrix, lam: np.ndarray) -> float:
    """Normalized defect of the shifted relation
    R12(lam+h3) R13(lam) R23(lam+h1) = R23(lam) R13(lam+h2) R12(lam),
    divided by max(1, largest entry of the two products)."""
    lam = np.asarray(lam, dtype=complex)
    n = R.n
    cache = {}

    def tables_at(k: int):
        if k not in cache:
            pt = lam.copy()
            if k:
                pt[k - 1] += 1.0
            cache[k] = R.tables(pt)
        return cache[k]

    left = (_embedded(tables_at, n, (1, 2), True)
            @ _embedded(tables_at, n, (1, 3), False)
            @ _embedded(tables_at, n, (2, 3), True))
    right = (_embedded(tables_at, n, (2, 3), False)
             @ _embedded(tables_at, n, (1, 3), True)
             @ _embedded(tables_at, n, (1, 2), False))
    scale = max(float(np.abs(left).max()), float(np.abs(right).max()))
    return float(np.abs(left - right).max()) / max(1.0, scale)


def close(a: float, b: float, rel: float = 1e-8, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# -- partitions ---------------------------------------------------------------


def structure(p: dr.IndexPartition) -> list:
    """Blocks as lists of exchange classes (free tuple, d-class tuples)."""
    return [[(tuple(dc.free), tuple(tuple(c) for c in dc.d_classes)) for dc in block]
            for block in p.blocks]


def restrict(struct: list, subset) -> list:
    """Expected structure after contraction to ``subset`` (relabelled 1..m):
    a d-class cut down to one index becomes a free index."""
    label = {orig: pos + 1 for pos, orig in enumerate(subset)}
    out = []
    for block in struct:
        new_block = []
        for free, dcs in block:
            frees = [label[i] for i in free if i in label]
            new_dcs = []
            for dc in dcs:
                kept = [label[i] for i in dc if i in label]
                if len(kept) == 1:
                    frees.extend(kept)
                elif kept:
                    new_dcs.append(tuple(kept))
            if frees or new_dcs:
                new_block.append((tuple(frees), tuple(new_dcs)))
        if new_block:
            out.append(new_block)
    return out


def compose(a: list, b: list, na: int) -> list:
    shift = [[(tuple(i + na for i in free), tuple(tuple(i + na for i in dc) for dc in dcs))
              for free, dcs in block] for block in b]
    return a + shift


def _canonical(struct: list, perm=None) -> list:
    m = (lambda i: perm[i]) if perm is not None else (lambda i: i)
    blocks = []
    for block in struct:
        blocks.append(tuple(
            (frozenset(m(i) for i in free), frozenset(frozenset(m(i) for i in dc) for dc in dcs))
            for free, dcs in block))
    return sorted(blocks, key=lambda b: repr([(sorted(f), sorted(sorted(d) for d in ds)) for f, ds in b]))


def check_partition(expected: list, recovered: dr.IndexPartition, perm: dict) -> None:
    """The recovered partition equals ``expected`` after relabelling by
    ``perm`` (original index -> canonical index); block order is free,
    the chain order of exchange classes inside a block is not."""
    n = sum(len(f) + sum(len(d) for d in ds) for block in expected for f, ds in block)
    require(sorted(perm) == list(range(1, n + 1)) and sorted(perm.values()) == list(range(1, n + 1)),
            f"index_permutation is not a permutation of 1..{n}: {perm}")
    require(_canonical(expected, perm) == _canonical(structure(recovered)),
            f"recovered partition {structure(recovered)} differs from expected {expected} "
            f"under {perm}")


def check_rebuild(R: dr.DynamicalRMatrix, params: dr.ClassificationParams, perm: dict,
                  rng: np.random.Generator, compare_d: bool = True, points: int = 3) -> None:
    """The matrix built from recovered constants reproduces R's tables at
    fresh points (after relabelling), where neither has a pole."""
    Rrec = dr.build(params.partition, params)
    order = np.array([perm[i] - 1 for i in range(1, R.n + 1)])
    done = 0
    for _ in range(40):
        lam = rng.uniform(-2, 2, R.n) + 1j * rng.uniform(-2, 2, R.n)
        mu = np.empty_like(lam)
        mu[order] = lam
        try:
            dt, dd = R.tables(lam)
            rt, rd = Rrec.tables(mu)
        except dr.PoleError:
            continue
        scale = max(1.0, float(np.abs(dt).max()), float(np.abs(dd).max()))
        if scale > 1e3:
            continue
        err = float(np.abs(rt[np.ix_(order, order)] - dt).max())
        if compare_d:
            err = max(err, float(np.abs(rd[np.ix_(order, order)] - dd).max()))
        require(err <= 1e-6 * scale,
                f"rebuilt matrix differs from the input by {err:.3e} at a fresh point")
        done += 1
        if done == points:
            return
    raise CheckError("no pole-free fresh point for the rebuild comparison")


# -- spectra ------------------------------------------------------------------


def _clusters(values, tol: float) -> list[complex]:
    centers: list[complex] = []
    for v in values:
        if not any(abs(v - c) <= tol for c in centers):
            centers.append(complex(v))
    return centers


def spectrum(R: dr.DynamicalRMatrix, points) -> dict:
    """Distinct eigenvalues of the flip-composed dense matrix at each point,
    the largest coefficient magnitude, and the per-point matrices."""
    mats, scale = [], 0.0
    for lam in points:
        dt, dd = R.tables(np.asarray(lam, dtype=complex))
        scale = max(scale, float(np.abs(dt).max()), float(np.abs(dd).max()))
        mats.append(flip_composed(dt, dd))
    tol = 1e-6 * max(1.0, scale)
    distinct = [_clusters(np.linalg.eigvals(M), tol) for M in mats]
    return {"mats": mats, "distinct": distinct, "scale": scale, "tol": tol}


def eigenvalues_vary(spec: dict) -> bool:
    first = spec["distinct"][0]
    tol = spec["tol"]
    for other in spec["distinct"][1:]:
        if len(other) != len(first) or any(
                min(abs(v - w) for w in other) > tol for v in first):
            return True
    return False


def check_hecke(report, spec: dict, n: int) -> None:
    """The reported kind agrees with the distinct eigenvalues and the minimal
    polynomial of the flip-composed matrix."""
    require(not eigenvalues_vary(spec), "eigenvalues vary over the points, "
            f"yet hecke_classify returned {report.kind}")
    distinct, tol = spec["distinct"][0], spec["tol"]
    mats, scale = spec["mats"], max(1.0, spec["scale"])
    eye = np.eye(n * n)

    def min_poly_zero(roots) -> bool:
        for M in mats:
            P = eye.astype(complex)
            for r in roots:
                P = P @ (M - r * eye)
            if float(np.abs(P).max()) > 1e-7 * scale ** len(roots):
                return False
        return True

    scalar = len(distinct) == 1 and min_poly_zero(distinct)
    quadratic = len(distinct) == 2 and min_poly_zero(distinct)
    if report.kind == "DegenerateSingleDClass":
        require(scalar and report.rho is not None and abs(report.rho - distinct[0]) <= tol,
                f"DegenerateSingleDClass but the spectrum is {distinct}")
        return
    if report.kind in ("Hecke", "WeakHecke"):
        require(report.rho is not None and report.kappa is not None,
                f"{report.kind} without rho and kappa")
        rho, mk = report.rho, -report.kappa
        require(quadratic, f"{report.kind} but distinct eigenvalues {distinct} "
                "do not give a quadratic minimal polynomial")
        require(_clusters([rho, mk], tol) and all(
            min(abs(v - w) for w in (rho, mk)) <= tol for v in distinct),
            f"{report.kind} rho={rho} kappa={report.kappa} vs eigenvalues {distinct}")
        M = mats[0]
        diag_rho = all(abs(M[a * n + a, a * n + a] - rho) <= tol for a in range(n))
        planes = True
        for a in range(n):
            for b in range(a + 1, n):
                idx = [a * n + b, b * n + a]
                ev = np.linalg.eigvals(M[np.ix_(idx, idx)])
                got = sorted(ev, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
                want = sorted([rho, mk], key=lambda z: (round(z.real, 6), round(z.imag, 6)))
                if not all(abs(g - w) <= tol for g, w in zip(got, want)):
                    planes = False
        require((report.kind == "Hecke") == (diag_rho and planes),
                f"{report.kind}: diagonal lines at rho {diag_rho}, planes carry both {planes}")
        return
    require(report.kind == "NotHecke", f"unknown kind {report.kind}")
    degenerate = quadratic and any(abs(v) <= tol for v in distinct)
    require(not scalar and (not quadratic or degenerate),
            f"NotHecke but the spectrum {distinct} has a minimal polynomial of degree "
            f"{1 if scalar else 2}")
