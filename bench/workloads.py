"""The three benchmark workloads.

Each workload is a fixed, stratified list of items; one item is one
operation.  Every seed yields the same items (sizes, partition shapes,
2-form kinds, transform chains, member status); the seed draws only the
constants and the lambda points.  ``Item.run`` is the timed operation,
``Item.check`` verifies its output against the benchmark's own
computations, and ``Item.key`` is compared between rounds (the same
operation on the same inputs must give the same output every time).

Library functions are looked up on their modules at call time, so that the
traced run sees every call.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import dynrmat as dr
from dynrmat.partition import nd_pairs
import dynrmat.cli
import dynrmat.serialize
import dynrmat.transforms

from checks import (
    CheckError,
    check_hecke,
    check_partition,
    check_rebuild,
    close,
    compose,
    dense_operator,
    eigenvalues_vary,
    require,
    restrict,
    shifted_residual,
    spectrum,
    structure,
)
from inputs import (
    Template,
    coupled_pair,
    draw_datum,
    draw_points,
    draw_potentials,
    exact_two_form,
    fresh,
    one_sided_diagonal,
    scaled_exchange,
)

#: lambda samples per certify item (the CLI default)
CERTIFY_SAMPLES = 8
#: largest n at which the dense shifted residual is recomputed independently
ORACLE_MAX_N = 6
TOL = 1e-9


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    key: Callable[[Any], Any]
    fault: Optional[type] = None  # raised every time: a known program fault


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, *salt])


# -- certify --------------------------------------------------------------------

# (template, member?) -- members and perturbed non-members up to n = 8; the
# n = 9 member alone sets the dense check's time and memory peak
CERTIFY = [
    (Template("R f2d2", "trivial"), True),
    (Template("R f2d2", "trivial"), False),
    (Template("T f1,f1 | R f2", "table"), True),
    (Template("T f1,f1 | R f2", "table"), False),
    (Template("T f1d2,f2", "exact"), True),
    (Template("T f1d2,f2", "exact"), False),
    (Template("R f3 | R d2", "trivial"), True),
    (Template("R f3 | R d2", "trivial"), False),
    (Template("T f2d2,f1 | R f1", "table"), True),
    (Template("T f2d2,f1 | R f1", "table"), False),
    (Template("T d2d2,f2", "table"), True),
    (Template("T d2d2,f2", "table"), False),
    (Template("T f3,d2 | R f2", "trivial"), True),
    (Template("T f3,d2 | R f2", "trivial"), False),
    (Template("T f2d2,f1d2 | R f1", "exact"), True),
    (Template("T f2d2,f1d2 | R f1", "exact"), False),
    (Template("T f2,d2d2 | R f2", "trivial"), True),
    (Template("T f2,d2d2 | R f2", "trivial"), False),
    (Template("T f3d2,f2 | R f2", "table"), True),
]


def certify_items(seed: int, workdir: str) -> list[Item]:
    items = []
    for idx, (tpl, member) in enumerate(CERTIFY):
        datum = draw_datum(tpl, _rng(seed, 1, idx))
        R0 = datum.build()
        if not member:
            factor = 1.25 + 0.5 * _rng(seed, 2, idx).uniform()
            R0 = scaled_exchange(R0, coupled_pair(datum.partition), lambda lam, f=factor: f)
        lam_seed = [seed, 3, idx]
        name = f"n{tpl.n:02d} {'member' if member else 'non-member'} {tpl.shape} {tpl.two_form}"
        items.append(Item(name, _certify_run(R0, lam_seed), _certify_check(R0, member),
                          _certify_key))
    return items


def _certify_run(R0, lam_seed):
    def run():
        R = fresh(R0)
        samples = dr.verifier.sample_lambda(R, np.random.default_rng(lam_seed), CERTIFY_SAMPLES)
        report = dr.verifier.check_system(R, samples)
        inv = [dr.verifier.check_invertibility(R, lam) for lam in samples]
        return report, inv
    return run


def _certify_check(R0, member: bool):
    def check(out):
        report, inv = out
        require(len(report.samples) == CERTIFY_SAMPLES, "wrong number of samples")
        require(report.passed == member,
                f"passed={report.passed} for a {'member' if member else 'non-member'}")
        R = fresh(R0)
        if member:
            for lam, res in zip(report.samples, inv):
                require(res["agree"], f"factorized and dense determinants disagree: {res}")
                own = complex(np.linalg.det(dense_operator(*R.tables(np.array(lam)))))
                require(abs(own - res["det_dense"]) <= 1e-8 * max(abs(own), 1e-300),
                        f"dense determinant {res['det_dense']} vs own {own}")
        if R.n <= ORACLE_MAX_N:
            own = [shifted_residual(R, np.array(lam)) for lam in report.samples]
            for a, b in zip(own, report.global_residuals):
                require(close(a, b, rel=1e-6, abs_=1e-13),
                        f"global residual {b:.3e} vs own dense residual {a:.3e}")
            require((max(own) < TOL) == member,
                    f"own dense residual {max(own):.3e} contradicts member={member}")
    return check


def _certify_key(out):
    report, inv = out
    worst = report.worst_case
    return (tuple(report.global_residuals), tuple(sorted(report.per_equation.items())),
            tuple(report.samples), report.passed,
            None if worst is None else (worst.equation, worst.indices, worst.value),
            tuple((r["agree"], r["det_dense"], r["det_factorized"]) for r in inv))


# -- classify_roundtrip -------------------------------------------------------------

# kind: "member" (builder output), "chain" (transforms applied in the
# operation), "scaled" / "one_sided" (non-members).  Chains list their steps.
CLASSIFY = [
    ("member", [Template("R f2d2", "trivial")], []),
    ("member", [Template("T f1d2,f2", "table")], []),
    ("member", [Template("T f2,f1d2 | R f2", "exact")], []),
    ("member", [Template("T f2d2,f1,f2 | R d2", "trivial")], []),
    ("member", [Template("T f2,d2d2 | R f2 | R f2", "exact")], []),
    ("member", [Template("T f2d2,f1d2 | R f1", "table")], []),
    ("member", [Template("T f3d2,f2 | R f2d3", "table")], []),
    ("chain", [Template("T f2,f1d2 | R f1", "trivial")], ["twist"]),
    ("chain", [Template("T f2d2,f2 | R f2", "trivial")], ["2form"]),
    ("chain", [Template("T f2d2,f2 | R f2", "table")], ["2form", "twist"]),
    ("chain", [Template("T f2d2,f1d2 | R f1d2", "exact")], ["2form", "twist", "contract"]),
    ("chain", [Template("T f1d2,f2", "trivial"), Template("R f2d2", "table")], ["compose"]),
    ("chain", [Template("T f2,f1d2 | R f1", "table"), Template("R f2d2", "trivial")],
     ["compose", "twist"]),
    ("scaled", [Template("T f2,f1d2 | R f1", "trivial")], []),
    ("one_sided", [Template("T f2d2,f2 | R f2", "table")], []),
    ("scaled", [Template("T f2d2,f3 | R f2d2", "exact")], []),
    ("one_sided", [Template("T f1d2,f2", "exact")], []),
]

#: independent constant draws of every classify_roundtrip template per round
CLASSIFY_VARIANTS = 3
#: indices kept by the "contract" step (1-based, of the chain's matrix)
CONTRACT_KEEP = (1, 2, 3, 5, 6, 7, 8, 9)


def _chain_matrix(bases, steps, seed, idx):
    """Set-up data and a constructor that applies ``steps`` to fresh copies
    of the base matrices inside the timed operation."""
    rng = _rng(seed, 5, idx)
    mats = [d.build() for d in bases]
    expected = structure(bases[0].partition)
    n = bases[0].partition.n
    plan = []
    partition = bases[0].partition
    for step in steps:
        if step == "compose":
            other = bases[1]
            expected = compose(expected, structure(other.partition), n)
            n += other.partition.n
            g = (complex(*rng.uniform(0.5, 2, 2)), complex(*rng.uniform(0.5, 2, 2)))
            plan.append(("compose", g))
        elif step == "twist":
            plan.append(("twist", exact_two_form(draw_potentials(n, rng)).beta))
        elif step == "2form":
            values = {pair: complex(*rng.uniform(0.5, 2, 2)) for pair in nd_pairs(partition)}
            plan.append(("2form", dr.constant_table_two_form(values)))
        elif step == "contract":
            expected = restrict(expected, CONTRACT_KEEP)
            n = len(CONTRACT_KEEP)
            plan.append(("contract", CONTRACT_KEEP))

    def make():
        R = fresh(mats[0])
        for step, arg in plan:
            if step == "compose":
                R = dr.transforms.decouple_compose(R, fresh(mats[1]), *arg)
            elif step == "twist":
                R = dr.transforms.apply_twist(R, arg)
            elif step == "2form":
                R = dr.transforms.apply_2form(R, arg)
            else:
                R = dr.transforms.contract(R, arg)
        return R

    return make, expected


def classify_items(seed: int, workdir: str) -> list[Item]:
    items = []
    for var in range(CLASSIFY_VARIANTS):
        for idx, (kind, tpls, steps) in enumerate(CLASSIFY):
            salt = var * len(CLASSIFY) + idx
            bases = [draw_datum(t, _rng(seed, 4, salt, k)) for k, t in enumerate(tpls)]
            if kind in ("member", "chain"):
                make, expected = _chain_matrix(bases, steps, seed, salt)
            else:
                R0 = bases[0].build()
                pair = coupled_pair(bases[0].partition)
                if kind == "scaled":
                    R0 = scaled_exchange(R0, pair, lambda lam: 1 + 0.3 * lam[0])
                else:
                    R0 = one_sided_diagonal(R0, pair)
                make, expected = (lambda R0=R0: fresh(R0)), None
            seeds = [int(s) for s in _rng(seed, 6, salt).integers(0, 2 ** 31, 3)]
            chain = "+".join(steps) or "none"
            name = (f"{kind} {'+'.join(t.shape for t in tpls)} "
                    f"{'+'.join(t.two_form for t in tpls)} chain={chain} v{var}")
            items.append(Item(name, _classify_run(make, seeds),
                              _classify_check(expected, [seed, 7, salt]), _classify_key))
    return items


def _classify_run(make, seeds):
    def run():
        R = make()
        out = {"R": R}
        try:
            st = dr.classifier.classify(R, seed=seeds[0])
            out["structure"] = st
            out["params"] = dr.classifier.recover_params(R, st, seed=seeds[1])
        except dr.NotInFamilyError as exc:
            out["rejected"] = str(exc)
        try:
            out["hecke"] = dr.hecke.hecke_classify(R, seed=seeds[2])
        except dr.NotInFamilyError as exc:
            out["hecke_rejected"] = str(exc)
        return out
    return run


def _classify_check(expected, check_seed):
    def check(out):
        R = fresh(out["R"])
        rng = np.random.default_rng(check_seed)
        if expected is None:
            require("rejected" in out, "a non-member was not rejected with NotInFamilyError")
        else:
            require("rejected" not in out, f"member rejected: {out.get('rejected')}")
            st = out["structure"]
            check_partition(expected, st.recovered_partition, st.index_permutation)
            check_rebuild(R, out["params"], st.index_permutation, rng)
        if "hecke" in out:
            check_hecke(out["hecke"], _spectrum_at(R, out["hecke"].lambda_samples, rng), R.n)
        else:
            require(eigenvalues_vary(_spectrum_at(R, [], rng)),
                    f"hecke_classify rejected ({out['hecke_rejected']}) "
                    "but the eigenvalues are constant")
    return check


def _spectrum_at(R, points, rng):
    """Spectrum at the pole-free ones of ``points``, topped up with fresh
    points to at least three."""
    def pole_free(lam):
        try:
            R.tables(np.asarray(lam, dtype=complex))
        except dr.PoleError:
            return False
        return True

    pts = [lam for lam in points if pole_free(lam)]
    while len(pts) < 3:
        lam = draw_points(rng, R.n, 1)[0]
        if pole_free(lam):
            pts.append(lam)
    return spectrum(R, pts)


def _classify_key(out):
    key = [out.get("rejected"), out.get("hecke_rejected")]
    if "structure" in out:
        st = out["structure"]
        key += [repr(structure(st.recovered_partition)), tuple(sorted(st.index_permutation.items())),
                tuple(st.levels)]
    if "params" in out:
        c = out["params"]
        key += [tuple((b.sum_const, b.det_const) for b in c.per_block),
                tuple(sorted(c.cross_det.items())), tuple(sorted(c.signs.items())),
                tuple(sorted(c.f_consts.items()))]
    if "hecke" in out:
        h = out["hecke"]
        key += [h.kind, h.rho, h.kappa, h.detail]
    return tuple(key)


# -- cli_configs ------------------------------------------------------------------

#: a datum every component residual of which is exactly zero: two
#: single-index blocks with constant coefficients (not drawn from the seed)
ZERO_RESIDUAL_DATUM = {
    "kind": "datum",
    "partition": {"n": 2, "blocks": [[{"free": [1], "d_classes": []}],
                                     [{"free": [2], "d_classes": []}]]},
    "per_block": [{"S": {"re": 0, "im": 0}, "Sigma": {"re": 1, "im": 0}},
                  {"S": {"re": 0, "im": 0}, "Sigma": {"re": 2, "im": 0}}],
    "cross_sigma": [[0, 1, {"re": 1.5, "im": 0}]],
    "signs": {"1": 1, "2": 1},
    "f": {"1": {"re": 0, "im": 0}, "2": {"re": 0, "im": 0}},
    "two_form": {"type": "trivial"},
}

EXIT = {"ok": 0, "residual": 1, "invalid": 2, "pole": 3, "not_in_family": 4}


def _cj(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def datum_config(datum) -> dict:
    """The datum config of the README schema, written by the benchmark."""
    c = datum.params
    key = lambda cls: ",".join(map(str, cls))  # noqa: E731
    if datum.template.two_form == "trivial":
        two_form = {"type": "trivial"}
    elif datum.template.two_form == "table":
        two_form = {"type": "table",
                    "values": {f"{i},{j}": _cj(v) for (i, j), v in datum.table_values.items()}}
    else:
        two_form = {"type": "exact", "potentials": {
            str(i): {"const": _cj(0), "lin": [_cj(v) for v in lin], "quad": [_cj(v) for v in quad]}
            for i, (lin, quad) in datum.potentials.items()}}
    return {
        "kind": "datum",
        "partition": {"n": datum.partition.n, "blocks": [
            [{"free": list(dc.free), "d_classes": [list(x) for x in dc.d_classes]} for dc in block]
            for block in datum.partition.blocks]},
        "per_block": [{"S": _cj(b.sum_const), "Sigma": _cj(b.det_const)} for b in c.per_block],
        "cross_sigma": [[q, qq, _cj(v)] for (q, qq), v in sorted(c.cross_det.items())],
        "signs": {key(k): int(v) for k, v in c.signs.items()},
        "f": {key(k): _cj(v) for k, v in c.f_consts.items()},
        "two_form": two_form,
    }


def matrix_config(R, base_points) -> tuple[dict, list]:
    """Sampled-matrix config: each base point and its n singly-shifted
    points, entries written from the tables with the benchmark's own
    index arithmetic.  Returns the config and the sampled tables."""
    n = R.n
    samples, tables = [], []
    for lam in base_points:
        for k in range(n + 1):
            pt = np.asarray(lam, dtype=complex).copy()
            if k:
                pt[k - 1] += 1.0
            dt, dd = R.tables(pt)
            tables.append((pt, dt, dd))
            entries = []
            for i in range(n):
                for j in range(n):
                    if dt[i, j] != 0:
                        entries.append({"row": [i + 1, j + 1], "col": [j + 1, i + 1],
                                        "re": dt[i, j].real, "im": dt[i, j].imag})
                    if i != j and dd[i, j] != 0:
                        entries.append({"row": [i + 1, j + 1], "col": [i + 1, j + 1],
                                        "re": dd[i, j].real, "im": dd[i, j].imag})
            samples.append({"n": n, "lambda": [_cj(z) for z in pt], "entries": entries})
    return {"kind": "matrix", "n": n, "samples": samples}, tables


class _Sampled:
    """Tables of a sampled matrix, for the benchmark's own checks."""

    def __init__(self, n, tables):
        self.n = n
        self._t = {self._key(pt): (dt, dd) for pt, dt, dd in tables}

    def tables(self, lam):
        return self._t[self._key(lam)]

    def has(self, lam) -> bool:
        return self._key(lam) in self._t

    @staticmethod
    def _key(lam):
        return tuple(np.round(np.asarray(lam, dtype=complex), 12))


def _base_points(R, rng, count, min_residual=None):
    """Points where the matrix and its n shifts are pole-free and bounded;
    with ``min_residual``, also where the benchmark's own shifted residual
    is at least that large (a non-member whose perturbed entry is nearly 0
    at a point is a member there to within TOL)."""
    pts = []
    while len(pts) < count:
        lam = draw_points(rng, R.n, 1)[0]
        try:
            worst = max(float(np.abs(t).max()) for k in range(R.n + 1)
                        for t in R.tables(lam + (np.eye(R.n)[k - 1] if k else 0)))
        except dr.PoleError:
            continue
        if worst >= 1e2:
            continue
        if min_residual is not None and shifted_residual(R, lam) < min_residual:
            continue
        pts.append(lam)
    return pts


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _split_verify(stdout: str):
    head, sep, csv = stdout.partition("\n}\n")
    require(sep != "", "verify output has no JSON object")
    obj = json.loads(head + "\n}")
    rows = [line.split(",") for line in csv.strip().splitlines()]
    require(rows and rows[0] == ["equation", "max_normalized_residual"], "bad CSV header")
    return obj, {r[0]: float(r[1]) for r in rows[1:]}


def _entries(point: dict) -> dict:
    return {(tuple(e["row"]), tuple(e["col"])): complex(e["re"], e["im"])
            for e in point["entries"]}


def _check_point(point: dict, n: int, expect_tables=None) -> tuple:
    """The dense point lies in the two zero-weight patterns; returns its
    (Delta, d) tables, compared to ``expect_tables(lam)`` when given."""
    require(point["n"] == n, f"point has n={point['n']}, expected {n}")
    dt = np.zeros((n, n), dtype=complex)
    dd = np.zeros((n, n), dtype=complex)
    for (row, col), v in _entries(point).items():
        (a, b), (c, d) = row, col
        if (c, d) == (b, a):
            dt[a - 1, b - 1] = v
        elif (c, d) == (a, b) and a != b:
            dd[a - 1, b - 1] = v
        else:
            raise CheckError(f"entry {row}->{col} outside the zero-weight pattern")
    lam = np.array([complex(z["re"], z["im"]) for z in point["lambda"]])
    if expect_tables is not None:
        et, ed = expect_tables(lam)
        scale = max(1.0, float(np.abs(et).max()), float(np.abs(ed).max()))
        require(float(np.abs(et - dt).max()) <= 1e-9 * scale
                and float(np.abs(ed - dd).max()) <= 1e-9 * scale,
                "point entries differ from the datum's coefficients")
    return lam, dt, dd


# CLI templates: name -> template (datum configs)
CLI_DATA = {
    "rat4": Template("R f2d2", "trivial"),
    "tab5": Template("T f1d2,f2", "table"),
    "exa6": Template("T f2,f2 | R d2", "exact"),
    "tri5": Template("T f1,f2d2", "trivial"),
}


#: independent constant draws of the cli_configs data per round
CLI_VARIANTS = 2
#: smallest own shifted residual accepted at the sampled non-member's point
BAD_MIN_RESIDUAL = 1e-4


def cli_items(seed: int, workdir: str) -> list[Item]:
    ops = []
    for var in range(CLI_VARIANTS):
        ops += _cli_variant(seed, var, workdir)
    zero = os.path.join(workdir, "zero.json")
    with open(zero, "w", encoding="utf-8") as fh:
        json.dump(ZERO_RESIDUAL_DATUM, fh)
    ops.append(("verify", ["verify", zero, "--seed", "0"], "ok", "zero", None))
    items = []
    for idx, (mode, argv, expect, src, ctx) in enumerate(ops):
        fault = AttributeError if src == "zero" else None
        name = f"{mode} {src} -> {expect}"
        items.append(Item(name, lambda argv=argv: _call_cli(argv),
                          _cli_check(mode, argv, expect, src, ctx, [seed, 10, idx]),
                          lambda out: out, fault))
    return items


def _cli_variant(seed: int, var: int, workdir: str) -> list:
    rng = _rng(seed, 8, var)
    data = {name: draw_datum(t, _rng(seed, 9, var, k)) for k, (name, t) in enumerate(CLI_DATA.items())}
    mats = {name: d.build() for name, d in data.items()}
    P = {}

    def write(name, obj):
        P[name] = os.path.join(workdir, f"{name}_v{var}.json")
        with open(P[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    for name, d in data.items():
        write(name, datum_config(d))
    sampled = {}
    for name in ("tab5", "exa6"):
        cfg, tabs = matrix_config(mats[name], _base_points(mats[name], rng, 2))
        write("m_" + name, cfg)
        sampled["m_" + name] = (_Sampled(mats[name].n, tabs), [t[0] for t in tabs], name)
    # non-members as sampled matrices: a scaled exchange entry fails the
    # residual check, a one-sided diagonal zero is outside the family.  The
    # scaled entry decays exponentially in part of the box, so the sample
    # point is drawn where the perturbation shows.
    bad = scaled_exchange(mats["tab5"], coupled_pair(data["tab5"].partition), lambda lam: 1.3)
    cfg, tabs = matrix_config(bad, _base_points(bad, rng, 1, min_residual=BAD_MIN_RESIDUAL))
    write("m_bad", cfg)
    sampled["m_bad"] = (_Sampled(bad.n, tabs), [t[0] for t in tabs], None)
    out = one_sided_diagonal(mats["exa6"], coupled_pair(data["exa6"].partition))
    cfg, tabs = matrix_config(out, _base_points(out, rng, 1))
    write("m_out", cfg)
    sampled["m_out"] = (_Sampled(out.n, tabs), [t[0] for t in tabs], None)
    # transform inputs
    pots = draw_potentials(data["tab5"].partition.n, rng)
    write("twist", {"potentials": {
        str(i): {"lin": [_cj(v) for v in lin], "quad": [_cj(v) for v in quad]}
        for i, (lin, quad) in pots.items()}})
    g_values = {pair: complex(*rng.uniform(0.5, 2, 2)) for pair in nd_pairs(data["exa6"].partition)}
    write("gform", {"type": "table", "values": {f"{i},{j}": _cj(v) for (i, j), v in g_values.items()}})
    pole = _pole_point(data["rat4"])
    point = _lambda_arg(_base_points(mats["exa6"], rng, 1)[0])
    s = [str(int(v)) for v in rng.integers(0, 2 ** 31, 8)]
    ops = [
        ("build", ["build", P["rat4"]], "ok", "rat4"),
        ("build", ["build", P["exa6"], "--lambda=" + point], "ok", "exa6"),
        ("verify", ["verify", P["rat4"], "--seed", s[0]], "ok", "rat4"),
        ("verify", ["verify", P["tab5"], "--seed", s[1]], "ok", "tab5"),
        ("verify", ["verify", P["exa6"], "--seed", s[2]], "ok", "exa6"),
        ("classify", ["classify", P["rat4"], "--seed", s[3]], "ok", "rat4"),
        ("classify", ["classify", P["tab5"], "--seed", s[4]], "ok", "tab5"),
        ("classify", ["classify", P["exa6"], "--seed", s[5]], "ok", "exa6"),
        ("hecke", ["hecke", P["rat4"], "--seed", s[6]], "ok", "rat4"),
        ("hecke", ["hecke", P["tab5"], "--seed", s[7]], "ok", "tab5"),
        ("hecke", ["hecke", P["exa6"]], "ok", "exa6"),
        ("twist", ["transform", P["tab5"], "--twist", P["twist"]], "ok", "tab5"),
        ("two_form", ["transform", P["exa6"], "--two-form", P["gform"]], "ok", "exa6"),
        ("contract", ["transform", P["exa6"], "--contract", "1,2,4,5,6"], "ok", "exa6"),
        ("compose", ["transform", P["tab5"], "--compose", P["rat4"], "--g-ab", "1.5",
                     "--g-ba", "0.5+0.5j"], "ok", "tab5"),
        ("scale", ["transform", P["tri5"], "--scale", "0.1"], "ok", "tri5"),
        ("limit", ["transform", P["rat4"], "--limit", "1e-2,1e-3,1e-4"], "ok", "rat4"),
        ("verify", ["verify", P["m_tab5"]], "ok", "m_tab5"),
        ("classify", ["classify", P["m_tab5"]], "ok", "m_tab5"),
        ("hecke", ["hecke", P["m_tab5"]], "ok", "m_tab5"),
        ("verify", ["verify", P["m_exa6"]], "ok", "m_exa6"),
        ("classify", ["classify", P["m_exa6"]], "ok", "m_exa6"),
        ("hecke", ["hecke", P["m_exa6"]], "ok", "m_exa6"),
        ("verify", ["verify", P["m_bad"]], "residual", "m_bad"),
        ("classify", ["classify", P["m_out"]], "not_in_family", "m_out"),
        ("hecke", ["hecke", P["m_out"]], "not_in_family", "m_out"),
        ("build", ["build", P["m_tab5"]], "invalid", "m_tab5"),
        ("build", ["build", P["rat4"], "--lambda=" + pole], "pole", "rat4"),
    ]
    ctx = {"data": data, "mats": mats, "sampled": sampled, "g_values": g_values}
    return [(mode, argv, expect, src, ctx) for mode, argv, expect, src in ops]


def _lambda_arg(lam) -> str:
    return ",".join(f"{float(z.real)!r}{float(z.imag):+.17g}i" for z in lam)


def _pole_point(datum) -> str:
    """A point where the exchange coefficient of the first two indices of a
    rational single-class datum has its pole: x + f_1 - f_2 = 0."""
    c = datum.params
    cls1 = next(k for k in c.signs if 1 in k)
    cls2 = next(k for k in c.signs if 2 in k)
    require(cls1 != cls2 and len(cls1) == 1 and len(cls2) == 1, "pole template")
    lam1 = c.signs[cls1] * (complex(c.f_consts[cls2]) - complex(c.f_consts[cls1]))
    return _lambda_arg([lam1] + [0j] * (datum.partition.n - 1))


def _cli_check(mode, argv, expect, src, ctx, check_seed):
    def check(out):
        code, stdout, stderr = out
        require(code == EXIT[expect], f"exit code {code}, expected {EXIT[expect]} "
                f"for {' '.join(argv)}; stderr: {stderr.strip()[:200]}")
        if expect != "ok" and expect != "residual":
            prefix = {"invalid": "invalid input:", "pole": "pole:",
                      "not_in_family": "not in family:"}[expect]
            require(stderr.startswith(prefix) and stdout == "",
                    f"expected '{prefix}' on stderr and no stdout")
            if expect == "not_in_family" and mode == "hecke":
                S, pts, _ = ctx["sampled"][src]
                require(eigenvalues_vary(spectrum(S, pts)),
                        "hecke rejected a matrix whose eigenvalues are constant")
            return
        rng = np.random.default_rng(check_seed)
        if src == "zero":  # reached once the known verify fault is mended
            obj, _ = _split_verify(stdout)
            require(obj["passed"] and obj["global_residual"] < TOL, "zero-residual datum failed")
            return
        datum = ctx["data"].get(src)
        R = fresh(ctx["mats"][src]) if datum is not None else None
        S, pts, parent = ctx["sampled"].get(src, (None, None, None))
        if mode == "verify":
            obj, csv = _split_verify(stdout)
            require(obj["passed"] == (expect == "ok"), f"passed={obj['passed']}")
            for tag, v in obj["per_equation"].items():
                require(abs(csv[tag] - v) <= 1e-6 * max(abs(v), 1e-300) + 1e-300,
                        f"CSV row {tag} differs from the JSON report")
            require(abs(csv["global"] - obj["global_residual"])
                    <= 1e-6 * obj["global_residual"] + 1e-300, "CSV global row")
            if S is not None:
                bases = [p for p in pts if all(S.has(p + np.eye(S.n)[k]) for k in range(S.n))]
                own = max(shifted_residual(S, p) for p in bases)
                require(obj["num_samples"] == len(bases), "verify used other sample points")
            else:
                seed = int(argv[argv.index("--seed") + 1])
                lams = dr.verifier.sample_lambda(R, np.random.default_rng(seed), 8)
                own = max(shifted_residual(R, lam) for lam in lams)
            require(close(own, obj["global_residual"], rel=1e-6, abs_=1e-13),
                    f"global residual {obj['global_residual']:.3e} vs own {own:.3e}")
            require((own < TOL) == (expect == "ok"), f"own residual {own:.3e}")
            if expect == "residual":
                require(stderr.startswith("FAIL: worst equation"), "no FAIL line on stderr")
            return
        if mode == "build":
            obj = json.loads(stdout)
            require(obj["summary"][0] == f"n = {R.n}", "summary does not start with n")
            if any(a.startswith("--lambda=") for a in argv):
                _check_point(obj["point"], R.n, R.tables)
            return
        if mode == "classify":
            obj = json.loads(stdout)
            part = dr.partition.from_json(obj["partition"])
            perm = {int(k): v for k, v in obj["index_permutation"].items()}
            base = ctx["data"][parent if S is not None else src]
            check_partition(structure(base.partition), part, perm)
            if datum is not None:
                _, params = dr.serialize.params_from_json(obj["params"])
                check_rebuild(R, params, perm, rng,
                              compare_d=datum.template.two_form != "exact")
            return
        if mode == "hecke":
            line, _, rest = stdout.partition("\n")
            obj = json.loads(rest)
            require(line == obj["line"] and line.startswith(obj["kind"]), "hecke line vs JSON")
            rep = _HeckeView(obj)
            if S is not None:
                spec = spectrum(S, pts)
            else:
                spec = _spectrum_at(R, [], rng)
            check_hecke(rep, spec, (S or R).n)
            return
        obj = json.loads(stdout)
        if mode == "scale":
            _, params = dr.serialize.params_from_json(obj["params"])
            require(bool(dr.validate_params(params)), "scaled params are not a valid datum")
            require(sorted(obj["index_map"]) == sorted(str(i) for i in range(1, R.n + 1))
                    and sorted(obj["index_map"].values()) == list(range(1, R.n + 1)),
                    "index_map is not a permutation")
            return
        if mode == "limit":
            d = obj["distances"]
            require(obj["converging"] and all(b < a for a, b in zip(d, d[1:]))
                    and all(o >= 0.9 for o in obj["orders"]), f"limit not converging: {obj}")
            return
        # matrix transforms: the point obeys the transform's defining relations
        require(obj["residual"] < TOL, f"transformed residual {obj['residual']:.3e}")
        if mode == "contract":
            keep = [int(t) for t in argv[argv.index("--contract") + 1].split(",")]
            lam, dt, dd = _check_point(obj["point"], len(keep))
            full = np.zeros(R.n, dtype=complex)
            full[np.array(keep) - 1] = lam
            bt, bd = R.tables(full)
            sel = np.ix_(np.array(keep) - 1, np.array(keep) - 1)
            require(np.allclose(bt[sel], dt, rtol=1e-12, atol=1e-12)
                    and np.allclose(bd[sel], dd, rtol=1e-12, atol=1e-12),
                    "contracted point differs from the restricted tables")
            return
        if mode == "compose":
            other = fresh(ctx["mats"]["rat4"])
            na = R.n
            lam, dt, dd = _check_point(obj["point"], na + other.n)
            at, ad = R.tables(lam[:na])
            bt, bd = other.tables(lam[na:])
            require(np.allclose(dt[:na, :na], at, rtol=1e-12, atol=1e-12)
                    and np.allclose(dt[na:, na:], bt, rtol=1e-12, atol=1e-12)
                    and np.allclose(dd[:na, :na], ad, rtol=1e-12, atol=1e-12)
                    and np.allclose(dd[na:, na:], bd, rtol=1e-12, atol=1e-12),
                    "composed blocks differ from the parts")
            require(np.all(dt[:na, na:] == 0) and np.all(dd[:na, na:] == 1.5)
                    and np.all(dd[na:, :na] == 0.5 + 0.5j), "cross coefficients")
            return
        lam, dt, dd = _check_point(obj["point"], R.n)
        bt, bd = R.tables(lam)
        scale = max(1.0, float(np.abs(bd).max()))
        require(np.allclose(dt, bt, rtol=1e-12, atol=1e-12), f"{mode} changed Delta")
        prod = dd * dd.T
        require(float(np.abs(prod - bd * bd.T).max()) <= 1e-9 * scale ** 2,
                f"{mode} broke d_ij d_ji")
        if mode == "two_form":
            for (i, j), g in ctx["g_values"].items():
                if bd[i - 1, j - 1] != 0:
                    require(abs(dd[i - 1, j - 1] - g * bd[i - 1, j - 1]) <= 1e-9 * scale,
                            f"d_{i}{j} not multiplied by the 2-form value")
    return check


class _HeckeView:
    """The fields of a hecke CLI report that ``check_hecke`` reads."""

    def __init__(self, obj):
        self.kind = obj["kind"]
        self.rho = None if obj["rho"] is None else complex(obj["rho"]["re"], obj["rho"]["im"])
        self.kappa = None if obj["kappa"] is None else complex(obj["kappa"]["re"], obj["kappa"]["im"])


WORKLOADS = {
    "certify": certify_items,
    "classify_roundtrip": classify_items,
    "cli_configs": cli_items,
}
