"""Tests of the benchmark itself: generators are seed-stable, every checker
accepts the program's real outputs and rejects deliberately wrong ones,
and both run modes print every metric named in BENCHMARK.json.

    PYTHONPATH=src:bench python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SEED = 5


def _items(name, tmp_path, picks):
    items = workloads.WORKLOADS[name](SEED, str(tmp_path))
    return [next(it for it in items if it.name.startswith(p)) for p in picks]


def _rejects(item, out):
    with pytest.raises(CheckError):
        item.check(out)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.WORKLOADS["classify_roundtrip"](SEED, str(tmp_path))
    b = workloads.WORKLOADS["classify_roundtrip"](SEED, str(tmp_path))
    c = workloads.WORKLOADS["classify_roundtrip"](SEED + 1, str(tmp_path))
    assert [i.name for i in a] == [i.name for i in b] == [i.name for i in c]
    ka, kb, kc = (it[1].key(it[1].run()) for it in (a, b, c))
    assert ka == kb and ka != kc


def test_certify_checker_rejects_wrong_outputs(tmp_path):
    member, non_member = _items("certify", tmp_path, ["n04 member", "n04 non-member"])
    out = member.run()
    member.check(out)
    non_member.check(non_member.run())

    bad = copy.deepcopy(out)
    bad[0].global_residuals[0] = 1e-3  # residual that the dense oracle does not see
    _rejects(member, bad)
    bad = copy.deepcopy(out)
    bad[1][0]["det_dense"] *= 1.01
    _rejects(member, bad)
    bad = copy.deepcopy(out)
    bad[1][0]["agree"] = False
    _rejects(member, bad)
    # a non-member reported as passing
    _rejects(non_member, out)


def test_classify_checker_rejects_wrong_outputs(tmp_path):
    member, hecke_item, non_member = _items(
        "classify_roundtrip", tmp_path,
        ["member T f1d2,f2", "chain T f1d2,f2+R f2d2", "one_sided"])
    out = member.run()
    member.check(out)

    bad = dict(out)
    st = copy.copy(out["structure"])
    perm = dict(st.index_permutation)
    perm[1], perm[5] = perm[5], perm[1]  # a free index swapped with a d-class member
    st.index_permutation = perm
    bad["structure"] = st
    _rejects(member, bad)

    c = out["params"]
    bad = dict(out, params=type(c)(
        partition=c.partition,
        per_block=tuple(type(b)(b.sum_const, b.det_const * 1.1) for b in c.per_block),
        cross_det=c.cross_det, signs=c.signs, f_consts=c.f_consts, two_form=c.two_form))
    _rejects(member, bad)

    out = hecke_item.run()
    hecke_item.check(out)
    rep = copy.copy(out["hecke"])
    rep.kind = "Hecke" if rep.kind != "Hecke" else "NotHecke"
    _rejects(hecke_item, dict(out, hecke=rep))
    bad = {k: v for k, v in out.items() if k != "hecke"}
    bad["hecke_rejected"] = "pretend the eigenvalues vary"
    _rejects(hecke_item, bad)

    out = non_member.run()
    non_member.check(out)
    _rejects(non_member, {k: v for k, v in out.items() if k != "rejected"})


def test_cli_checker_rejects_wrong_outputs(tmp_path):
    picks = ["verify tab5", "classify m_tab5", "hecke rat4", "contract exa6",
             "classify m_out", "build exa6"]
    items = _items("cli_configs", tmp_path, picks)
    outs = [it.run() for it in items]
    for it, out in zip(items, outs):
        it.check(out)
    verify, classify, hecke, contract, reject, build = zip(items, outs)

    it, (code, stdout, stderr) = verify
    _rejects(it, (1, stdout, stderr))
    obj = json.loads(stdout.partition("\n}\n")[0] + "\n}")
    wrong = stdout.replace(json.dumps(obj["global_residual"]),
                           json.dumps(obj["global_residual"] * 2 + 1e-3))
    _rejects(it, (code, wrong, stderr))

    it, (code, stdout, stderr) = classify
    obj = json.loads(stdout)
    perm = obj["index_permutation"]
    perm["1"], perm["2"] = perm["2"], perm["1"]
    perm["1"], perm["3"] = perm["3"], perm["1"]
    _rejects(it, (code, json.dumps(obj), stderr))

    it, (code, stdout, stderr) = hecke
    line, _, rest = stdout.partition("\n")
    obj = json.loads(rest)
    obj["kind"] = "NotHecke" if obj["kind"] != "NotHecke" else "Hecke"
    obj["line"] = obj["kind"] + obj["line"].partition(" ")[1] + obj["line"].partition(" ")[2]
    _rejects(it, (code, obj["line"] + "\n" + json.dumps(obj), stderr))

    it, (code, stdout, stderr) = contract
    obj = json.loads(stdout)
    obj["point"]["entries"][0]["re"] += 0.5
    _rejects(it, (code, json.dumps(obj), stderr))

    it, (code, stdout, stderr) = reject
    _rejects(it, (0, stdout, stderr))

    it, (code, stdout, stderr) = build
    obj = json.loads(stdout)
    obj["point"]["entries"][-1]["im"] -= 0.25
    _rejects(it, (code, json.dumps(obj), stderr))


def test_known_verify_fault_is_the_only_failure(tmp_path):
    items = workloads.WORKLOADS["cli_configs"](SEED, str(tmp_path))
    faulty = [it for it in items if it.fault is not None]
    assert [it.name for it in faulty] == ["verify zero -> ok"]
    with pytest.raises(AttributeError):
        faulty[0].run()


def test_sampled_non_member_fails_verify(tmp_path):
    # at this seed the first base point drawn for the scaled exchange
    # entry lies where it is ~2e-9, and the matrix passes to within TOL
    items = workloads.WORKLOADS["cli_configs"](1303376644, str(tmp_path))
    bad = [it for it in items if it.name == "verify m_bad -> residual"]
    assert len(bad) == workloads.CLI_VARIANTS
    for it in bad:
        it.check(it.run())


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = _run(["--workload", "cli_configs", "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 57 == result["attempted"]
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_counts_rejected_draws():
    import numpy as np

    import dynrmat as dr
    from inputs import Template, draw_datum
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    R0 = draw_datum(Template("R f2d2"), np.random.default_rng(1)).build()

    def delta(i, j, lam):  # every draw with Re(lam_1) < 0 is rejected at a "pole"
        if lam[0].real < 0:
            raise dr.PoleError("half plane")
        return R0.delta(i, j, lam)

    R = dr.DynamicalRMatrix(n=R0.n, delta=delta, d=R0.d)
    tracer.phase = "timed"
    dr.verifier.sample_lambda(R, np.random.default_rng(0), 8)
    tracer.phase = None
    (span,) = [s for s in tracer.spans if s[0] == "verifier.sample_lambda"]
    drawn = span[-1]["drawn"]
    assert span[-1]["accepted"] == 8 and drawn > 8
    metrics = tracer.metrics(1, 1)
    assert metrics["verifier.sample_accept_ratio"] == 8 / drawn
    assert metrics["rmatrix.tables_misses"] == drawn + 8 * R.n
