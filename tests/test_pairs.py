"""``tools/pairs.py``: alternating benchmark runs of two trees, as JSON."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pairs.py"
METRICS = {"items_per_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb", "setup_s"}


def _tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_pair_of_one_second_runs_reports_every_metric(tmp_path):
    out = tmp_path / "pairs.json"
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--pairs", "1",
                           "--seconds", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"date", "trees", "machine", "python", "seed", "seconds", "pairs",
                           "workloads"}
    assert set(result["trees"]) == {"parent", "change"}
    for tree in result["trees"].values():
        assert set(tree) == {"name", "commit", "src_tree", "modified"}
    certify = result["workloads"]["certify"]
    assert set(certify) == {"metrics", "tracemalloc_peak_kib", "faulty_runs", "runs"}
    assert certify["faulty_runs"] == []
    assert all(v > 0 for v in certify["tracemalloc_peak_kib"].values())
    assert [r["first"] for r in certify["runs"]] == ["parent"]
    for run in certify["runs"][0]["runs"].values():
        assert set(run["loadavg"]) == {"before", "after"}
        assert all(len(v) == 3 and min(v) >= 0 for v in run["loadavg"].values())
    assert set(certify["metrics"]) == METRICS
    for metric in certify["metrics"].values():
        assert set(metric) == {"better", "parent", "change", "median_change", "change_won",
                               "pairs", "gap_exceeds_parent_iqr"}
        assert metric["pairs"] == 1 and set(metric["parent"]) == {"values", "median", "q1", "q3"}


def test_summary_counts_wins_by_direction_and_compares_the_gap_with_the_parent_iqr():
    def run(p50, rate):
        return {"result": {"metrics": {"item_p50_ms": {"value": p50},
                                       "items_per_s": {"value": rate}}}}

    runs = [{"first": "parent", "runs": {"parent": run(p, r), "change": run(c, s)}}
            for p, c, r, s in [(4.0, 3.0, 100, 90), (4.2, 3.1, 100, 110), (3.9, 4.0, 100, 120)]]
    got = _tool().summarize(runs, {"item_p50_ms": "lower", "items_per_s": "higher"})
    p50 = got["item_p50_ms"]
    assert p50["parent"] == {"values": [4.0, 4.2, 3.9], "median": 4.0, "q1": 3.95, "q3": 4.1}
    assert p50["change_won"] == 2 and p50["pairs"] == 3
    assert p50["median_change"] == (3.1 - 4.0) / 4.0 and p50["gap_exceeds_parent_iqr"]
    rate = got["items_per_s"]
    assert rate["change_won"] == 2 and rate["median_change"] == 0.1
    assert rate["gap_exceeds_parent_iqr"]  # the parent's IQR is 0
