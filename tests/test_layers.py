"""``tools/layers.py``: warm per-layer timings against n, as JSON."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "layers.py"
LAYERS = {"check_system", "global_half", "equations", "peaks", "check_invertibility",
          "stacked_tables", "stacked_tables_point", "unit_scale", "unit_scale_columns"}


def test_layers_writes_a_positive_median_per_layer_and_n(tmp_path):
    out = tmp_path / "layers.json"
    done = subprocess.run([sys.executable, str(TOOL), "--n", "3", "4", "--repeat", "2",
                           "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"unit", "library", "python", "numpy", "machine", "samples",
                           "repeat", "layers"}
    assert result["unit"] == "us" and result["samples"] == 8 and result["repeat"] == 2
    assert result["library"] == str(ROOT / "src" / "dynrmat")
    assert set(result["layers"]) == LAYERS
    for by_n in result["layers"].values():
        assert set(by_n) == {"3", "4"} and all(v > 0 for v in by_n.values())
