"""``tools/layers.py``: warm per-layer timings against n, as JSON."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "layers.py"
LAYERS = {"build", "validate_params", "sample_lambda", "check_system", "global_half", "equations", "peaks", "check_invertibility",
          "stacked_tables", "stacked_tables_point", "unit_scale", "unit_scale_columns",
          "classify", "detect_relations", "build_equivalences", "incidence_matrices",
          "check_propagation", "triangularize", "block_structure", "recover_params",
          "hecke_classify"}


def test_layers_writes_a_positive_minimum_per_layer_and_n(tmp_path):
    out = tmp_path / "layers.json"
    done = subprocess.run([sys.executable, str(TOOL), "--n", "3", "4", "--repeat", "2",
                           "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert set(result) == {"unit", "statistic", "library", "python", "numpy", "machine",
                           "samples", "repeat", "layers"}
    assert result["unit"] == "us" and result["statistic"] == "min"
    assert result["samples"] == 8 and result["repeat"] == 2
    assert result["library"] == str(ROOT / "src" / "dynrmat")
    assert set(result["layers"]) == LAYERS
    for by_n in result["layers"].values():
        assert set(by_n) == {"3", "4"} and all(v > 0 for v in by_n.values())
