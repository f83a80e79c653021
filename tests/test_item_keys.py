"""``tools/item_keys.py``: the comparison of the benchmark items' keys and
table calls between two trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "item_keys.py"


def _tool():
    spec = importlib.util.spec_from_file_location("item_keys", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_this_tree_against_itself_agrees_on_every_certify_item():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workloads", "certify", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and all(" 19 items (certify 19), " in line for line in lines[:2])
    assert lines[0].split(": ")[1] == lines[1].split(": ")[1]
    assert lines[2] == "0 of 19 items differ"


def test_compare_names_calls_keys_and_missing_items():
    compare = _tool().compare
    old = [["certify", 1, 0, "a", "(1, 2)", 3], ["certify", 1, 1, "b", "x", 1],
           ["certify", 1, 2, "c", "y", 1]]
    new = [["certify", 1, 0, "a", "(1, 3)", 4], ["certify", 1, 1, "b", "x", 1],
           ["certify", 1, 3, "d", "z", 1]]
    assert compare(old, new) == [
        "('certify', 1, 0, 'a'): raw_tables calls 3 != 4; "
        "keys differ from character 4: '2)' != '3)'",
        "('certify', 1, 2, 'c'): only in the first tree",
        "('certify', 1, 3, 'd'): only in the second tree",
    ]
    assert compare(old, old) == []
