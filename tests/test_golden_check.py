"""The golden-replay gate (``tools/golden_check.py``) can fail.

Each test runs the serial, direct cell on ``fig3_small`` only (well under
a second): once as committed, once against a golden directory with one
float moved by one ulp, and once under a plan whose store fault never
comes due.
"""

import importlib.util
import json
import math
import pathlib
import shutil
import sys

import pytest

from repro.resilience import FaultPlan, StoreFault

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "golden_check.py"
GRID = "fig3_small"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("golden_check", TOOL)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module through sys.modules while loading.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_serial_cell_replays_the_committed_golden(gate):
    result = gate.run_cell(gate.Cell("json"), [GRID])
    passes = result["grids"][GRID]["passes"]
    assert passes["cold"]["misses"] == passes["warm"]["hits"] == 4


def test_one_flipped_float_fails_the_gate(gate, tmp_path):
    golden = json.loads(
        (gate.GOLDEN_DIR / f"{GRID}.json").read_text(encoding="utf-8"))
    epoch = golden["records"][0]["epochs"][0]
    epoch["epoch_time_s"] = math.nextafter(
        float.fromhex(epoch["epoch_time_s"]), math.inf).hex()
    (tmp_path / f"{GRID}.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    with pytest.raises(AssertionError, match="diverged from the committed"):
        gate.run_cell(gate.Cell("json"), [GRID], golden_dir=tmp_path)


def test_undelivered_store_fault_fails_the_gate(gate, tmp_path):
    shutil.copy(gate.GOLDEN_DIR / f"{GRID}.json", tmp_path)
    never = FaultPlan(store_faults=(StoreFault(op="get", at=10_000),))
    with pytest.raises(AssertionError, match="planned transient store"):
        gate.run_cell(gate.Cell("json", plan=never), [GRID],
                      golden_dir=tmp_path)
