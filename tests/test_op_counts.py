"""The calls and bytecodes in ``src/blindsim`` per benchmark op, against
their pins.

``tests/op_counts.py`` counts them; ``tests/op_counts.json``
pins them.  A change that moves a count re-pins it and says why in
CHANGES.md.  Its ``--profile`` reading is checked for shape: every layer
is reached.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import op_counts

HERE = Path(__file__).resolve().parent
PINNED = json.loads((HERE / "op_counts.json").read_text())


# From Python 3.12 a comprehension makes no call (PEP 709), and the
# bytecode changes with every minor version, so the counts hold on the
# minor version they were taken on only.
pinned_python = pytest.mark.skipif(
    "{}.{}".format(*sys.version_info[:2]) != PINNED["python"],
    reason=f"counts are pinned on Python {PINNED['python']}",
)


@pytest.fixture(scope="module")
def counted() -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "op_counts.py")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    return json.loads(out)


@pinned_python
def test_calls_per_op_are_pinned(counted):
    assert (counted["python"], counted["counts"]) == (PINNED["python"], PINNED["counts"])


@pinned_python
def test_bytecodes_per_op_are_pinned(counted):
    assert {name: counted["bytecodes"][name] for name in op_counts.BYTECODE_PINS} == PINNED["bytecodes"]
    # Every workload is counted and timed, the unpinned one included.
    assert set(counted["bytecodes"]) == set(counted["ns_per_bytecode"]) == set(PINNED["counts"])
    assert all(ns > 0 for ns in counted["ns_per_bytecode"].values())


def test_the_profile_reaches_every_layer():
    out = subprocess.run(
        [sys.executable, str(HERE / "op_counts.py"), "--profile"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    layers = json.loads(out)["layers"]
    assert set(layers) == set(PINNED["counts"])
    reached = set()
    for rows in layers.values():
        reached.update(rows)
        for row in rows.values():
            assert row["calls_per_op"] > 0 and row["own_us_per_call"] >= 0
    assert reached == set(op_counts.LAYERS)
    # Each op of the session workload runs two sessions, each with one
    # import, one compute and one export.
    session = layers["session-4k"]
    assert session["import_region"]["calls_per_op"] == 2
    assert session["export_region"]["calls_per_op"] == 2
    assert session["image_codec"]["calls_per_op"] == 2
