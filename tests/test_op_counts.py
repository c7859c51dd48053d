"""The calls into ``src/blindsim`` per benchmark op, against their pins.

``tests/op_counts.py`` counts them; ``tests/op_counts.json`` pins them.
A change that moves a count re-pins it and says why in CHANGES.md.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
PINNED = json.loads((HERE / "op_counts.json").read_text())


# From Python 3.12 a comprehension makes no call (PEP 709), so the counts
# hold on the minor version they were taken on only.
@pytest.mark.skipif(
    "{}.{}".format(*sys.version_info[:2]) != PINNED["python"],
    reason=f"call counts are pinned on Python {PINNED['python']}",
)
def test_calls_per_op_are_pinned():
    out = subprocess.run(
        [sys.executable, str(HERE / "op_counts.py")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    assert json.loads(out) == PINNED
