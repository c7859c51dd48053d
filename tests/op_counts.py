"""Count the Python calls into ``src/blindsim`` per benchmark op.

Run from anywhere as ``python tests/op_counts.py``.  For each workload of
``bench/workloads.py`` at seed 0 it builds the workload, runs one warm-up
``run_op(0)`` (the first op of a process fills one-time caches), and then
counts the ``sys.setprofile`` "call" events whose code lies in
``src/blindsim`` over ops 0-3.  Host load moves a timing but not these
counts, so a change in one is a change in the work an op does.  Prints
one JSON object: the Python minor version and, per workload, the four
counts.  ``tests/op_counts.json`` pins them; ``tests/test_op_counts.py``
compares.  It imports ``bench/workloads.py`` and changes nothing there.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "blindsim") + os.sep
OPS = 4


def op_counts() -> dict:
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import workloads

    counts: dict[str, list[int]] = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0)
        workload.run_op(0)
        counts[name] = []
        for k in range(OPS):
            n = 0

            def profile(frame, event, arg):
                nonlocal n
                if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
                    n += 1

            sys.setprofile(profile)
            try:
                workload.run_op(k)
            finally:
                sys.setprofile(None)
            counts[name].append(n)
    return {"python": "{}.{}".format(*sys.version_info[:2]), "counts": counts}


if __name__ == "__main__":
    print(json.dumps(op_counts()))
