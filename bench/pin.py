#!/usr/bin/env python3
"""Write bench/pinned.json: the simulated statistics of every op input of
every workload at the pinned seed.

    python3 bench/pin.py

Each input runs once untraced and once traced; the two must agree and
pass the workload's invariants before anything is written.  Re-pin only
in a change that alters simulated behaviour on purpose, and say so.
"""

import json
import os
import sys

from run_bench import PINNED_PATH, PINNED_SEED, WORKLOAD_NAMES, canonical, import_workloads


def main() -> int:
    workloads = import_workloads()
    from tracing import Tracer

    pins = {}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](PINNED_SEED)
        t = Tracer()
        pins[name] = []
        for k in range(wl.INPUTS):
            stats, error = wl.op_stats(k, wl.run_op(k))
            traced, traced_error = wl.traced_op(k, t)
            if error or traced_error:
                sys.exit(f"{name} input {k}: {error or traced_error}")
            if canonical(stats) != canonical(traced):
                sys.exit(f"{name} input {k}: traced statistics differ from untraced")
            pins[name].append(canonical(stats))
        print(f"{name}: {wl.INPUTS} inputs pinned")
    with open(PINNED_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
