#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

Runs short session-4k benchmarks in this process and checks that

* a wrong pinned hash is reported as failed ops, with no metrics and
  exit status 1;
* a session whose decrypted output is corrupted is reported the same way
  on an unpinned seed, where only the invariant checks apply;
* the same runs without the fault pass and print every metric.

Exits 0 when the gate behaves, 1 otherwise.
"""

import contextlib
import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run_bench  # noqa: E402

WORKLOAD = "session-4k"


def bench(seed: int, pins=None):
    """(exit status, result line) of a one-second untraced run."""
    args = run_bench.parse_args(
        ["--workload", WORKLOAD, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = run_bench.run_one(args, pins=pins)
    return status, json.loads(out.getvalue().splitlines()[-1])


def refused(status: int, result: dict) -> bool:
    return status == 1 and not result["correct"] and result["failed"] > 0 and result["metrics"] == {}


def passed(status: int, result: dict) -> bool:
    return status == 0 and result["correct"] and result["failed"] == 0 and len(result["metrics"]) > 0


def main() -> int:
    workloads = run_bench.import_workloads()
    checks = []

    checks.append(("unmodified run, pinned seed", passed(*bench(run_bench.PINNED_SEED))))

    pins = copy.deepcopy(run_bench.load_pins(WORKLOAD, run_bench.PINNED_SEED))
    pins[1]["sessions"][0]["trace_sha256"] = "0" * 64
    checks.append(("wrong pinned trace hash", refused(*bench(run_bench.PINNED_SEED, pins=pins))))

    real_decrypt = workloads.client_decrypt

    def corrupted_decrypt(key, envelope):
        words = list(real_decrypt(key, envelope))
        words[0] ^= 1
        return tuple(words)

    checks.append(("unmodified run, unpinned seed", passed(*bench(3))))
    workloads.client_decrypt = corrupted_decrypt
    try:
        checks.append(("corrupted decrypted export", refused(*bench(3))))
    finally:
        workloads.client_decrypt = real_decrypt

    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
