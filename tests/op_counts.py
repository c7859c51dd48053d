"""Count the Python calls into ``src/blindsim`` per benchmark op.

Run from anywhere as ``python tests/op_counts.py``.  For each workload of
``bench/workloads.py`` at seed 0 it builds the workload, runs one warm-up
``run_op(0)`` (the first op of a process fills one-time caches), and then
counts the ``sys.setprofile`` "call" events whose code lies in
``src/blindsim`` over ops 0-3.  Host load moves a timing but not these
counts, so a change in one is a change in the work an op does.  Beside
them it counts the bytecodes that op 0 of each workload executes in
``src/blindsim``: the ``sys.settrace`` "opcode" events of frames whose
code lies there, after the same warm-up.  A bytecode count sees work
inside a call that a call count cannot, but not work done in C: AEAD,
X25519 and tuple copies.  It also times op 0 untraced, the fastest of
three runs, in nanoseconds per bytecode; the ratio is highest where C
does the work.  Prints one JSON object: the Python minor version and,
per workload, the four call counts, op 0's bytecodes and its ns per
bytecode.  ``tests/op_counts.json`` pins the calls and the bytecodes of
``BYTECODE_PINS``; ``tests/test_op_counts.py`` compares.  It imports
``bench/workloads.py`` and changes nothing there.

``python tests/op_counts.py --profile`` runs the same warm-up and ops
under ``cProfile`` instead, and prints, per workload, each layer of
``LAYERS`` that the ops reach: its own time per call in microseconds and
its calls per op.  The times include the profiler's overhead, so they
compare layers and commits on one host, not against a plain run; the
calls are exact.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = str(SRC / "blindsim") + os.sep
OPS = 4
# The workloads whose op-0 bytecodes are pinned: traced, the three take
# under a second together, while one op of check-corpus-64 takes seconds.
BYTECODE_PINS = ("run-store-64k", "ni-loop-1k", "session-4k")

# Each layer and the functions whose own time and calls it sums, by
# module and qualified name.
LAYERS = {
    "decode": [("isa", "decode")],
    "instruction_semantics": [("isa", "instruction_semantics")],
    "ListMachine.step": [("machine", "ListMachine.step")],
    "_unwinding_holds": [("checker", "_unwinding_holds")],
    "state_equiv": [("model", "state_equiv")],
    "pair_draw": [("checker", "generate_equivalent_pair"), ("checker", "_redraw")],
    "import_region": [("engine", "EncryptionEngine.import_region")],
    "export_region": [("engine", "EncryptionEngine.export_region")],
    "frame_codec": [("protocol", "encode_frame"), ("protocol", "decode_frame")],
    "image_codec": [("assembler", "encode_image"), ("assembler", "decode_image")],
}


def warmed_workloads():
    """(name, workload) per workload at seed 0, each after one warm-up op."""
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        workload = cls(0)
        workload.run_op(0)
        yield name, workload


def calls(workload, k: int) -> int:
    """The calls into ``src/blindsim`` that op ``k`` makes."""
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
    return n


def bytecodes(workload, k: int) -> int:
    """The bytecodes that op ``k`` executes in ``src/blindsim``."""
    n = 0

    def opcode(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return opcode

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            frame.f_trace_opcodes = True
            return opcode
        return None

    sys.settrace(call)
    try:
        workload.run_op(k)
    finally:
        sys.settrace(None)
    return n


def op_ns(workload, k: int) -> int:
    """The fastest of three untraced runs of op ``k``, in nanoseconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        workload.run_op(k)
        times.append(time.perf_counter_ns() - start)
    return min(times)


def op_counts() -> dict:
    counts: dict[str, list[int]] = {}
    codes: dict[str, int] = {}
    ns_per_bytecode: dict[str, float] = {}
    for name, workload in warmed_workloads():
        counts[name] = [calls(workload, k) for k in range(OPS)]
        codes[name] = bytecodes(workload, 0)
        ns_per_bytecode[name] = round(op_ns(workload, 0) / codes[name], 2)
    return {
        "python": "{}.{}".format(*sys.version_info[:2]),
        "counts": counts,
        "bytecodes": codes,
        "ns_per_bytecode": ns_per_bytecode,
    }


def layer_codes() -> dict[str, list]:
    """The code objects of each layer's functions."""
    codes = {}
    for layer, functions in LAYERS.items():
        codes[layer] = []
        for module, qualname in functions:
            obj = importlib.import_module(f"blindsim.{module}")
            for part in qualname.split("."):
                obj = getattr(obj, part)
            codes[layer].append(obj.__code__)
    return codes


def op_profile() -> dict:
    layers: dict[str, dict] = {}
    for name, workload in warmed_workloads():
        profiler = cProfile.Profile()
        for k in range(OPS):
            profiler.runcall(workload.run_op, k)
        profiler.create_stats()
        rows = {}
        for layer, codes in layer_codes().items():
            calls, own = 0, 0.0
            for code in codes:
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                _, n, tottime, _, _ = profiler.stats.get(key, (0, 0, 0.0, 0.0, None))
                calls += n
                own += tottime
            if calls:
                rows[layer] = {
                    "own_us_per_call": round(own / calls * 1e6, 3),
                    "calls_per_op": calls / OPS,
                }
        layers[name] = rows
    return {"python": "{}.{}".format(*sys.version_info[:2]), "layers": layers}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", action="store_true",
        help="own time per call and calls per op of each layer, under cProfile",
    )
    args = parser.parse_args()
    print(json.dumps(op_profile() if args.profile else op_counts()))
