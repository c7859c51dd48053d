"""Helpers that only the tests call: a decoded random instruction, a
count of calls into ``blindsim``, one event's trace line and the
console-report program.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import random
import sys

from blindsim.isa import DecodedInstruction, decode
from blindsim.machine import TraceEvent, format_trace
from draw_reference import _instruction_word


def random_instruction(rng: random.Random) -> DecodedInstruction:
    """The pair draw's instruction word from ``rng``, decoded."""
    return decode(_instruction_word(rng.getrandbits))


def blindsim_calls(fn, *args, **kwargs) -> int:
    """The Python-level calls into ``blindsim`` that ``fn(*args, **kwargs)`` makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_globals.get("__name__", "").startswith("blindsim."):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count


def format_event(e: TraceEvent) -> str:
    """One stable line per event, without its newline; the byte-level
    comparison unit.  It is :func:`~blindsim.machine.format_trace`'s line
    for ``e``, so any object that is not an event, a subclass of an event
    class included, raises TypeError."""
    return format_trace((e,))[:-1]


def mmio_report(mmio_addr: int = 48, data_addr: int = 32) -> str:
    """Adds one to an (imported, blinded) word and tries to print it to
    the console.  Under the policy this faults; it exists to catch broken
    import paths that forget to taint."""
    return f"""
.entry start
.word pool
start:
    load r10, r0
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r12, r10       # data address
    add  r10, r10, r11
    load r13, r10       # console address
    load r2, r12
    add  r3, r2, r11
    store r13, r3       # faults when r3 is blinded
    halt
pool:
    .word 1
    .word {data_addr:#x}
    .word {mmio_addr:#x}
"""
