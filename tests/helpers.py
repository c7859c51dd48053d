"""Helpers that only the tests call: a decoded random instruction, a
count of calls into ``blindsim``, one event's trace line, the
console-report program, the two console-word probes, a loop past the
checker's fixpoint budget, the ISA's reference semantics without its
tag policy and the harness's twin of any state.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

import random
import sys

from blindsim import checker
from blindsim.corpus import CorpusEntry
from blindsim.isa import DecodedInstruction, MemKind, MemoryOperation, Mode, Opcode, decode
from blindsim.machine import TraceEvent, format_trace
from blindsim.model import MASK64, Status, SystemState, TaggedWord
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


#: Adds one to the (imported, blinded) word at 32 and tries to print it
#: to the console at 48.  Under the policy this faults; it exists to catch
#: broken import paths that forget to taint.
MMIO_REPORT = CorpusEntry("mmio-report", """
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
    .word 0x20
    .word 0x30
""", unblindable=((48, 52),), mmio_console=48)


#: Retags the clear console word at 48 with ``blnd``.  Under the policy
#: the tag edit faults before its write, as a blinded store there does.
BLND_CONSOLE = CorpusEntry("blnd-console", """
.entry start
.word 0x30
start:
    load r1, r0
    blnd r1
    halt
""", unblindable=((48, 52),), mmio_console=48, safe=False)

#: Boots a blinded word at the console word 48: every loader refuses it.
BLINDED_CONSOLE_IMAGE = CorpusEntry(
    "blinded-console-image", ".entry 0x10\n.org 0x30\n.word 5 blinded\n.org 0x10\nhalt\n",
    unblindable=((48, 52),), mmio_console=48, safe=False,
)


def widening_loop() -> str:
    """A 33-word loop whose abstract fixpoint needs more than its budget of
    16 iterations per image word: r1 counts up, and each pass copies it one
    register further down the chain r2 ... r24, so each pass widens one
    more register from a constant to CLEAR."""
    chain = "\n".join(f"    add r{i}, r{i - 1}, r0" for i in range(24, 1, -1))
    return f"""
.entry start
.word pool
start:
    load r30, r0        # pool pointer
    load r31, r30       # constant 1
    add  r30, r30, r31
    load r29, r30       # loop address
loop:
{chain}
    add  r1, r1, r31
    bz   r0, r29
    halt
pool:
    .word 1
    .word loop
"""


# The arithmetic, one lambda per opcode.  The reference semantics and the
# policy oracle of ``test_isa`` take it from here, not from ``isa.ALU``, so
# neither shares code with the semantics under test.
ORACLE_ALU = {
    Opcode.ADD: lambda a, b: (a + b) & MASK64,
    Opcode.SUB: lambda a, b: (a - b) & MASK64,
    Opcode.MUL: lambda a, b: (a * b) & MASK64,
    Opcode.AND: lambda a, b: a & b,
    Opcode.XOR: lambda a, b: a ^ b,
}


def untagged_semantics(d: DecodedInstruction, inputs, mode: Mode):
    """The ISA without its tag policy, in the shape of
    :func:`~blindsim.isa.instruction_semantics`: it reads payloads only,
    every output is clear, ``blnd`` and ``rblnd`` edit nothing and ``bz``
    jumps on values, so ``mode`` changes nothing.  Passed to ``run`` as
    ``semantics=`` it makes the reference machine for a state with no
    blinded word: no word ever becomes blinded, so the machine's own tag
    checks (a blinded fetch, a blinded store into an unblindable range)
    never fire."""
    op = d.opcode
    values = [w.value for w in inputs]
    if op is Opcode.HALT:
        return None, None, Status.HALTED
    if op is Opcode.STORE:
        return None, MemoryOperation(MemKind.STORE, values[0], d.inputs[1]), None
    if op is Opcode.LOAD:
        return None, MemoryOperation(MemKind.LOAD, values[0], d.output), None
    if op is Opcode.BZ:
        condition, target = values
        return None, None, target if condition == 0 else None
    if op is Opcode.BLND or op is Opcode.RBLND:
        return None, None, None
    return TaggedWord(ORACLE_ALU[op](*values), False), None, None


def redraw_blinded(s: SystemState, rng: random.Random) -> SystemState:
    """``s`` with a fresh payload for every blinded word, drawn as the harness draws a twin."""
    return checker._redraw(s, *checker._blinded_positions(s), rng)
