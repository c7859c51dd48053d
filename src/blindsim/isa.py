"""Instruction encoding and semantics with blindedness propagation.

The ISA is a word-granular load-store machine: no immediates, no sub-word
accesses, one instruction per 64-bit word.  Decoding never looks at tags;
it is a pure function of the instruction word.

Tag policy implemented by :func:`instruction_semantics`: by default an
output is blinded whenever any input is blinded.  Exceptions, in priority
order:

* STORE/LOAD/BLND/RBLND whose address register is blinded either become
  no-ops (``Mode.MODEL``) or trap (``Mode.HARDWARE``) -- a secret must
  never choose a memory address.  With a clear address each returns its
  one memory operation: a load, a store, or a tag edit (``BLIND`` /
  ``UNBLIND``), which the machine applies without touching the cache.
* SUB/XOR with both operands naming the same register yield a clear zero:
  the result carries no information about the input.
* MUL/AND with a *clear* zero operand yield a clear zero for the same
  reason.
* BZ traps when its condition or target is blinded -- secrets must never
  reach the program counter.

Arithmetic is modular 2**64.  A step's control is a plain value: None
steps to the next word, an ``int`` jumps there, a :class:`FaultKind`
traps to the handler at address 0, and ``Status.HALTED`` halts.

:func:`instruction_semantics` runs once per machine step, so it reads
enum members through module constants and builds its named tuples with
``tuple.__new__`` from a tuple of all their fields: under CPython 3.11
on a 2-core x86 host an ``Enum.MEMBER`` lookup costs 110-135 ns against
8-14 ns for a module global, and a named tuple's generated ``__new__``
300-610 ns against 150-230 ns through ``tuple.__new__``, which fills no
default, so every field is given.  It reads each field of its
:class:`DecodedInstruction` at most once, by attribute: unpacking the
named tuple reads all three and is no faster, since CPython 3.11
specializes neither.  An ALU result comes from :data:`ALU`, a table of
C operator functions masked to 64 bits, and its word is built inline
with the two slot setters, without the constructor's range check: a
masked value is in range by construction.  So an ALU step makes no
Python frame beyond the step and the semantics.

:func:`decode` runs once for each distinct word a machine fetches at an
address, and a random lockstep pair fetches mostly fresh words, so it
checks the operand bytes by the opcode's input count rather than with
``any()`` over slices, and builds its :class:`DecodedInstruction`, a
named tuple, through ``tuple.__new__`` as every per-step record is
built: 0.36-0.43 us for that construction against 0.47-0.52 us through
a frozen dataclass's slot setters (best of 7 ``timeit`` repeats, 3
runs).  All on CPython 3.11.7, 2-core x86.
"""

from __future__ import annotations

import operator
from enum import Enum, IntEnum
from typing import NamedTuple, Sequence

from .model import (
    MASK64,
    REG_COUNT,
    ZERO,
    FaultKind,
    Status,
    TaggedWord,
    _new_object,
    _set_blinded,
    _set_value,
)


class Opcode(IntEnum):
    HALT = 0x00
    STORE = 0x01
    LOAD = 0x02
    BZ = 0x03
    ADD = 0x04
    SUB = 0x05
    MUL = 0x06
    AND = 0x07
    XOR = 0x08
    BLND = 0x10
    RBLND = 0x11


class Mode(Enum):
    """Policy for tag violations at memory addresses.

    MODEL silently skips the access; HARDWARE raises a fault.  Both are
    safe; they differ only in what the (equally observable) outcome is.
    """

    MODEL = "model"
    HARDWARE = "hardware"


ARITHMETIC = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.XOR)

_ABSENT = 0xFF


class DecodeError(ValueError):
    """Instruction word is not in the range of the encoder."""


class EncodeError(ValueError):
    """Decoded instruction is malformed (bad arity or register index)."""


class DecodedInstruction(NamedTuple):
    """An opcode, its input registers and its output register, or None
    when it writes none; as a named tuple it equals the plain tuple of
    its fields."""

    opcode: Opcode
    inputs: tuple[int, ...]
    output: int | None


class MemKind(Enum):
    LOAD = "load"
    STORE = "store"
    BLIND = "blind"
    UNBLIND = "unblind"


class MemoryOperation(NamedTuple):
    """A step's one access to a word address: LOAD and STORE move a word
    between ``register`` and memory; BLIND and UNBLIND set or clear its
    tag, and ``register`` is the address register.  The address is always
    a clear input; semantics for blinded addresses emit no operation.
    """

    kind: MemKind
    address: int
    register: int


# Builds a per-step record from a tuple of all its fields, skipping the
# named tuple's generated ``__new__`` (see the module docstring).
_new = tuple.__new__


# ---------------------------------------------------------------------------
# Encoding
#
# Little-endian byte layout within the 64-bit instruction word:
#   byte 0: opcode
#   byte 1: output register, 0xFF when absent
#   byte 2: first input register, 0xFF when absent
#   byte 3: second input register, 0xFF when absent
#   bytes 4-7: reserved, must be zero
# ---------------------------------------------------------------------------

#: Operand shape of every opcode: (input count, writes a register).
#: BZ writes none: its target is its second input.  Encoding, decoding,
#: random instructions and assembly text all follow this table.
SHAPES: dict[Opcode, tuple[int, bool]] = {
    Opcode.HALT: (0, False),
    Opcode.STORE: (2, False),
    Opcode.LOAD: (1, True),
    Opcode.BZ: (2, False),
    **{op: (2, True) for op in ARITHMETIC},
    Opcode.BLND: (1, False),
    Opcode.RBLND: (1, False),
}

_BY_BYTE = {int(op): (op, n, writes) for op, (n, writes) in SHAPES.items()}
_PADDING = (_ABSENT, _ABSENT)


def _register(i: int) -> int:
    if not isinstance(i, int) or not 0 <= i < REG_COUNT:
        raise EncodeError(f"register index out of range: {i!r}")
    return i


def encode(d: DecodedInstruction) -> int:
    """Pack a decoded instruction into its 64-bit word; raises EncodeError
    unless its operands have its opcode's shape."""
    shape = _BY_BYTE.get(d.opcode)
    if shape is None:
        raise EncodeError(f"unknown opcode {d.opcode!r}")
    op, n_inputs, writes = shape
    if len(d.inputs) != n_inputs or (d.output is None) is writes:
        output = "a register" if writes else "nothing"
        raise EncodeError(f"{op.name.lower()} takes {n_inputs} input(s) and outputs {output}")
    out = _register(d.output) if writes else _ABSENT
    b2, b3 = (*map(_register, d.inputs), *_PADDING)[:2]
    return int(op) | (out << 8) | (b2 << 16) | (b3 << 24)


def decode(word: int) -> DecodedInstruction:
    """Inverse of :func:`encode`; raises DecodeError off its range.

    Rejects unknown opcodes, nonzero reserved bytes, register indices
    >= REG_COUNT, and wrong absent-operand markers.  Depends only on the
    word, never on tags.  The operand bytes are checked by the opcode's
    input count, and the result is built with ``tuple.__new__`` (see the
    module docstring).
    """
    if not 0 <= word < 1 << 32:
        raise DecodeError(f"{word:#x} is out of range or has nonzero reserved bytes")
    shape = _BY_BYTE.get(word & 0xFF)
    if shape is None:
        raise DecodeError(f"unknown opcode byte {word & 0xFF:#04x}")
    op, n_inputs, writes = shape
    b2 = (word >> 16) & 0xFF
    b3 = word >> 24
    if n_inputs == 2:
        fits, inputs = b2 < REG_COUNT and b3 < REG_COUNT, (b2, b3)
    elif n_inputs == 1:
        fits, inputs = b2 < REG_COUNT and b3 == _ABSENT, (b2,)
    else:
        fits, inputs = b2 == _ABSENT and b3 == _ABSENT, ()
    if not fits:
        raise DecodeError(f"input bytes of {word:#x} do not fit {op.name.lower()}")
    out = (word >> 8) & 0xFF
    if writes:
        fits = out < REG_COUNT
    else:
        fits, out = out == _ABSENT, None
    if not fits:
        raise DecodeError(f"output byte of {word:#x} does not fit {op.name.lower()}")
    return _new(DecodedInstruction, (op, inputs, out))


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

#: The arithmetic of each ALU opcode on two payloads, before the result is
#: masked to 64 bits (``& MASK64``; arithmetic is modular 2**64).
ALU = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.AND: operator.and_,
    Opcode.XOR: operator.xor,
}

#: SUB/XOR of a register with itself, and MUL/AND with a clear zero operand, give a clear zero.
SELF_ZEROING = frozenset((Opcode.SUB, Opcode.XOR))
ZERO_ABSORBING = frozenset((Opcode.MUL, Opcode.AND))

# Enum members and opcode sets the per-step path reads, bound once (see
# the module docstring).
_OP_HALT, _OP_STORE, _OP_LOAD, _OP_BZ = Opcode.HALT, Opcode.STORE, Opcode.LOAD, Opcode.BZ
_MODEL = Mode.MODEL
_MEM_STORE, _MEM_LOAD = MemKind.STORE, MemKind.LOAD
_TAG_EDITS = {Opcode.BLND: MemKind.BLIND, Opcode.RBLND: MemKind.UNBLIND}
_ADDRESSED = frozenset((Opcode.STORE, Opcode.LOAD, *_TAG_EDITS))
_HALTED = Status.HALTED
_BLINDED_ADDRESS, _BLINDED_BRANCH = FaultKind.BLINDED_ADDRESS, FaultKind.BLINDED_BRANCH


def instruction_semantics(
    d: DecodedInstruction,
    inputs: Sequence[TaggedWord],
    mode: Mode = Mode.HARDWARE,
) -> tuple[TaggedWord | None, MemoryOperation | None, int | FaultKind | Status | None]:
    """Compute an instruction's effects from its decoded form and inputs.

    Returns ``(output, memop, control)``: the value for ``d.output``, or
    None (a load delivers its result through its memory operation
    instead); the step's one memory operation, or None; and the control:
    None for the next word, an ``int`` jump target, a :class:`FaultKind`
    to trap with, or ``Status.HALTED``.  Total: every violation is
    reported as a trap's fault kind, never an exception.

    The function is pure; with value-equivalent inputs it produces
    value-equivalent outputs, identical memory operations, and identical
    control -- the property the harness checks exhaustively.
    """
    op = d.opcode
    regs = d.inputs
    if len(inputs) != len(regs):
        raise ValueError(f"{op.name} expects {len(regs)} inputs, got {len(inputs)}")

    if op is _OP_HALT:
        return None, None, _HALTED

    if op in _ADDRESSED:
        addr = inputs[0]
        if addr.blinded:
            return None, None, None if mode is _MODEL else _BLINDED_ADDRESS
        if op is _OP_STORE:
            return None, _new(MemoryOperation, (_MEM_STORE, addr.value, regs[1])), None
        if op is _OP_LOAD:
            return None, _new(MemoryOperation, (_MEM_LOAD, addr.value, d.output)), None
        return None, _new(MemoryOperation, (_TAG_EDITS[op], addr.value, regs[0])), None

    if op is _OP_BZ:
        cond, target = inputs
        if cond.blinded or target.blinded:
            return None, None, _BLINDED_BRANCH
        return None, None, target.value if cond.value == 0 else None

    # Arithmetic.
    a, b = inputs
    if op in SELF_ZEROING and regs[0] == regs[1]:
        return ZERO, None, None
    if op in ZERO_ABSORBING and (
        (not a.blinded and a.value == 0) or (not b.blinded and b.value == 0)
    ):
        return ZERO, None, None
    out = _new_object(TaggedWord)
    _set_value(out, ALU[op](a.value, b.value) & MASK64)
    _set_blinded(out, a.blinded or b.blinded)
    return out, None, None
