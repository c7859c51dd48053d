"""Instruction encoding and semantics with blindedness propagation.

The ISA is a word-granular load-store machine: no immediates, no sub-word
accesses, one instruction per 64-bit word.  Decoding never looks at tags;
it is a pure function of the instruction word.

Tag policy implemented by :func:`instruction_semantics`: by default an
output is blinded whenever any input is blinded.  Exceptions, in priority
order:

* STORE/LOAD/BLND/RBLND whose address register is blinded either become
  no-ops (``Mode.MODEL``) or trap (``Mode.HARDWARE``) -- a secret must
  never choose a memory address.
* SUB/XOR with both operands naming the same register yield a clear zero:
  the result carries no information about the input.
* MUL/AND with a *clear* zero operand yield a clear zero for the same
  reason.
* BZ traps when its condition or target is blinded -- secrets must never
  reach the program counter.

Arithmetic is modular 2**64.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence, Union

from .model import MASK64, REG_COUNT, FaultKind, TaggedWord


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


#: Output designator for writes to the program counter.
PC = "pc"

Designator = Union[int, str]

ARITHMETIC = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.XOR)

_ABSENT = 0xFF


class DecodeError(ValueError):
    """Instruction word is not in the range of the encoder."""


class EncodeError(ValueError):
    """Decoded instruction is malformed (bad arity or register index)."""


@dataclass(frozen=True, slots=True)
class DecodedInstruction:
    opcode: Opcode
    inputs: tuple[int, ...]
    outputs: tuple[Designator, ...]


class MemKind(Enum):
    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True, slots=True)
class MemoryOperation:
    """A load or store between a register and a word address.

    The address is always taken from a clear input; semantics for blinded
    addresses never emit an operation.
    """

    kind: MemKind
    address: int
    register: int


class ControlKind(Enum):
    NEXT = "next"
    JUMP = "jump"
    FAULT_HANDLER = "fault-handler"
    HALT = "halt"


@dataclass(frozen=True, slots=True)
class Control:
    kind: ControlKind
    target: int | None = None
    fault: FaultKind | None = None

    @classmethod
    def jump(cls, target: int) -> Control:
        return cls(ControlKind.JUMP, target=target)

    @classmethod
    def fault_handler(cls, fault: FaultKind) -> Control:
        return cls(ControlKind.FAULT_HANDLER, fault=fault)


NEXT = Control(ControlKind.NEXT)
HALT_CONTROL = Control(ControlKind.HALT)


# ---------------------------------------------------------------------------
# Encoding
#
# Little-endian byte layout within the 64-bit instruction word:
#   byte 0: opcode
#   byte 1: output register, 0xFF when the output is pc or absent
#   byte 2: first input register, 0xFF when absent
#   byte 3: second input register, 0xFF when absent
#   bytes 4-7: reserved, must be zero
# ---------------------------------------------------------------------------


def _operand_layout(d: DecodedInstruction) -> tuple[int, int, int]:
    """(byte1, byte2, byte3) for a well-formed instruction; raises EncodeError."""
    op, ins, outs = d.opcode, d.inputs, d.outputs

    def reg(i: int) -> int:
        if not isinstance(i, int) or not 0 <= i < REG_COUNT:
            raise EncodeError(f"register index out of range: {i!r}")
        return i

    if op is Opcode.HALT:
        if ins or outs:
            raise EncodeError("halt takes no operands")
        return _ABSENT, _ABSENT, _ABSENT
    if op is Opcode.STORE:
        if len(ins) != 2 or outs:
            raise EncodeError("store takes two inputs and no outputs")
        return _ABSENT, reg(ins[0]), reg(ins[1])
    if op is Opcode.LOAD:
        if len(ins) != 1 or len(outs) != 1 or outs[0] == PC:
            raise EncodeError("load takes one input and one register output")
        return reg(outs[0]), reg(ins[0]), _ABSENT
    if op is Opcode.BZ:
        if len(ins) != 2 or outs != (PC,):
            raise EncodeError("bz takes two inputs and writes pc")
        return _ABSENT, reg(ins[0]), reg(ins[1])
    if op in ARITHMETIC:
        if len(ins) != 2 or len(outs) != 1 or outs[0] == PC:
            raise EncodeError(f"{op.name.lower()} takes two inputs and one output")
        return reg(outs[0]), reg(ins[0]), reg(ins[1])
    if op in (Opcode.BLND, Opcode.RBLND):
        if len(ins) != 1 or outs:
            raise EncodeError(f"{op.name.lower()} takes one input and no outputs")
        return _ABSENT, reg(ins[0]), _ABSENT
    raise EncodeError(f"unknown opcode {op!r}")


def encode(d: DecodedInstruction) -> int:
    """Pack a decoded instruction into its 64-bit word."""
    b1, b2, b3 = _operand_layout(d)
    return int(d.opcode) | (b1 << 8) | (b2 << 16) | (b3 << 24)


def decode(word: int) -> DecodedInstruction:
    """Inverse of :func:`encode`; raises DecodeError off its range.

    Rejects unknown opcodes, nonzero reserved bytes, register indices
    >= REG_COUNT, and wrong absent-operand markers.  Depends only on the
    word, never on tags.
    """
    if not 0 <= word <= MASK64:
        raise DecodeError(f"instruction word out of range: {word:#x}")
    if word >> 32:
        raise DecodeError("reserved bytes are nonzero")
    b0 = word & 0xFF
    b1 = (word >> 8) & 0xFF
    b2 = (word >> 16) & 0xFF
    b3 = (word >> 24) & 0xFF
    try:
        op = Opcode(b0)
    except ValueError:
        raise DecodeError(f"unknown opcode byte {b0:#04x}") from None

    def reg(b: int, slot: str) -> int:
        if b >= REG_COUNT:
            raise DecodeError(f"{slot} register index {b:#04x} out of range")
        return b

    def absent(b: int, slot: str) -> None:
        if b != _ABSENT:
            raise DecodeError(f"{slot} byte must be 0xff, got {b:#04x}")

    if op is Opcode.HALT:
        absent(b1, "output"), absent(b2, "input1"), absent(b3, "input2")
        return DecodedInstruction(op, (), ())
    if op is Opcode.STORE:
        absent(b1, "output")
        return DecodedInstruction(op, (reg(b2, "address"), reg(b3, "source")), ())
    if op is Opcode.LOAD:
        absent(b3, "input2")
        return DecodedInstruction(op, (reg(b2, "address"),), (reg(b1, "destination"),))
    if op is Opcode.BZ:
        absent(b1, "output")
        return DecodedInstruction(op, (reg(b2, "condition"), reg(b3, "target")), (PC,))
    if op in ARITHMETIC:
        return DecodedInstruction(
            op, (reg(b2, "input1"), reg(b3, "input2")), (reg(b1, "output"),)
        )
    # BLND / RBLND
    absent(b1, "output"), absent(b3, "input2")
    return DecodedInstruction(op, (reg(b2, "address"),), ())


_OPCODES = tuple(Opcode)


def random_instruction(rng: random.Random) -> DecodedInstruction:
    """A uniformly random well-formed instruction.

    Draws the opcode, then the register indices in operand order (inputs
    before outputs), so a seeded ``rng`` always yields the same stream.
    """
    op = rng.choice(_OPCODES)
    r = lambda: rng.randrange(REG_COUNT)
    if op is Opcode.HALT:
        return DecodedInstruction(op, (), ())
    if op is Opcode.STORE:
        return DecodedInstruction(op, (r(), r()), ())
    if op is Opcode.LOAD:
        return DecodedInstruction(op, (r(),), (r(),))
    if op is Opcode.BZ:
        return DecodedInstruction(op, (r(), r()), (PC,))
    if op in ARITHMETIC:
        return DecodedInstruction(op, (r(), r()), (r(),))
    return DecodedInstruction(op, (r(),), ())


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

_ALU = {
    Opcode.ADD: lambda a, b: (a + b) & MASK64,
    Opcode.SUB: lambda a, b: (a - b) & MASK64,
    Opcode.MUL: lambda a, b: (a * b) & MASK64,
    Opcode.AND: lambda a, b: a & b,
    Opcode.XOR: lambda a, b: a ^ b,
}

CLEAR_ZERO = TaggedWord(0, False)


def instruction_semantics(
    d: DecodedInstruction,
    inputs: Sequence[TaggedWord],
    mode: Mode = Mode.HARDWARE,
) -> tuple[tuple[TaggedWord, ...], tuple[MemoryOperation, ...], Control]:
    """Compute an instruction's effects from its decoded form and inputs.

    Returns register output values (pairing with the leading output
    designators of ``d``; loads deliver their result through the memory
    operation instead), memory operations, and the control outcome.  Total:
    every violation is reported as a fault-handler control, never an
    exception.

    The function is pure; with value-equivalent inputs it produces
    value-equivalent outputs, identical memory operations, and identical
    control -- the property the harness checks exhaustively.
    """
    op = d.opcode
    if len(inputs) != len(d.inputs):
        raise ValueError(f"{op.name} expects {len(d.inputs)} inputs, got {len(inputs)}")

    if op is Opcode.HALT:
        return (), (), HALT_CONTROL

    if op in (Opcode.STORE, Opcode.LOAD, Opcode.BLND, Opcode.RBLND):
        addr = inputs[0]
        if addr.blinded:
            if mode is Mode.MODEL:
                return (), (), NEXT
            return (), (), Control.fault_handler(FaultKind.BLINDED_ADDRESS)
        if op is Opcode.STORE:
            memop = MemoryOperation(MemKind.STORE, addr.value, d.inputs[1])
            return (), (memop,), NEXT
        if op is Opcode.LOAD:
            memop = MemoryOperation(MemKind.LOAD, addr.value, d.outputs[0])
            return (), (memop,), NEXT
        # BLND/RBLND edit a tag in place; the machine applies the edit, and
        # no memory operation is emitted (nothing reaches the cache).
        return (), (), NEXT

    if op is Opcode.BZ:
        cond, target = inputs
        if cond.blinded or target.blinded:
            return (), (), Control.fault_handler(FaultKind.BLINDED_BRANCH)
        if cond.value == 0:
            return (), (), Control.jump(target.value)
        return (), (), NEXT

    # Arithmetic.
    a, b = inputs
    if op in (Opcode.SUB, Opcode.XOR) and d.inputs[0] == d.inputs[1]:
        return (CLEAR_ZERO,), (), NEXT
    if op in (Opcode.MUL, Opcode.AND) and (
        (not a.blinded and a.value == 0) or (not b.blinded and b.value == 0)
    ):
        return (CLEAR_ZERO,), (), NEXT
    value = _ALU[op](a.value, b.value)
    return (TaggedWord(value, a.blinded or b.blinded),), (), NEXT
