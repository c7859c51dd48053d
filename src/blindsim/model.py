"""Tagged values, machine state, and the equivalence relations over them.

Every data word in the simulated machine carries a one-bit sensitivity tag:
a word is either *clear* (ordinary data the outside world may observe) or
*blinded* (secret data whose payload must never influence anything
observable).  Two states are considered equivalent when they agree on
everything an observer could see: program counter, cache line assignments,
halt/fault status, the tag bits themselves, and the payloads of clear
words.  Blinded payloads are free to differ.

All state types here are immutable.  A :class:`SystemState` holds its
registers and its cache line ``addresses`` and ``valid`` bits as plain
tuples, named as :class:`~blindsim.machine.ListMachine` names its lists,
and its memory as a :class:`MemoryImage`.  :meth:`SystemState.edit` is
the one way to change a state: it returns a new state that copies each
written component once and shares the others, and it sets status and
fault together.  Every state has :data:`REG_COUNT` registers.
:func:`state_equiv` reads only the fields both shapes share, so it
judges two states or two machines alike.

Where a value is in range by construction -- a masked ALU result,
every word a random pair draws -- the caller builds its word inline
with ``_new_object``, ``_set_value`` and ``_set_blinded``, skipping the
dataclass ``__init__`` and ``__post_init__``'s range check; the word is
a plain :class:`TaggedWord`, equal, hashed and printed as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

MASK64 = (1 << 64) - 1

#: Number of general-purpose registers in the model machine.
REG_COUNT = 32


class FaultKind(Enum):
    """Why a machine trapped or stopped with a fault.

    The first four arise from the tag policy; DECODE_ERROR and OUT_OF_RANGE
    are ordinary machine faults that never depend on blinded payloads.
    """

    BLINDED_INSTRUCTION_FETCH = "blinded-instruction-fetch"
    BLINDED_BRANCH = "blinded-branch"
    BLINDED_ADDRESS = "blinded-address"
    BLINDED_STORE_TO_UNBLINDABLE = "blinded-store-to-unblindable"
    DECODE_ERROR = "decode-error"
    OUT_OF_RANGE = "out-of-range"


class Status(Enum):
    RUNNING = "running"
    HALTED = "halted"
    FAULTED = "faulted"


@dataclass(frozen=True, slots=True)
class TaggedWord:
    """A 64-bit value plus its blindedness bit."""

    value: int
    blinded: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MASK64:
            raise ValueError(f"word out of range: {self.value:#x}")


_new_object = object.__new__
_set_value = TaggedWord.value.__set__
_set_blinded = TaggedWord.blinded.__set__


def word_value(value: int) -> int:
    """``value`` as a 64-bit word, a negative one in two's complement.
    Raises ValueError unless -2**63 <= value <= 2**64 - 1: the range a
    word written in source or on the command line may take."""
    if not -(1 << 63) <= value <= MASK64:
        raise ValueError(f"value out of 64-bit range: {value}")
    return value & MASK64


def clear(value: int) -> TaggedWord:
    """An observable word: ``value`` read as :func:`word_value` reads it."""
    return TaggedWord(word_value(value), False)


def blinded(value: int) -> TaggedWord:
    """A secret word, read as :func:`clear` reads it; its payload is
    invisible to equivalence."""
    return TaggedWord(word_value(value), True)


ZERO = TaggedWord(0, False)


@dataclass(frozen=True, slots=True)
class MemoryImage:
    """Word-addressed tagged memory.

    Addresses are word indices in [0, len); callers are responsible for
    bounds checks (the machine turns violations into faults, never wraps).
    A class rather than a plain tuple for one remaining reason: the
    benchmark's traced step replays each store with :meth:`store`.
    """

    words: tuple[TaggedWord, ...]

    @classmethod
    def zeros(cls, count: int) -> MemoryImage:
        return cls((ZERO,) * count)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[TaggedWord]:
        return iter(self.words)

    def __getitem__(self, address: int) -> TaggedWord:
        return self.words[address]

    def store(self, address: int, word: TaggedWord) -> MemoryImage:
        """Kept only for the benchmark's traced step, which replays each
        store; write words into a state with :meth:`SystemState.edit`."""
        if not 0 <= address < len(self.words):
            raise IndexError(f"address {address:#x} out of range")
        w = self.words
        return MemoryImage(w[:address] + (word,) + w[address + 1:])


def check_machine_size(memory_words: int, cache_lines: int) -> None:
    """Raise ValueError unless a machine has at least one memory word and
    one cache line: a load or store with no line has nowhere to go."""
    if memory_words <= 0 or cache_lines <= 0:
        raise ValueError("memory_words and cache_lines must be positive")


@dataclass(frozen=True, slots=True)
class SystemState:
    """Complete machine state between steps.

    ``pc`` is a plain integer, deliberately untaggable: control flow is
    visible state and may never hold secrets.  Cache line ``i`` holds
    ``addresses[i]`` when ``valid[i]``: addresses only, never data
    payloads.  A step moves ``status`` only from RUNNING to HALTED or
    FAULTED (a server restarts a machine with :meth:`edit`); ``fault`` is
    set exactly when status is FAULTED.
    """

    pc: int
    registers: tuple[TaggedWord, ...]
    memory: MemoryImage
    addresses: tuple[int, ...]
    valid: tuple[bool, ...]
    status: Status = Status.RUNNING
    fault: FaultKind | None = None

    @classmethod
    def initial(cls, memory_words: int, cache_lines: int = 16) -> SystemState:
        """All words clear zeros, no valid cache line, pc 0, RUNNING; raises
        ValueError unless both sizes are positive."""
        check_machine_size(memory_words, cache_lines)
        regs, mem = (ZERO,) * REG_COUNT, MemoryImage.zeros(memory_words)
        return cls(0, regs, mem, (0,) * cache_lines, (False,) * cache_lines)

    def edit(
        self,
        pc: int | None = None,
        registers: Sequence[tuple[int, TaggedWord]] = (),
        memory: Sequence[tuple[int, TaggedWord]] = (),
        lines: Sequence[tuple[int, int]] = (),
        status: Status | None = None,
        fault: FaultKind | None = None,
    ) -> SystemState:
        """This state with some writes: the one way to change a state.

        Writes are (index, value) pairs applied in order, as a step
        returns them; a line write also makes its line valid.  Each written
        component is copied once and the others are shared; a ``pc`` given
        as None is kept.  A ``status`` sets ``fault`` with it, so a status
        without a fault means no fault; with no status both are kept, or
        only the fault replaced.  An index outside its component raises
        IndexError, and a result with a fault but not FAULTED, or FAULTED
        without a fault, raises ValueError.
        """
        if status is None:
            status, fault = self.status, (self.fault if fault is None else fault)
        if (status is Status.FAULTED) != (fault is not None):
            raise ValueError(f"status {status.value} does not fit fault {fault and fault.value}")
        regs, mem, addresses, valid = self.registers, self.memory, self.addresses, self.valid
        if registers:
            regs = _written(regs, registers)
        if memory:
            mem = MemoryImage(_written(mem.words, memory))
        if lines:
            addresses = _written(addresses, lines)
            valid = _written(valid, [(line, True) for line, _ in lines])
        pc = self.pc if pc is None else pc
        return SystemState(pc, regs, mem, addresses, valid, status, fault)


def _written(items: tuple, writes: Sequence[tuple[int, object]]) -> tuple:
    """``items`` with ``writes`` applied in order, as a new tuple."""
    out = list(items)
    for index, value in writes:
        if not 0 <= index < len(out):
            raise IndexError(f"index {index} out of range for {len(out)} entries")
        out[index] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# Equivalence relations
# ---------------------------------------------------------------------------


def value_equiv(a: TaggedWord, b: TaggedWord) -> bool:
    """Words are equivalent when both are blinded, or both clear and equal."""
    if a.blinded:
        return b.blinded
    return not b.blinded and a.value == b.value


def list_equiv(xs: Sequence[TaggedWord], ys: Sequence[TaggedWord]) -> bool:
    """Pointwise value equivalence; lengths must match.  Either side may
    be any sized iterable of words: a tuple, a list or a
    :class:`MemoryImage`.  A shared word is equivalent without reading its
    fields."""
    if len(xs) != len(ys):
        return False
    for a, b in zip(xs, ys):
        if a is b:
            continue  # a word is equivalent to itself; twins share clear words
        if not (b.blinded if a.blinded else not b.blinded and a.value == b.value):
            return False
    return True


def state_equiv(s1: SystemState, s2: SystemState) -> bool:
    """States are equivalent when an observer could not tell them apart.

    Equal pc, status, fault and cache assignments (address-for-address,
    including validity); registers and memory pointwise value-equivalent.
    Only blinded payloads may differ.  A
    :class:`~blindsim.machine.ListMachine` has these fields under the same
    names, as lists, so two machines compare as two states do; a state is
    never equivalent to a machine, as a tuple never equals a list.
    """
    return (
        s1.pc == s2.pc
        and s1.status is s2.status
        and s1.fault is s2.fault
        and s1.addresses == s2.addresses
        and s1.valid == s2.valid
        and list_equiv(s1.registers, s2.registers)
        and list_equiv(s1.memory, s2.memory)
    )


def redact(s: SystemState) -> SystemState:
    """Canonical representative of a state's equivalence class.

    Every blinded payload is replaced by zero; everything else is kept.
    Idempotent, and equal inputs under state_equiv redact to identical
    values.  Written with :meth:`SystemState.edit`: one shared blinded
    zero goes to each blinded index, and a component with no blinded
    word is shared with ``s``.
    """
    zero = TaggedWord(0, True)
    return s.edit(
        registers=[(i, zero) for i, w in enumerate(s.registers) if w.blinded],
        memory=[(a, zero) for a, w in enumerate(s.memory.words) if w.blinded],
    )


# ---------------------------------------------------------------------------
# Snapshot text format
# ---------------------------------------------------------------------------


def snapshot(s: SystemState) -> str:
    """Deterministic text serialization for golden tests and CLI output.

    One record per line; zero clear words and empty cache lines are
    omitted.  Order: pc, registers ascending, memory ascending, cache
    ascending, status.
    """
    lines = [f"pc={s.pc:#x}"]
    for i, w in enumerate(s.registers):
        if w.blinded or w.value != 0:
            lines.append(f"r{i}={'B' if w.blinded else 'C'}:{w.value:#x}")
    for a, w in enumerate(s.memory):
        if w.blinded or w.value != 0:
            lines.append(f"m{a}={'B' if w.blinded else 'C'}:{w.value:#x}")
    for line, (addr, valid) in enumerate(zip(s.addresses, s.valid)):
        if valid or addr != 0:
            lines.append(f"cache{line}={1 if valid else 0}:{addr:#x}")
    if s.status is Status.FAULTED:
        assert s.fault is not None
        lines.append(f"status=faulted:{s.fault.value}")
    else:
        lines.append(f"status={s.status.value}")
    return "\n".join(lines) + "\n"
