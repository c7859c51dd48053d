"""Tagged values, machine state, and the equivalence relations over them.

Every data word in the simulated machine carries a one-bit sensitivity tag:
a word is either *clear* (ordinary data the outside world may observe) or
*blinded* (secret data whose payload must never influence anything
observable).  Two states are considered equivalent when they agree on
everything an observer could see: program counter, cache line assignments,
halt/fault status, the tag bits themselves, and the payloads of clear
words.  Blinded payloads are free to differ.

All state types here are immutable.  :meth:`SystemState.edit` is the one
way to change a state: it returns a new state that copies each written
component once and shares the others, and it sets status and fault
together.  Every state has :data:`REG_COUNT` registers.

:func:`_word` is how the hot paths build a word -- an ALU result, a tag
edit, every word a random pair draws.  It runs the range check of
:class:`TaggedWord` and then fills the two slots directly, skipping the
dataclass ``__init__`` and ``__post_init__``: about 260 ns a word against
440-470 ns through the constructor (CPython 3.11.7, 2-core x86, best of
7 ``timeit`` repeats).  The word it returns is a plain
:class:`TaggedWord`, equal, hashed and printed as one.
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


def _word(value: int, blinded: bool) -> TaggedWord:
    """``TaggedWord(value, blinded)`` without the dataclass ``__init__``;
    raises the constructor's ValueError for a value outside 64 bits."""
    if not 0 <= value <= MASK64:
        raise ValueError(f"word out of range: {value:#x}")
    w = _new_object(TaggedWord)
    _set_value(w, value)
    _set_blinded(w, blinded)
    return w


def clear(value: int) -> TaggedWord:
    """An observable word."""
    return TaggedWord(value & MASK64, False)


def blinded(value: int) -> TaggedWord:
    """A secret word; its payload is invisible to equivalence."""
    return TaggedWord(value & MASK64, True)


ZERO = TaggedWord(0, False)


@dataclass(frozen=True, slots=True)
class RegisterFile:
    """The :data:`REG_COUNT` tagged registers of a machine state."""

    regs: tuple[TaggedWord, ...]

    @classmethod
    def zeros(cls) -> RegisterFile:
        return cls((ZERO,) * REG_COUNT)

    def __len__(self) -> int:
        return len(self.regs)

    def __iter__(self) -> Iterator[TaggedWord]:
        return iter(self.regs)

    def __getitem__(self, index: int) -> TaggedWord:
        return self.regs[index]


@dataclass(frozen=True, slots=True)
class MemoryImage:
    """Word-addressed tagged memory.

    Addresses are word indices in [0, len); callers are responsible for
    bounds checks (the machine turns violations into faults, never wraps).
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


@dataclass(frozen=True, slots=True)
class CacheAssignments:
    """Per-line address assignments; addresses only, never data payloads."""

    addresses: tuple[int, ...]
    valid: tuple[bool, ...]

    @classmethod
    def empty(cls, lines: int) -> CacheAssignments:
        return cls((0,) * lines, (False,) * lines)

    def __len__(self) -> int:
        return len(self.addresses)


def check_machine_size(memory_words: int, cache_lines: int) -> None:
    """Raise ValueError unless a machine has at least one memory word and
    one cache line: a load or store with no line has nowhere to go."""
    if memory_words <= 0 or cache_lines <= 0:
        raise ValueError("memory_words and cache_lines must be positive")


@dataclass(frozen=True, slots=True)
class SystemState:
    """Complete machine state between steps.

    ``pc`` is a plain integer, deliberately untaggable: control flow is
    visible state and may never hold secrets.  A step moves ``status``
    only from RUNNING to HALTED or FAULTED (a server restarts a machine
    with :meth:`edit`); ``fault`` is set exactly when status is FAULTED.
    """

    pc: int
    registers: RegisterFile
    memory: MemoryImage
    cache: CacheAssignments
    status: Status = Status.RUNNING
    fault: FaultKind | None = None

    @classmethod
    def initial(cls, memory_words: int, cache_lines: int = 16) -> SystemState:
        """All words clear zeros, no valid cache line, pc 0, RUNNING; raises
        ValueError unless both sizes are positive."""
        check_machine_size(memory_words, cache_lines)
        regs, mem = RegisterFile.zeros(), MemoryImage.zeros(memory_words)
        return cls(0, regs, mem, CacheAssignments.empty(cache_lines))

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
        regs, mem, cache = self.registers, self.memory, self.cache
        if registers:
            regs = RegisterFile(_written(regs.regs, registers))
        if memory:
            mem = MemoryImage(_written(mem.words, memory))
        if lines:
            cache = CacheAssignments(
                _written(cache.addresses, lines),
                _written(cache.valid, [(line, True) for line, _ in lines]),
            )
        return SystemState(self.pc if pc is None else pc, regs, mem, cache, status, fault)


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
    """Pointwise value equivalence; lengths must match.  A shared word is
    equivalent without reading its fields."""
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

    Equal pc, status, and cache assignments (address-for-address, including
    validity); registers and memory pointwise value-equivalent.  Only
    blinded payloads may differ.
    """
    return (
        s1.pc == s2.pc
        and s1.status == s2.status
        and s1.fault == s2.fault
        and s1.cache == s2.cache
        and list_equiv(s1.registers.regs, s2.registers.regs)
        and list_equiv(s1.memory.words, s2.memory.words)
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
        registers=[(i, zero) for i, w in enumerate(s.registers.regs) if w.blinded],
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
    for line, (addr, valid) in enumerate(zip(s.cache.addresses, s.cache.valid)):
        if valid or addr != 0:
            lines.append(f"cache{line}={1 if valid else 0}:{addr:#x}")
    if s.status is Status.FAULTED:
        assert s.fault is not None
        lines.append(f"status=faulted:{s.fault.value}")
    else:
        lines.append(f"status={s.status.value}")
    return "\n".join(lines) + "\n"
