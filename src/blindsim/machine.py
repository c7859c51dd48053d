"""Single-cycle machine: fetch, decode, execute, trace.

One method holds a step's semantics: :meth:`ListMachine.step` decides
the step, then commits it to the machine's lists in place and returns
``(events, register_write, memory_write, line_write)``, each write one
``(index, value)`` pair or None.  Every check precedes every write: a
step that traps, halts or faults sets only pc, status and fault and
returns no writes, so no step commits part of its effect.  It reads no
opcode: the semantics gives a step's register output and its one memory
operation, each or None -- a load, a store, or a tag edit, which retags
a word in place and reaches no cache line -- and its control: None, a
jump target, a :class:`FaultKind` to trap with, or ``Status.HALTED``.
An output for an instruction with no output register is dropped.  Every
read in a step -- the stored register, the loaded word, the retagged
word, the cache line -- sees the state before it.
:func:`run` and the lockstep harness keep one :class:`ListMachine`, so a
store costs O(1); :func:`step` steps a fresh :class:`ListMachine` and
writes the returned writes with :meth:`SystemState.edit`, so each call
copies the state into lists and costs O(memory).  A :class:`ListMachine`
also keeps one decode slot per address, used only while the fetched word
equals the word it was decoded from, so self-modifying code needs no
invalidation rule.  Every instruction costs exactly one cycle, so
execution time is data-independent by construction.

Policy violations take two shapes.  Tag violations at a branch or (in
hardware mode) at a memory address trap to the handler at address 0: pc is
set to 0, nothing else changes, and the fault kind is recorded in the
trace while the machine keeps running.  Decode errors, out-of-range
accesses, blinded writes into unblindable ranges (a store's or a
``blnd``'s, tested at one gate), and every ``rblnd`` (raw untainting is
always refused) stop the machine with a FAULTED status.

Trace events carry only observable data -- addresses, clear values, fault
kinds -- never a blinded payload.

The per-step path reads enum members through module constants, and
builds each event with ``tuple.__new__`` from a tuple of all its fields.
Under CPython 3.11 on a 2-core x86 host an ``Enum.MEMBER`` lookup costs
110-135 ns against 8-14 ns for a module global, and a named tuple's
generated ``__new__`` 300-610 ns against 150-230 ns through
``tuple.__new__``, which fills no default and checks no arity, so every
field is given.  The events stay named tuples, with the same fields,
reprs and public constructors.

A step also makes no frame or iterator beyond its own.  It reads its
input registers by count -- an instruction has 0, 1 or 2 -- into a list
display rather than a comprehension; and
:meth:`MachineConfig.is_unblindable` and the cache-hit rescan are plain
loops rather than ``any`` or ``next`` over a generator.  On the same
host a two-register comprehension costs about 235 ns against 95 ns for
the display, and ``any`` over one range 600 ns against 165 ns.  Its
result is a plain tuple, unpacked by the caller, rather than a named
tuple read by attribute.  Trace lines come from one table of ``%``-formats keyed by
exact event class, so :func:`format_trace` makes one lookup per event
instead of a chain of ``isinstance`` tests inside a generator.

A step pays only for what it does.  :class:`ListMachine` keeps its
memory size and cache line count in slots, since neither changes over
its life, and a decode slot holds ``(word, d, d.inputs, d.output)``, read
with one unpack, so a step reads no field of the decoded instruction
(a named tuple's fields are slower to read than a dataclass's slots
under CPython 3.11).  pc is in range when a step starts, so a
fall-through checks only ``pc + 1 == size``; a jump target gets the full
range check.  A step with no memory operation -- an ALU instruction or
``bz`` -- commits its one register write from a short tail before any
memory-operation code runs, and a load or store builds its three events
as one tuple.  The commit makes one assignment for each write the step
makes.

:func:`run` steps with the cyclic garbage collector off.  The
collector untracks exact tuples but not named tuples, so the events a
run keeps for its trace stay tracked, and a generation-0 collection
comes every 700 net allocations: about every 600 steps of a store loop.
A collection walks the run's young :class:`ListMachine` lists -- 65,536
entries at the default memory size -- and the state they were copied
from, all of which live for the whole run, so it costs O(memory) and
frees nothing.
Over 50 runs of a 200-store loop on a 2-core x86 host under CPython
3.11, a generation-0 collection took 591 us on average at 65,536 words
against 79 us at 1,024 words, and none of the 152 collections at
65,536 words freed an object.  The caller's setting comes back when
:func:`run` returns, and any cycle a pluggable semantics made is
collected then.  :func:`step` and the lockstep harness keep the
collector on: the harness keeps no trace, so its events die young, and
:func:`step`'s machine lives for one step.

:func:`run` and :func:`step` refuse a state whose sizes differ from the
config's (:func:`check_state_fits`): a step reads the sizes from the
state, so a mismatch would run on the state's sizes, or divide by zero
with no cache line.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .isa import DecodeError, MemKind, Mode, decode, instruction_semantics
from .model import (
    REG_COUNT,
    FaultKind,
    MemoryImage,
    Status,
    SystemState,
    TaggedWord,
    check_machine_size,
)

SemanticsFn = Callable[..., tuple]

# Enum members the per-step path reads, bound once (see the module docstring).
_RUNNING, _HALTED, _FAULTED = Status.RUNNING, Status.HALTED, Status.FAULTED
_MEM_STORE, _MEM_LOAD = MemKind.STORE, MemKind.LOAD
_MEM_UNBLIND = MemKind.UNBLIND
_OUT_OF_RANGE, _DECODE_ERROR = FaultKind.OUT_OF_RANGE, FaultKind.DECODE_ERROR
_BLINDED_FETCH = FaultKind.BLINDED_INSTRUCTION_FETCH
_BLINDED_STORE = FaultKind.BLINDED_STORE_TO_UNBLINDABLE

# Builds a per-step record from a tuple of all its fields, skipping the
# named tuple's generated ``__new__`` (see the module docstring).
_new = tuple.__new__


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Static machine parameters.

    ``unblindable_ranges`` are half-open word-address intervals that may
    never receive blinded data (memory-mapped peripherals).  If
    ``mmio_console`` is set it must lie inside one of them; clear stores
    to it show up in the trace as console output.
    """

    mode: Mode = Mode.HARDWARE
    memory_words: int = 65536
    cache_lines: int = 16
    unblindable_ranges: tuple[tuple[int, int], ...] = ()
    mmio_console: int | None = None

    def __post_init__(self) -> None:
        check_machine_size(self.memory_words, self.cache_lines)
        spans = sorted(self.unblindable_ranges)
        for start, end in spans:
            if not 0 <= start < end <= self.memory_words:
                raise ValueError(f"bad unblindable range [{start:#x}, {end:#x})")
        for (_, e1), (s2, _) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ValueError("unblindable ranges overlap")
        if self.mmio_console is not None and not self.is_unblindable(self.mmio_console):
            raise ValueError("mmio_console must lie in an unblindable range")

    def is_unblindable(self, address: int) -> bool:
        for start, end in self.unblindable_ranges:
            if start <= address < end:
                return True
        return False

    def refuse_blinded(self, what: str, memory, base: int, n: int) -> None:
        """Raise ValueError if ``memory``, any word sequence, holds a
        blinded word in ``[base, base + n)`` inside an unblindable range.
        Each range is tested once, on its slice of that window."""
        for start, end in self.unblindable_ranges:
            if any(w.blinded for w in memory[max(start, base):min(end, base + n)]):
                raise ValueError(f"{what} [{base:#x}, {base + n:#x}) overlaps an unblindable range")


def check_state_fits(s: SystemState, cfg: MachineConfig) -> None:
    """Raise ValueError unless ``s`` has ``cfg.memory_words`` words,
    ``cfg.cache_lines`` cache lines and :data:`REG_COUNT` registers."""
    words, lines, regs = len(s.memory), len(s.addresses), len(s.registers)
    if (words, lines, regs) != (cfg.memory_words, cfg.cache_lines, REG_COUNT):
        raise ValueError(
            f"a state of {words} words, {lines} cache lines and {regs} registers does not fit "
            f"a machine of {cfg.memory_words} words, {cfg.cache_lines} cache lines and "
            f"{REG_COUNT} registers"
        )


# ---------------------------------------------------------------------------
# Trace events
#
# Named tuples, so equality ignores the class: ``Fetch(c, p, w) ==
# CacheUpdate(c, p, w)``.  Comparing a step's events stays exact because
# no other two kinds share an arity and field types, and a step's events
# start with its only Fetch (or a Fault) while a CacheUpdate never comes
# first; tests/test_machine.py pins both.
# ---------------------------------------------------------------------------


class Fetch(NamedTuple):
    cycle: int
    pc: int
    word: int


class MemAccess(NamedTuple):
    cycle: int
    kind: MemKind
    address: int


class CacheUpdate(NamedTuple):
    cycle: int
    line: int
    address: int


class Fault(NamedTuple):
    cycle: int
    kind: FaultKind
    refused: bool = False  # raw-untaint policy refusal, distinct in the trace


class MmioWrite(NamedTuple):
    cycle: int
    value: int


class Halt(NamedTuple):
    cycle: int


TraceEvent = Fetch | MemAccess | CacheUpdate | Fault | MmioWrite | Halt


def _mem_access_line(e: MemAccess) -> str:
    return "cycle=%d kind=%s addr=%#x" % (e[0], e[1]._value_, e[2])


def _fault_line(e: Fault) -> str:
    line = "cycle=%d kind=fault fault=%s" % (e[0], e[1]._value_)
    return line + " refused=0x1" if e[2] else line


# The one definition of each event's line, by event class.  Named tuples
# are tuples, so a ``%``-format takes an event as its argument tuple;
# ``_value_`` reads an enum member's value without the ``value``
# property's call.
_LINES: dict[type, Callable[..., str]] = {
    Fetch: "cycle=%d kind=fetch pc=%#x word=%#x".__mod__,
    MemAccess: _mem_access_line,
    CacheUpdate: "cycle=%d kind=cache line=%#x addr=%#x".__mod__,
    Fault: _fault_line,
    MmioWrite: "cycle=%d kind=mmio value=%#x".__mod__,
    Halt: "cycle=%d kind=halt".__mod__,
}


def format_trace(events: Sequence[TraceEvent]) -> str:
    """Each event's line followed by a newline.  A line comes from the
    format table by the event's exact class, one lookup per event;
    anything else raises TypeError."""
    lines = _LINES
    out: list[str] = []
    try:
        for e in events:
            out.append(lines[type(e)](e))
    except KeyError:
        raise TypeError(f"unknown event {e!r}") from None
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Step: decide, then commit
# ---------------------------------------------------------------------------


def step(
    s: SystemState,
    cfg: MachineConfig,
    cycle: int = 0,
    semantics: SemanticsFn = instruction_semantics,
) -> tuple[SystemState, tuple[TraceEvent, ...]]:
    """Execute one instruction; requires ``s.status is RUNNING``.

    ``cycle`` stamps the emitted events.  ``semantics`` is pluggable so
    the test harness can study broken variants; the default implements
    the shipped policy.  The step is :meth:`ListMachine.step` on a copy
    of ``s``, which decides the step, checks everything, then commits;
    each write it returns is applied to ``s`` with
    :meth:`SystemState.edit`, so the result shares every component the
    step did not write.  The copy makes each call O(memory); :func:`run`
    keeps one machine instead.
    Raises ValueError unless ``s`` fits ``cfg`` (:func:`check_state_fits`).
    """
    if s.status is not _RUNNING:
        raise ValueError(f"machine is not running: {s.status}")
    check_state_fits(s, cfg)
    m = ListMachine(s)
    events, *writes = m.step(cfg, cycle, semantics)
    registers, memory, lines = (() if w is None else (w,) for w in writes)
    return s.edit(m.pc, registers, memory, lines, m.status, m.fault), events


class ListMachine:
    """A state held in lists and stepped in place: a store is O(1).

    :func:`run` and the lockstep harness step through this; the
    :class:`SystemState` it was built from is never modified.  Its state
    fields have that class's names, so
    :func:`~blindsim.model.state_equiv` compares two machines.  ``size``
    and ``lines`` are the lengths of ``memory`` and ``addresses``, which
    a step writes only by index.  ``decoded`` holds one decode slot per
    executed address (at most ``memory_words``); it is not part of the
    state, so two machines may share one.
    """

    __slots__ = (
        "pc", "registers", "memory", "size", "addresses", "valid", "lines",
        "status", "fault", "decoded",
    )

    def __init__(self, s: SystemState) -> None:
        self.pc = s.pc
        self.registers = list(s.registers)
        self.memory = list(s.memory.words)
        self.size = len(self.memory)
        self.addresses = list(s.addresses)
        self.valid = list(s.valid)
        self.lines = len(self.addresses)
        self.status = s.status
        self.fault = s.fault
        self.decoded: dict = {}

    def step(self, cfg: MachineConfig, cycle: int, semantics: SemanticsFn) -> tuple:
        """Execute one instruction in place; requires RUNNING.

        Returns ``(events, register_write, memory_write, line_write)``:
        the step's trace events, its (index, word) register write (the
        output, to ``d.output`` when both are not None, or a load's
        word), its (address, word) memory write (a store, or a tag edit),
        and its (line, address) cache assignment, which makes its line
        valid; a write the step does not make is None.  The semantics'
        control steps to the next word when None, jumps when an ``int``,
        halts when ``Status.HALTED``, and otherwise traps with it as the
        fault kind.  The step decides everything and runs every check
        before its first write.  A step that traps, halts or faults sets
        only pc, status and fault and returns three Nones; a trap is the
        one stop that leaves the machine RUNNING, with a :class:`Fault`
        as its last event.

        Every word is read as stored, and every read sees the state
        before the step.

        ``decoded`` is a decode slot per address, ``{pc: (word, d,
        d.inputs, d.output)}`` for the :class:`DecodedInstruction` ``d``
        of ``word``, that this step may refill.  A slot is used only when
        the fetched word equals the stored word, so it is never a state
        input: it skips a decode, and nothing else.
        """
        memory = self.memory
        size = self.size
        pc = self.pc

        if not 0 <= pc < size:
            self.status, self.fault = _FAULTED, _OUT_OF_RANGE
            return (_new(Fault, (cycle, _OUT_OF_RANGE, False)),), None, None, None

        instr = memory[pc]
        if instr.blinded:
            # Trap to the handler at address 0; the payload never reaches the
            # decoder, so the trace shows only the (tag-derived) fault signal.
            self.pc = 0
            return (_new(Fault, (cycle, _BLINDED_FETCH, False)),), None, None, None

        word = instr.value
        fetch = _new(Fetch, (cycle, pc, word))
        slot = self.decoded.get(pc)
        if slot is None or slot[0] != word:
            try:
                d = decode(word)
            except DecodeError:
                self.status, self.fault = _FAULTED, _DECODE_ERROR
                return (fetch, _new(Fault, (cycle, _DECODE_ERROR, False))), None, None, None
            slot = self.decoded[pc] = (word, d, d.inputs, d.output)
        _, d, ops, dst = slot

        registers = self.registers
        if len(ops) == 2:
            inputs = [registers[ops[0]], registers[ops[1]]]
        elif ops:
            inputs = [registers[ops[0]]]
        else:
            inputs = []
        output, memop, control = semantics(d, inputs, cfg.mode)

        # Control resolution first; a trap leaves everything but pc untouched.
        # pc is in range, so a fall-through can leave memory only at its end.
        if control is None:
            next_pc = pc + 1
            if next_pc == size:
                self.status, self.fault = _FAULTED, _OUT_OF_RANGE
                return (fetch, _new(Fault, (cycle, _OUT_OF_RANGE, False))), None, None, None
        elif type(control) is int:
            if not 0 <= control < size:
                self.status, self.fault = _FAULTED, _OUT_OF_RANGE
                return (fetch, _new(Fault, (cycle, _OUT_OF_RANGE, False))), None, None, None
            next_pc = control
        elif control is _HALTED:
            self.status = _HALTED
            return (fetch, _new(Halt, (cycle,))), None, None, None
        else:
            self.pc = 0
            return (fetch, _new(Fault, (cycle, control, False))), None, None, None

        # At most one write of each kind; a load's write replaces the output's.
        register_write = (dst, output) if output is not None and dst is not None else None
        if memop is None:
            # No memory operation: the step commits at most its register write.
            self.pc = next_pc
            if register_write is not None:
                registers[dst] = output
            return (fetch,), register_write, None, None

        memory_write = line_write = None
        kind, address, register = memop
        if not 0 <= address < size:
            self.status, self.fault = _FAULTED, _OUT_OF_RANGE
            return (fetch, _new(Fault, (cycle, _OUT_OF_RANGE, False))), None, None, None
        if kind is _MEM_STORE or kind is _MEM_LOAD:
            # Direct-mapped: the line depends only on the (clear) address.  A repeat
            # access reports the first valid line holding the address, which a
            # random initial state may also place in a lower line.
            addresses, valid = self.addresses, self.valid
            line = address % self.lines
            if valid[line] and addresses[line] == address:
                for i in range(line + 1):
                    if valid[i] and addresses[i] == address:
                        line = i
                        break
            else:
                line_write = (line, address)
            events = (
                fetch,
                _new(MemAccess, (cycle, kind, address)),
                _new(CacheUpdate, (cycle, line, address)),
            )
            if kind is _MEM_STORE:
                word = registers[register]
                memory_write = (address, word)
            else:
                register_write = (register, memory[address])
        else:
            # A blnd retags the word in place: it reaches no cache line and
            # emits no event.  An rblnd is always refused.
            events = (fetch,)
            if kind is _MEM_UNBLIND:
                self.status, self.fault = _FAULTED, _DECODE_ERROR
                return (fetch, _new(Fault, (cycle, _DECODE_ERROR, True))), None, None, None
            word = TaggedWord(memory[address].value, True)
            memory_write = (address, word)
        if memory_write is not None:
            # The one gate on a write, a store's or a tag edit's: no blinded
            # word enters an unblindable range.  A clear word may reach the
            # console.
            if word.blinded and cfg.is_unblindable(address):
                self.status, self.fault = _FAULTED, _BLINDED_STORE
                return (fetch, _new(Fault, (cycle, _BLINDED_STORE, False))), None, None, None
            if address == cfg.mmio_console:
                events += (_new(MmioWrite, (cycle, word.value)),)

        # Every check has passed: commit.
        self.pc = next_pc
        if register_write is not None:
            registers[register_write[0]] = register_write[1]
        if memory_write is not None:
            memory[address] = memory_write[1]
        if line_write is not None:
            self.addresses[line] = address
            self.valid[line] = True
        return events, register_write, memory_write, line_write

    def state(self) -> SystemState:
        return SystemState(
            self.pc, tuple(self.registers), MemoryImage(tuple(self.memory)),
            tuple(self.addresses), tuple(self.valid), self.status, self.fault,
        )


# ---------------------------------------------------------------------------
# Image loading
# ---------------------------------------------------------------------------


class LoadError(ValueError):
    """Program image does not fit the configured memory."""


def check_image_fits(image, size: int, pc: int | None = None) -> int:
    """Raise LoadError unless every segment of ``image`` and its entry pc
    (``pc`` when given) lie in a memory of ``size`` words; return that pc."""
    for seg in image.segments:
        end = seg.base + len(seg.words)
        if seg.base < 0 or end > size:
            where = "starts below address 0" if seg.base < 0 else f"exceeds memory of {size:#x} words"
            raise LoadError(f"segment [{seg.base:#x}, {end:#x}) {where}")
    entry = image.entry_pc if pc is None else pc
    if not 0 <= entry < size:
        raise LoadError(f"entry pc {entry:#x} out of range")
    return entry


def overlay_image(s: SystemState, image, pc: int | None = None, cfg=None) -> SystemState:
    """Write an image's segments over existing memory; pc defaults to the
    image's entry point.  Registers, cache, status and untouched words
    remain.  Raises LoadError as :func:`check_image_fits`, and, given
    ``cfg``, ValueError as :meth:`MachineConfig.refuse_blinded` if a
    segment puts a blinded word in one of its unblindable ranges: every
    image loaded for a machine keeps them clear."""
    entry = check_image_fits(image, len(s.memory), pc)
    s = s.edit(pc=entry, memory=[
        (address, w) for seg in image.segments for address, w in enumerate(seg.words, seg.base)
    ])
    if cfg is not None and cfg.unblindable_ranges:
        for seg in image.segments:
            cfg.refuse_blinded("image segment", s.memory, seg.base, len(seg.words))
    return s


def boot_image(image, cfg: MachineConfig) -> SystemState:
    """Fresh all-clear-zero machine with the image loaded, at its entry
    point.  Raises what :func:`overlay_image` raises given ``cfg``."""
    return overlay_image(SystemState.initial(cfg.memory_words, cfg.cache_lines), image, cfg=cfg)


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


class RunOutcome(Enum):
    HALTED = "halted"
    FAULTED = "faulted"
    FAULT_LOOP = "fault-loop"
    STEP_LIMIT = "step-limit"


_OUTCOMES = {_HALTED: RunOutcome.HALTED, _FAULTED: RunOutcome.FAULTED}


@dataclass(frozen=True, slots=True)
class RunResult:
    state: SystemState
    trace: tuple[TraceEvent, ...]
    outcome: RunOutcome
    steps: int


def run(
    s: SystemState,
    cfg: MachineConfig,
    max_steps: int,
    semantics: SemanticsFn = instruction_semantics,
) -> RunResult:
    """Step until halt, fault, trap loop, or step budget.

    The state is copied into a :class:`ListMachine` once and every step
    commits in place, so ``s`` is left as it was.  A trap loop is two
    consecutive steps that both trap to address 0 (a trap changes
    nothing but pc) -- the handler itself is stuck, e.g. because word 0
    is blinded.  Deterministic: identical inputs produce bitwise-identical
    traces.  Raises ValueError unless ``s`` fits ``cfg``
    (:func:`check_state_fits`).

    The cyclic garbage collector is off for the call, from building the
    machine to building the result, and the caller's setting comes back
    when the call returns or raises; a refused call does not touch it.
    A reference cycle that ``semantics`` makes is collected after the
    run, not during it (see the module docstring).  The setting is
    process-wide: a run that starts in another thread while this one
    steps finds the collector off and leaves it off, and the run that
    found it on turns it back on.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    check_state_fits(s, cfg)
    collecting = gc.isenabled()
    gc.disable()
    try:
        m = ListMachine(s)
        step = m.step
        trace: list[TraceEvent] = []
        extend = trace.extend
        trapped_before = False
        n = 0
        while n < max_steps and m.status is _RUNNING:
            events = step(cfg, n, semantics)[0]
            extend(events)
            n += 1
            # A trap changes nothing but pc, which it sets to 0: still
            # running, a Fault last.
            trapped = m.pc == 0 and m.status is _RUNNING and type(events[-1]) is Fault
            if trapped and trapped_before:
                return RunResult(m.state(), tuple(trace), RunOutcome.FAULT_LOOP, n)
            trapped_before = trapped
        outcome = _OUTCOMES.get(m.status, RunOutcome.STEP_LIMIT)
        return RunResult(m.state(), tuple(trace), outcome, n)
    finally:
        if collecting:
            gc.enable()
