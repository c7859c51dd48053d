"""Single-cycle machine: fetch, decode, execute, trace.

One method holds a step's semantics: :meth:`ListMachine.step` decides
the step, then commits it to the machine's lists in place and returns
``(events, register_writes, memory_writes, line_writes)``.  Every check
precedes every write: a step that traps, halts or faults sets only pc,
status and fault and returns empty writes, so no step commits part of
its effect.  It reads no opcode: the semantics gives a step's one memory
operation -- a load, a store, or a tag edit, which retags a word in place
and reaches no cache line.  Every read in a step -- the stored register,
the loaded word, the retagged word, the cache line -- sees the state
before it; a ``semantics`` returning more operations raises ValueError.
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
accesses, blinded stores into unblindable ranges, and refused raw untaints
stop the machine with a FAULTED status.

Trace events carry only observable data -- addresses, clear values, fault
kinds -- never a blinded payload.

The per-step path reads enum members through module constants, and
builds each event with ``tuple.__new__`` from a tuple of all its fields.
Under CPython 3.11 on a 2-core x86 host an ``Enum.MEMBER`` lookup costs
110-135 ns against 8-14 ns for a module global, and a named tuple's
generated ``__new__`` 300-610 ns against 150-230 ns through
``tuple.__new__``, which fills no default and checks no arity, so every
field is given.  The events stay named tuples, with the same fields,
reprs and public constructors.  With ``tag_logic`` on, a word is read as
stored, with no call per read, and a word a step makes is built with
:func:`~blindsim.model._word`.

A step also makes no frame or iterator beyond its own.  With
``tag_logic`` on it reads its input registers by count -- an instruction
has 0, 1 or 2 -- into a list display rather than a comprehension; it
pairs its register write with a conditional rather than
``tuple(zip(...))``; and :meth:`MachineConfig.is_unblindable` and the
cache-hit rescan are plain loops rather than ``any`` or ``next`` over a
generator.  On the same host a two-register comprehension costs about
235 ns against 95 ns for the display, ``tuple(zip(...))`` 400 ns against
125 ns, and ``any`` over one range 600 ns against 165 ns.  Its result is
a plain tuple, unpacked by the caller, rather than a named tuple read by
attribute.  Trace lines come from one table of ``%``-formats keyed by
exact event class, so :func:`format_trace` makes one lookup per event
instead of a chain of ``isinstance`` tests inside a generator.

The commit runs a loop only for a component the step writes, so a step
that writes nothing pays for three truth tests and the pc.  Such steps
are common in lockstep checks: over one op of the benchmark's
``check-corpus-64`` workload, 62 % of 23,016 steps write nothing and
51 % are blinded-fetch traps.

:func:`run` and :func:`step` refuse a state whose sizes differ from the
config's (:func:`check_state_fits`): a step reads the sizes from the
state, so a mismatch would run on the state's sizes, or divide by zero
with no cache line.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .isa import (
    ControlKind,
    DecodeError,
    MemKind,
    Mode,
    decode,
    instruction_semantics,
)
from .model import (
    REG_COUNT,
    CacheAssignments,
    FaultKind,
    MemoryImage,
    RegisterFile,
    Status,
    SystemState,
    TaggedWord,
    _word,
    check_machine_size,
)

SemanticsFn = Callable[..., tuple]

# Enum members the per-step path reads, bound once (see the module docstring).
_RUNNING, _HALTED, _FAULTED = Status.RUNNING, Status.HALTED, Status.FAULTED
_MEM_STORE, _MEM_LOAD = MemKind.STORE, MemKind.LOAD
_MEM_BLIND, _MEM_UNBLIND = MemKind.BLIND, MemKind.UNBLIND
_OUT_OF_RANGE, _DECODE_ERROR = FaultKind.OUT_OF_RANGE, FaultKind.DECODE_ERROR
_BLINDED_FETCH = FaultKind.BLINDED_INSTRUCTION_FETCH
_BLINDED_STORE = FaultKind.BLINDED_STORE_TO_UNBLINDABLE
_FAULT_HANDLER, _HALT, _JUMP = ControlKind.FAULT_HANDLER, ControlKind.HALT, ControlKind.JUMP

# Builds a per-step record from a tuple of all its fields, skipping the
# named tuple's generated ``__new__`` (see the module docstring).
_new = tuple.__new__


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Static machine parameters.

    ``unblindable_ranges`` are half-open word-address intervals that may
    never receive blinded data (memory-mapped peripherals).  If
    ``mmio_console`` is set it must lie inside one of them; clear stores
    to it show up in the trace as console output.  ``tag_logic=False``
    turns the machine into a plain untagged reference machine (used to
    demonstrate that tag-free programs behave identically).
    """

    mode: Mode = Mode.HARDWARE
    allow_raw_unblind: bool = False
    memory_words: int = 65536
    cache_lines: int = 16
    unblindable_ranges: tuple[tuple[int, int], ...] = ()
    mmio_console: int | None = None
    tag_logic: bool = True

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


def check_state_fits(s: SystemState, cfg: MachineConfig) -> None:
    """Raise ValueError unless ``s`` has ``cfg.memory_words`` words,
    ``cfg.cache_lines`` cache lines and :data:`REG_COUNT` registers."""
    words, lines, regs = len(s.memory), len(s.cache), len(s.registers)
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


def format_event(e: TraceEvent) -> str:
    """One stable line per event, without its newline; the byte-level
    comparison unit.  It is :func:`format_trace`'s line for ``e``, so
    any object that is not an event, a subclass of an event class
    included, raises TypeError."""
    return format_trace((e,))[:-1]


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


def _untagged(w: TaggedWord) -> TaggedWord:
    """The word as the untagged reference machine reads it: clear."""
    return _word(w.value, False) if w.blinded else w


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
    its writes are applied to ``s`` with :meth:`SystemState.edit`, so the
    result shares every component the step did not write.  The copy
    makes each call O(memory); :func:`run` keeps one machine instead.
    Raises ValueError unless ``s`` fits ``cfg`` (:func:`check_state_fits`).
    """
    if s.status is not _RUNNING:
        raise ValueError(f"machine is not running: {s.status}")
    check_state_fits(s, cfg)
    m = ListMachine(s)
    events, registers, memory, lines = m.step(cfg, cycle, semantics)
    return s.edit(m.pc, registers, memory, lines, m.status, m.fault), events


class ListMachine:
    """A state held in lists and stepped in place: a store is O(1).

    :func:`run` and the lockstep harness step through this; the
    :class:`SystemState` it was built from is never modified.
    ``decoded`` holds one decode slot per executed address (at most
    ``memory_words``); it is not part of the state, so two machines may
    share one.
    """

    __slots__ = ("pc", "registers", "memory", "addresses", "valid", "status", "fault", "decoded")

    def __init__(self, s: SystemState) -> None:
        self.pc = s.pc
        self.registers = list(s.registers.regs)
        self.memory = list(s.memory.words)
        self.addresses = list(s.cache.addresses)
        self.valid = list(s.cache.valid)
        self.status = s.status
        self.fault = s.fault
        self.decoded: dict = {}

    def step(self, cfg: MachineConfig, cycle: int, semantics: SemanticsFn) -> tuple:
        """Execute one instruction in place; requires RUNNING.

        Returns ``(events, register_writes, memory_writes,
        line_writes)``: the step's trace events, its (index, word)
        register and memory writes in commit order (a tag edit is the one
        memory write of its step), and its (line, address) cache
        assignments, each making its line valid.  The step decides
        everything and runs every check before its first write.  A step
        that traps, halts or faults sets only pc, status and fault and
        returns empty writes; a trap is the one stop that leaves the
        machine RUNNING, with a :class:`Fault` as its last event.

        With ``tag_logic`` on, every word is read as stored.  Under
        ``tag_logic=False`` a blinded instruction word is fetched like
        any other and every other word a step reads passes through
        :func:`_untagged`, so no tag check fires and no tag reaches a
        write.  Every read sees the state before the step.  A step makes
        at most one memory operation; a semantics that returns more
        raises ValueError.

        ``decoded`` is a decode slot per address, ``{pc: (word,
        DecodedInstruction)}``, that this step may refill.  A slot is
        used only when the fetched word equals the stored word, so it is
        never a state input: it skips a decode, and nothing else.
        """
        tags = cfg.tag_logic
        memory = self.memory
        mem_size = len(memory)
        pc = self.pc

        if not 0 <= pc < mem_size:
            self.status, self.fault = _FAULTED, _OUT_OF_RANGE
            return (_new(Fault, (cycle, _OUT_OF_RANGE, False)),), (), (), ()

        instr = memory[pc]
        if instr.blinded and tags:
            # Trap to the handler at address 0; the payload never reaches the
            # decoder, so the trace shows only the (tag-derived) fault signal.
            self.pc = 0
            return (_new(Fault, (cycle, _BLINDED_FETCH, False)),), (), (), ()

        word = instr.value
        fetch = _new(Fetch, (cycle, pc, word))
        slot = self.decoded.get(pc)
        if slot is not None and slot[0] == word:
            d = slot[1]
        else:
            try:
                d = decode(word)
            except DecodeError:
                self.status, self.fault = _FAULTED, _DECODE_ERROR
                return (fetch, _new(Fault, (cycle, _DECODE_ERROR, False))), (), (), ()
            self.decoded[pc] = (word, d)

        registers = self.registers
        ops = d.inputs
        if not tags:
            inputs = [_untagged(registers[i]) for i in ops]
        elif len(ops) == 2:
            inputs = [registers[ops[0]], registers[ops[1]]]
        elif ops:
            inputs = [registers[ops[0]]]
        else:
            inputs = []
        outputs, memops, control = semantics(d, inputs, cfg.mode)
        if len(memops) > 1:
            raise ValueError(f"a step makes at most one memory operation, got {len(memops)}")

        # Control resolution first; a trap leaves everything but pc untouched.
        flow = control.kind
        if flow is _FAULT_HANDLER:
            self.pc = 0
            return (fetch, _new(Fault, (cycle, control.fault, False))), (), (), ()
        if flow is _HALT:
            self.status = _HALTED
            return (fetch, _new(Halt, (cycle,))), (), (), ()
        next_pc = control.target if flow is _JUMP else pc + 1
        if not 0 <= next_pc < mem_size:
            self.status, self.fault = _FAULTED, _OUT_OF_RANGE
            return (fetch, _new(Fault, (cycle, _OUT_OF_RANGE, False))), (), (), ()

        # Writes, in order: register outputs, then the memory operation.
        # ``zip(d.outputs, outputs)`` without the iterator: an instruction has
        # at most one output designator.
        reg_writes = ((d.outputs[0], outputs[0]),) if outputs and d.outputs else ()
        mem_writes: tuple[tuple[int, TaggedWord], ...] = ()
        line_writes: tuple[tuple[int, int], ...] = ()
        events: tuple[TraceEvent, ...] = (fetch,)
        if memops:
            ((kind, address, register),) = memops
            if not 0 <= address < mem_size:
                self.status, self.fault = _FAULTED, _OUT_OF_RANGE
                return (fetch, _new(Fault, (cycle, _OUT_OF_RANGE, False))), (), (), ()
            if kind is _MEM_STORE or kind is _MEM_LOAD:
                # Direct-mapped: the line depends only on the (clear) address.  A repeat
                # access reports the first valid line holding the address, which a
                # random initial state may also place in a lower line.
                addresses, valid = self.addresses, self.valid
                line = address % len(addresses)
                if valid[line] and addresses[line] == address:
                    for i in range(line + 1):
                        if valid[i] and addresses[i] == address:
                            line = i
                            break
                else:
                    line_writes = ((line, address),)
                events += (
                    _new(MemAccess, (cycle, kind, address)),
                    _new(CacheUpdate, (cycle, line, address)),
                )
                if kind is _MEM_STORE:
                    word = registers[register]
                    if not tags:
                        word = _untagged(word)
                    elif word.blinded and cfg.is_unblindable(address):
                        self.status, self.fault = _FAULTED, _BLINDED_STORE
                        return (fetch, _new(Fault, (cycle, _BLINDED_STORE, False))), (), (), ()
                    mem_writes = ((address, word),)
                    if address == cfg.mmio_console:
                        events += (_new(MmioWrite, (cycle, word.value)),)
                else:
                    word = memory[address]
                    reg_writes += ((register, word if tags else _untagged(word)),)
            elif tags:
                # A tag edit retags the word in place: it reaches no cache line
                # and emits no event, and the untagged machine ignores it.
                if kind is _MEM_UNBLIND and not cfg.allow_raw_unblind:
                    self.status, self.fault = _FAULTED, _DECODE_ERROR
                    return (fetch, _new(Fault, (cycle, _DECODE_ERROR, True))), (), (), ()
                mem_writes = ((address, _word(memory[address].value, kind is _MEM_BLIND)),)

        # Every check has passed: commit.
        self.pc = next_pc
        if reg_writes:
            for i, w in reg_writes:
                registers[i] = w
        if mem_writes:
            for a, w in mem_writes:
                memory[a] = w
        if line_writes:
            addresses, valid = self.addresses, self.valid
            for line, a in line_writes:
                addresses[line] = a
                valid[line] = True
        return events, reg_writes, mem_writes, line_writes

    def state(self) -> SystemState:
        return SystemState(
            pc=self.pc,
            registers=RegisterFile(tuple(self.registers)),
            memory=MemoryImage(tuple(self.memory)),
            cache=CacheAssignments(tuple(self.addresses), tuple(self.valid)),
            status=self.status,
            fault=self.fault,
        )


# ---------------------------------------------------------------------------
# Image loading
# ---------------------------------------------------------------------------


class LoadError(ValueError):
    """Program image does not fit the configured memory."""


def overlay_image(s: SystemState, image, pc: int | None = None) -> SystemState:
    """Write an image's segments over existing memory; pc defaults to the
    image's entry point.  Registers, cache, status and untouched words
    remain."""
    size = len(s.memory)
    for seg in image.segments:
        if seg.base + len(seg.words) > size:
            raise LoadError(
                f"segment [{seg.base:#x}, {seg.base + len(seg.words):#x}) "
                f"exceeds memory of {size:#x} words"
            )
    entry = image.entry_pc if pc is None else pc
    if not 0 <= entry < size:
        raise LoadError(f"entry pc {entry:#x} out of range")
    return s.edit(pc=entry, memory=[
        (address, w) for seg in image.segments for address, w in enumerate(seg.words, seg.base)
    ])


def boot_image(image, cfg: MachineConfig) -> SystemState:
    """Fresh all-clear-zero machine with the image loaded, at its entry
    point."""
    return overlay_image(SystemState.initial(cfg.memory_words, cfg.cache_lines), image)


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
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    check_state_fits(s, cfg)
    m = ListMachine(s)
    trace: list[TraceEvent] = []
    trapped_before = False
    n = 0
    while n < max_steps and m.status is _RUNNING:
        events, _, _, _ = m.step(cfg, n, semantics)
        trace.extend(events)
        n += 1
        # A trap changes nothing but pc: still running, a Fault last.
        trapped = m.status is _RUNNING and type(events[-1]) is Fault
        if trapped and trapped_before:
            return RunResult(m.state(), tuple(trace), RunOutcome.FAULT_LOOP, n)
        trapped_before = trapped
    outcome = _OUTCOMES.get(m.status, RunOutcome.STEP_LIMIT)
    return RunResult(m.state(), tuple(trace), outcome, n)
