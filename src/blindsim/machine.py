"""Single-cycle machine: fetch, decode, execute, trace.

A step is split in two.  ``_effect`` is the one definition of its
semantics: a pure function of (pc, registers, memory, cache, config) that
returns an :class:`Effect` -- the next pc, status and fault, the register
writes, the memory writes (a BLND/RBLND tag edit is one more), the cache
line assignments and the observable events.  ``_commit`` writes an effect
into lists.  :func:`step` copies only the parts an effect writes and
returns a new state; :func:`run` and the lockstep harness keep a
:class:`ListMachine` and commit in place, so a store costs O(1).  Every
instruction costs exactly one cycle, so execution time is data-independent
by construction.

Policy violations take two shapes.  Tag violations at a branch or (in
hardware mode) at a memory address trap to the handler at address 0: pc is
set to 0, nothing else changes, and the fault kind is recorded in the
trace while the machine keeps running.  Decode errors, out-of-range
accesses, blinded stores into unblindable ranges, and refused raw untaints
stop the machine with a FAULTED status.  Either way a step never partially
commits: every check runs before the effect is returned, so a trap or a
fault carries no writes.

Trace events carry only observable data -- addresses, clear values, fault
kinds -- never a blinded payload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .isa import (
    ControlKind,
    DecodeError,
    MemKind,
    Mode,
    Opcode,
    decode,
    instruction_semantics,
)
from .model import (
    CacheAssignments,
    FaultKind,
    MemoryImage,
    RegisterFile,
    Status,
    SystemState,
    TaggedWord,
)

SemanticsFn = Callable[..., tuple]


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
        if self.memory_words <= 0 or self.cache_lines <= 0:
            raise ValueError("memory_words and cache_lines must be positive")
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
        return any(start <= address < end for start, end in self.unblindable_ranges)


# ---------------------------------------------------------------------------
# Trace events
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Fetch:
    cycle: int
    pc: int
    word: int


@dataclass(frozen=True, slots=True)
class MemAccess:
    cycle: int
    kind: MemKind
    address: int


@dataclass(frozen=True, slots=True)
class CacheUpdate:
    cycle: int
    line: int
    address: int


@dataclass(frozen=True, slots=True)
class Fault:
    cycle: int
    kind: FaultKind
    refused: bool = False  # raw-untaint policy refusal, distinct in the trace


@dataclass(frozen=True, slots=True)
class MmioWrite:
    cycle: int
    value: int


@dataclass(frozen=True, slots=True)
class Halt:
    cycle: int


TraceEvent = Fetch | MemAccess | CacheUpdate | Fault | MmioWrite | Halt


def format_event(e: TraceEvent) -> str:
    """One stable line per event; the byte-level comparison unit."""
    if isinstance(e, Fetch):
        return f"cycle={e.cycle} kind=fetch pc={e.pc:#x} word={e.word:#x}"
    if isinstance(e, MemAccess):
        return f"cycle={e.cycle} kind={e.kind.value} addr={e.address:#x}"
    if isinstance(e, CacheUpdate):
        return f"cycle={e.cycle} kind=cache line={e.line:#x} addr={e.address:#x}"
    if isinstance(e, Fault):
        base = f"cycle={e.cycle} kind=fault fault={e.kind.value}"
        return f"{base} refused=0x1" if e.refused else base
    if isinstance(e, MmioWrite):
        return f"cycle={e.cycle} kind=mmio value={e.value:#x}"
    if isinstance(e, Halt):
        return f"cycle={e.cycle} kind=halt"
    raise TypeError(f"unknown event {e!r}")


def format_trace(events: Sequence[TraceEvent]) -> str:
    return "".join(format_event(e) + "\n" for e in events)


# ---------------------------------------------------------------------------
# Step: one effect, one commit
# ---------------------------------------------------------------------------


class Effect(NamedTuple):
    """Everything one step does, decided before anything is written.

    ``registers`` and ``memory`` are (index, word) writes in commit order
    (a BLND/RBLND tag edit is the last memory write); ``lines`` are
    (line, address) cache assignments, each making its line valid.  A
    step that traps, halts or faults writes nothing.  A named tuple, since
    one is built per step and it builds in a third of a frozen
    dataclass's time.
    """

    pc: int
    status: Status
    fault: FaultKind | None
    registers: tuple[tuple[int, TaggedWord], ...]
    memory: tuple[tuple[int, TaggedWord], ...]
    lines: tuple[tuple[int, int], ...]
    events: tuple[TraceEvent, ...]

    @property
    def trapped(self) -> bool:
        """Trapped to the handler at address 0, changing nothing but pc."""
        return self.status is Status.RUNNING and type(self.events[-1]) is Fault


def _stop(pc: int, status: Status, fault: FaultKind | None, *events: TraceEvent) -> Effect:
    """A step that writes nothing: a trap, a halt or a fault."""
    return Effect(pc, status, fault, (), (), (), events)


def _terminal(pc: int, fetch: Fetch, kind: FaultKind, refused: bool = False) -> Effect:
    """A fault after the fetch: the machine stops at ``pc``."""
    return _stop(pc, Status.FAULTED, kind, fetch, Fault(fetch.cycle, kind, refused))


def _tagged(w: TaggedWord) -> TaggedWord:
    return w


def _untagged(w: TaggedWord) -> TaggedWord:
    return TaggedWord(w.value, False) if w.blinded else w


def _latest(words: Sequence[TaggedWord], writes: list, index: int) -> TaggedWord:
    """``words[index]`` as seen after the writes this step already made."""
    for i, w in reversed(writes):
        if i == index:
            return w
    return words[index]


def _effect(
    pc: int,
    registers: Sequence[TaggedWord],
    memory: Sequence[TaggedWord],
    addresses: Sequence[int],
    valid: Sequence[bool],
    cfg: MachineConfig,
    cycle: int,
    semantics: SemanticsFn,
) -> Effect:
    """The one definition of a step's semantics; reads its inputs only.

    Every word enters through ``view``: itself, or a clear copy under
    ``tag_logic=False``, so no tag check fires there.  Every check that
    can stop the step runs before the first write is decided.
    """
    view = _tagged if cfg.tag_logic else _untagged
    mem_size = len(memory)

    if not 0 <= pc < mem_size:
        return _stop(pc, Status.FAULTED, FaultKind.OUT_OF_RANGE, Fault(cycle, FaultKind.OUT_OF_RANGE))

    instr = view(memory[pc])
    if instr.blinded:
        # Trap to the handler at address 0; the payload never reaches the
        # decoder, so the trace shows only the (tag-derived) fault signal.
        return _stop(0, Status.RUNNING, None, Fault(cycle, FaultKind.BLINDED_INSTRUCTION_FETCH))

    fetch = Fetch(cycle, pc, instr.value)
    try:
        d = decode(instr.value)
    except DecodeError:
        return _terminal(pc, fetch, FaultKind.DECODE_ERROR)

    inputs = [view(registers[i]) for i in d.inputs]
    outputs, memops, control = semantics(d, inputs, cfg.mode)

    # Control resolution first; a trap leaves everything but pc untouched.
    if control.kind is ControlKind.FAULT_HANDLER:
        return _stop(0, Status.RUNNING, None, fetch, Fault(cycle, control.fault))
    if control.kind is ControlKind.HALT:
        return _stop(pc, Status.HALTED, None, fetch, Halt(cycle))
    next_pc = control.target if control.kind is ControlKind.JUMP else pc + 1
    if not 0 <= next_pc < mem_size:
        return _terminal(pc, fetch, FaultKind.OUT_OF_RANGE)

    for op in memops:
        if not 0 <= op.address < mem_size:
            return _terminal(pc, fetch, FaultKind.OUT_OF_RANGE)
        if op.kind is MemKind.STORE:
            if view(registers[op.register]).blinded and cfg.is_unblindable(op.address):
                return _terminal(pc, fetch, FaultKind.BLINDED_STORE_TO_UNBLINDABLE)

    # Tag edits (BLND/RBLND).  A blinded address register means the whole
    # instruction was a no-op (model mode; hardware mode trapped above), so
    # the payload must not even be bounds-checked.
    tag_edit: tuple[int, bool] | None = None
    if d.opcode in (Opcode.BLND, Opcode.RBLND):
        addr_word = view(registers[d.inputs[0]])
        if not addr_word.blinded:
            if not 0 <= addr_word.value < mem_size:
                return _terminal(pc, fetch, FaultKind.OUT_OF_RANGE)
            if cfg.tag_logic:
                if d.opcode is Opcode.RBLND and not cfg.allow_raw_unblind:
                    return _terminal(pc, fetch, FaultKind.DECODE_ERROR, refused=True)
                tag_edit = (addr_word.value, d.opcode is Opcode.BLND)

    # Writes, in order: register outputs, then memory operations (each
    # sees the writes before it), then the tag edit.
    reg_writes = list(zip(d.outputs, outputs))
    mem_writes: list[tuple[int, TaggedWord]] = []
    lines: list[tuple[int, int]] = []
    events: list[TraceEvent] = [fetch]
    held = list(zip(addresses, valid)) if memops else []
    for op in memops:
        address = op.address
        if op.kind is MemKind.STORE:
            word = view(_latest(registers, reg_writes, op.register))
            mem_writes.append((address, word))
        else:
            reg_writes.append((op.register, view(_latest(memory, mem_writes, address))))
        events.append(MemAccess(cycle, op.kind, address))
        # Direct-mapped: the line depends only on the (clear) address.  A
        # repeat access reports the first valid line holding the address,
        # which a random initial state may also place in a lower line.
        line = address % len(held)
        if held[line] == (address, True):
            line = held.index((address, True))
        else:
            held[line] = (address, True)
            lines.append((line, address))
        events.append(CacheUpdate(cycle, line, address))
        if op.kind is MemKind.STORE and address == cfg.mmio_console:
            events.append(MmioWrite(cycle, word.value))
    if tag_edit is not None:
        address, blind = tag_edit
        mem_writes.append((address, TaggedWord(_latest(memory, mem_writes, address).value, blind)))

    return Effect(
        next_pc, Status.RUNNING, None,
        tuple(reg_writes), tuple(mem_writes), tuple(lines), tuple(events),
    )


def _commit(eff: Effect, registers: list, memory: list, addresses: list, valid: list) -> None:
    """Write an effect's register, memory and line writes in place.

    Only the parts the effect writes need to be lists."""
    for i, w in eff.registers:
        registers[i] = w
    for a, w in eff.memory:
        memory[a] = w
    for line, a in eff.lines:
        addresses[line] = a
        valid[line] = True


def step(
    s: SystemState,
    cfg: MachineConfig,
    cycle: int = 0,
    semantics: SemanticsFn = instruction_semantics,
) -> tuple[SystemState, tuple[TraceEvent, ...]]:
    """Execute one instruction; requires ``s.status is RUNNING``.

    ``cycle`` stamps the emitted events.  ``semantics`` is pluggable so
    the test harness can study broken variants; the default implements
    the shipped policy.  Only the parts the step writes are copied, so a
    store costs O(memory) here; :func:`run` commits in place instead.
    """
    if s.status is not Status.RUNNING:
        raise ValueError(f"machine is not running: {s.status}")
    cache = s.cache
    eff = _effect(
        s.pc, s.registers.regs, s.memory.words, cache.addresses, cache.valid,
        cfg, cycle, semantics,
    )
    regs = list(s.registers.regs) if eff.registers else s.registers.regs
    words = list(s.memory.words) if eff.memory else s.memory.words
    addresses = list(cache.addresses) if eff.lines else cache.addresses
    valid = list(cache.valid) if eff.lines else cache.valid
    _commit(eff, regs, words, addresses, valid)
    return (
        SystemState(
            pc=eff.pc,
            registers=RegisterFile(tuple(regs)) if eff.registers else s.registers,
            memory=MemoryImage(tuple(words)) if eff.memory else s.memory,
            cache=CacheAssignments(tuple(addresses), tuple(valid)) if eff.lines else cache,
            status=eff.status,
            fault=eff.fault,
        ),
        eff.events,
    )


class ListMachine:
    """A state held in lists and stepped in place: a store is O(1).

    :func:`run` and the lockstep harness step through this; the
    :class:`SystemState` it was built from is never modified.
    """

    __slots__ = ("pc", "registers", "memory", "addresses", "valid", "status", "fault")

    def __init__(self, s: SystemState) -> None:
        self.pc = s.pc
        self.registers = list(s.registers.regs)
        self.memory = list(s.memory.words)
        self.addresses = list(s.cache.addresses)
        self.valid = list(s.cache.valid)
        self.status = s.status
        self.fault = s.fault

    def step(self, cfg: MachineConfig, cycle: int, semantics: SemanticsFn) -> Effect:
        """Decide one step's effect and commit it; requires RUNNING."""
        eff = _effect(
            self.pc, self.registers, self.memory, self.addresses, self.valid,
            cfg, cycle, semantics,
        )
        _commit(eff, self.registers, self.memory, self.addresses, self.valid)
        self.pc, self.status, self.fault = eff.pc, eff.status, eff.fault
        return eff

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
    image's entry point.  Registers, cache, and untouched words remain."""
    words = list(s.memory.words)
    size = len(words)
    for seg in image.segments:
        if seg.base + len(seg.words) > size:
            raise LoadError(
                f"segment [{seg.base:#x}, {seg.base + len(seg.words):#x}) "
                f"exceeds memory of {size:#x} words"
            )
        words[seg.base: seg.base + len(seg.words)] = seg.words
    entry = image.entry_pc if pc is None else pc
    if not 0 <= entry < size:
        raise LoadError(f"entry pc {entry:#x} out of range")
    return replace(s, pc=entry, memory=MemoryImage(tuple(words)))


def boot_image(image, cfg: MachineConfig, pc: int | None = None) -> SystemState:
    """Fresh all-clear-zero machine with the image loaded."""
    s = SystemState.initial(cfg.memory_words, cfg.cache_lines)
    return overlay_image(s, image, pc=pc)


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


class RunOutcome(Enum):
    HALTED = "halted"
    FAULTED = "faulted"
    FAULT_LOOP = "fault-loop"
    STEP_LIMIT = "step-limit"


_OUTCOMES = {Status.HALTED: RunOutcome.HALTED, Status.FAULTED: RunOutcome.FAULTED}


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
    traces.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    m = ListMachine(s)
    trace: list[TraceEvent] = []
    trapped_before = False
    n = 0
    while n < max_steps and m.status is Status.RUNNING:
        eff = m.step(cfg, n, semantics)
        trace.extend(eff.events)
        n += 1
        trapped = eff.trapped
        if trapped and trapped_before:
            return RunResult(m.state(), tuple(trace), RunOutcome.FAULT_LOOP, n)
        trapped_before = trapped
    outcome = _OUTCOMES.get(m.status, RunOutcome.STEP_LIMIT)
    return RunResult(m.state(), tuple(trace), outcome, n)
