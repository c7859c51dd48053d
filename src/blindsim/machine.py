"""Single-cycle machine: fetch, decode, execute, trace.

A step is a pure function of (state, config): it returns the successor
state and the observable events it produced, sharing structure with the
input state.  Every instruction costs exactly one cycle, so execution time
is data-independent by construction.

Policy violations take two shapes.  Tag violations at a branch or (in
hardware mode) at a memory address trap to the handler at address 0: pc is
set to 0, nothing else changes, and the fault kind is recorded in the
trace while the machine keeps running.  Decode errors, out-of-range
accesses, blinded stores into unblindable ranges, and refused raw untaints
stop the machine with a FAULTED status.  Either way a step never partially
commits: when it faults, registers and memory are exactly as they were at
entry.

Trace events carry only observable data -- addresses, clear values, fault
kinds -- never a blinded payload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

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
    FaultKind,
    MemoryImage,
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
# Step
# ---------------------------------------------------------------------------


def _terminal_fault(
    s: SystemState, kind: FaultKind, cycle: int, events: list, refused: bool = False
) -> tuple[SystemState, tuple]:
    events.append(Fault(cycle, kind, refused))
    return (
        replace(s, status=Status.FAULTED, fault=kind),
        tuple(events),
    )


def _tagged(w: TaggedWord) -> TaggedWord:
    return w


def _untagged(w: TaggedWord) -> TaggedWord:
    return TaggedWord(w.value, False) if w.blinded else w


def step(
    s: SystemState,
    cfg: MachineConfig,
    cycle: int = 0,
    semantics: SemanticsFn = instruction_semantics,
) -> tuple[SystemState, tuple[TraceEvent, ...]]:
    """Execute one instruction; requires ``s.status is RUNNING``.

    ``cycle`` stamps the emitted events.  ``semantics`` is pluggable so
    the test harness can study broken variants; the default implements
    the shipped policy.  Every word enters through ``view``: itself, or a
    clear copy under ``tag_logic=False``, so no tag check fires there.
    """
    if s.status is not Status.RUNNING:
        raise ValueError(f"machine is not running: {s.status}")
    view = _tagged if cfg.tag_logic else _untagged
    events: list[TraceEvent] = []
    mem_size = len(s.memory)

    if not 0 <= s.pc < mem_size:
        return _terminal_fault(s, FaultKind.OUT_OF_RANGE, cycle, events)

    instr = view(s.memory[s.pc])
    if instr.blinded:
        # Trap to the handler at address 0; the payload never reaches the
        # decoder, so the trace shows only the (tag-derived) fault signal.
        events.append(Fault(cycle, FaultKind.BLINDED_INSTRUCTION_FETCH))
        return replace(s, pc=0), tuple(events)

    events.append(Fetch(cycle, s.pc, instr.value))
    try:
        d = decode(instr.value)
    except DecodeError:
        return _terminal_fault(s, FaultKind.DECODE_ERROR, cycle, events)

    inputs = [view(s.registers[i]) for i in d.inputs]
    outputs, memops, control = semantics(d, inputs, cfg.mode)

    # Control resolution first; a trap leaves everything but pc untouched.
    if control.kind is ControlKind.FAULT_HANDLER:
        events.append(Fault(cycle, control.fault))
        return replace(s, pc=0), tuple(events)
    if control.kind is ControlKind.HALT:
        events.append(Halt(cycle))
        return replace(s, status=Status.HALTED), tuple(events)
    if control.kind is ControlKind.JUMP:
        next_pc = control.target
    else:
        next_pc = s.pc + 1
    if not 0 <= next_pc < mem_size:
        return _terminal_fault(s, FaultKind.OUT_OF_RANGE, cycle, events)

    # Validate memory operations before committing anything.
    for op in memops:
        if not 0 <= op.address < mem_size:
            return _terminal_fault(s, FaultKind.OUT_OF_RANGE, cycle, events)
        if op.kind is MemKind.STORE:
            value = view(s.registers[op.register])
            if value.blinded and cfg.is_unblindable(op.address):
                return _terminal_fault(
                    s, FaultKind.BLINDED_STORE_TO_UNBLINDABLE, cycle, events
                )

    # Tag edits (BLND/RBLND).  A blinded address register means the whole
    # instruction was a no-op (model mode; hardware mode trapped above), so
    # the payload must not even be bounds-checked.
    tag_edit: tuple[int, bool] | None = None
    if d.opcode in (Opcode.BLND, Opcode.RBLND):
        addr_word = view(s.registers[d.inputs[0]])
        if not addr_word.blinded:
            if not 0 <= addr_word.value < mem_size:
                return _terminal_fault(s, FaultKind.OUT_OF_RANGE, cycle, events)
            if cfg.tag_logic:
                if d.opcode is Opcode.RBLND and not cfg.allow_raw_unblind:
                    return _terminal_fault(
                        s, FaultKind.DECODE_ERROR, cycle, events, refused=True
                    )
                tag_edit = (addr_word.value, d.opcode is Opcode.BLND)

    # Commit: register writes, then memory operations in order.
    registers = s.registers
    for designator, value in zip(d.outputs, outputs):
        registers = registers.write(designator, value)

    memory = s.memory
    cache = s.cache
    for op in memops:
        if op.kind is MemKind.STORE:
            memory = memory.store(op.address, view(registers[op.register]))
        else:
            registers = registers.write(op.register, view(memory[op.address]))
        events.append(MemAccess(cycle, op.kind, op.address))
        # Direct-mapped: the line depends only on the (clear) address.  A
        # repeat access reports the first valid line holding the address,
        # which a random initial state may also place in a lower line.
        line = op.address % len(cache)
        held = (op.address, True)
        if (cache.addresses[line], cache.valid[line]) == held:
            line = list(zip(cache.addresses, cache.valid)).index(held)
        else:
            cache = cache.assign(line, op.address)
        events.append(CacheUpdate(cycle, line, op.address))
        if op.kind is MemKind.STORE and op.address == cfg.mmio_console:
            events.append(MmioWrite(cycle, registers[op.register].value))

    if tag_edit is not None:
        memory = memory.retag(*tag_edit)

    return (
        SystemState(
            pc=next_pc,
            registers=registers,
            memory=memory,
            cache=cache,
            status=Status.RUNNING,
        ),
        tuple(events),
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
    """Iterate :func:`step` until halt, fault, trap loop, or step budget.

    A trap loop is two consecutive steps that both trap to address 0
    without changing anything else -- the handler itself is stuck, e.g.
    because word 0 is blinded.  Deterministic: identical inputs produce
    bitwise-identical traces.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    trace: list[TraceEvent] = []
    trapped_unchanged = 0
    n = 0
    while n < max_steps and s.status is Status.RUNNING:
        nxt, events = step(s, cfg, cycle=n, semantics=semantics)
        trace.extend(events)
        trapped = (
            nxt.pc == 0
            and nxt.status is Status.RUNNING
            and any(isinstance(e, Fault) for e in events)
            and replace(nxt, pc=s.pc) == s
        )
        trapped_unchanged = trapped_unchanged + 1 if trapped else 0
        if trapped_unchanged >= 2:
            return RunResult(nxt, tuple(trace), RunOutcome.FAULT_LOOP, n + 1)
        s = nxt
        n += 1
    outcome = _OUTCOMES.get(s.status, RunOutcome.STEP_LIMIT)
    return RunResult(s, tuple(trace), outcome, n)
