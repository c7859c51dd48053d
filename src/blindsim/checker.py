"""Static taint compliance analysis and the randomized equivalence harness.

The static side answers "can this program fault under the tag policy,
given which inputs are blinded?" by abstract interpretation over the
domain

    BOTTOM < CONST(v) < CLEAR < TOP,   BLINDED < TOP

per register and per memory word.  Constant tracking is load-bearing: it
resolves branch targets (the ISA has no immediates, so targets come from
constant pools) and models the clear-zero absorption of MUL/AND.  The
analysis is deliberately conservative -- whenever it cannot resolve an
instruction word, address, or branch target it reports MAY_FAULT rather
than guessing.  A DEFINITELY_FAULTS verdict is only ever claimed after a
concrete replay: the reported witness is an initial state, consistent
with the signature, that demonstrably reaches the fault.

The dynamic side generates pairs of states that agree on everything
observable and differ only in blinded payloads, runs them in lockstep,
and checks after every step that they are still equivalent and produced
identical trace events.  Equivalence is checked by unwinding: since the
pair was equivalent before the step, it suffices to compare pc, status,
fault and whatever either side wrote.  On failure it shrinks the payload
delta to a minimal counterexample.  With raw unblinding disabled (the
default) the shipped semantics never fails this check; broken variants
fail fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

from .assembler import ProgramImage, render_instruction
from .isa import (
    DecodeError,
    DecodedInstruction,
    Mode,
    Opcode,
    decode,
    encode,
    instruction_semantics,
    random_instruction,
)
from .machine import Effect, Fault, ListMachine, LoadError, MachineConfig, boot_image, run
from .model import (
    MASK64,
    REG_COUNT,
    CacheAssignments,
    FaultKind,
    MemoryImage,
    RegisterFile,
    Status,
    SystemState,
    TaggedWord,
    state_equiv,
    value_equiv,
)

# ---------------------------------------------------------------------------
# Abstract domain
# ---------------------------------------------------------------------------


class AbsKind(Enum):
    BOTTOM = "bottom"
    CONST = "const"
    CLEAR = "clear"
    BLINDED = "blinded"
    TOP = "top"


@dataclass(frozen=True, slots=True)
class AbsVal:
    kind: AbsKind
    const: int | None = None

    def __repr__(self) -> str:
        if self.kind is AbsKind.CONST:
            return f"Const({self.const:#x})"
        return self.kind.name.title()


BOTTOM = AbsVal(AbsKind.BOTTOM)
CLEAR_UNKNOWN = AbsVal(AbsKind.CLEAR)
BLINDED_ANY = AbsVal(AbsKind.BLINDED)
TOP = AbsVal(AbsKind.TOP)


def const(value: int) -> AbsVal:
    return AbsVal(AbsKind.CONST, value & MASK64)


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    if a == b:
        return a
    if a.kind is AbsKind.BOTTOM:
        return b
    if b.kind is AbsKind.BOTTOM:
        return a
    clearish = (AbsKind.CONST, AbsKind.CLEAR)
    if a.kind in clearish and b.kind in clearish:
        return CLEAR_UNKNOWN
    if a.kind is AbsKind.BLINDED and b.kind is AbsKind.BLINDED:
        return BLINDED_ANY
    return TOP


def may_be_blinded(v: AbsVal) -> bool:
    return v.kind in (AbsKind.BLINDED, AbsKind.TOP)


def must_be_blinded(v: AbsVal) -> bool:
    return v.kind is AbsKind.BLINDED


def is_clear_zero(v: AbsVal) -> bool:
    return v.kind is AbsKind.CONST and v.const == 0


# ---------------------------------------------------------------------------
# Abstract memory: known cells plus a summary for every other address
# ---------------------------------------------------------------------------


class AbsMemory:
    __slots__ = ("cells", "rest")

    def __init__(self, cells: dict[int, AbsVal], rest: AbsVal):
        self.cells = cells
        self.rest = rest

    def read(self, address: int) -> AbsVal:
        return self.cells.get(address, self.rest)

    def write(self, address: int, value: AbsVal) -> AbsMemory:
        cells = dict(self.cells)
        cells[address] = value
        return AbsMemory(cells, self.rest)

    def weak_write_everywhere(self, value: AbsVal) -> AbsMemory:
        cells = {a: join(v, value) for a, v in self.cells.items()}
        return AbsMemory(cells, join(self.rest, value))

    def join_all(self) -> AbsVal:
        out = self.rest
        for v in self.cells.values():
            out = join(out, v)
        return out

    def merge(self, other: AbsMemory) -> AbsMemory:
        keys = set(self.cells) | set(other.cells)
        cells = {a: join(self.read(a), other.read(a)) for a in keys}
        return AbsMemory(cells, join(self.rest, other.rest))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbsMemory):
            return NotImplemented
        if self.rest != other.rest:
            return False
        keys = set(self.cells) | set(other.cells)
        return all(self.read(a) == other.read(a) for a in keys)

    def __hash__(self):
        raise TypeError("AbsMemory is mutable state, not hashable")


@dataclass(frozen=True)
class AbsState:
    regs: tuple[AbsVal, ...]
    mem: AbsMemory

    def merge(self, other: AbsState) -> AbsState:
        return AbsState(
            tuple(join(a, b) for a, b in zip(self.regs, other.regs)),
            self.mem.merge(other.mem),
        )

    def __eq__(self, other) -> bool:
        return self.regs == other.regs and self.mem == other.mem


# ---------------------------------------------------------------------------
# Signatures, findings, reports
# ---------------------------------------------------------------------------


class SigTag(Enum):
    CLEAR = "C"
    BLINDED = "B"
    TOP = "T"


_SIG_ABS = {
    SigTag.CLEAR: CLEAR_UNKNOWN,
    SigTag.BLINDED: BLINDED_ANY,
    SigTag.TOP: TOP,
}


@dataclass(frozen=True, slots=True)
class TaintSignature:
    """Which inputs are blinded at entry.

    Registers not named default to the machine's boot value, a clear zero
    (which is what makes constant-pool bootstrapping analyzable).  Memory
    segments are indexed by position in the image; unnamed segments take
    their taint from the image's own word tags.
    """

    registers: Mapping[int, SigTag] = field(default_factory=dict)
    segments: Mapping[int, SigTag] = field(default_factory=dict)


def parse_signature(text: str) -> TaintSignature:
    """Parse ``r1=B,r2=C,s0=B`` into a signature."""
    registers: dict[int, SigTag] = {}
    segments: dict[int, SigTag] = {}
    if text.strip():
        for part in text.split(","):
            part = part.strip()
            if "=" not in part:
                raise ValueError(f"bad signature entry {part!r}")
            name, _, tag_text = part.partition("=")
            try:
                tag = SigTag(tag_text.strip().upper())
            except ValueError:
                raise ValueError(f"bad taint tag {tag_text!r} in {part!r}") from None
            name = name.strip().lower()
            if name.startswith("r") and name[1:].isdigit():
                index = int(name[1:])
                if index >= REG_COUNT:
                    raise ValueError(f"register out of range in {part!r}")
                registers[index] = tag
            elif name.startswith("s") and name[1:].isdigit():
                segments[int(name[1:])] = tag
            else:
                raise ValueError(f"bad signature entry {part!r}")
    return TaintSignature(registers, segments)


class Verdict(Enum):
    COMPLIANT = "compliant"
    MAY_FAULT = "may-fault"
    DEFINITELY_FAULTS = "definitely-faults"


@dataclass(frozen=True, slots=True)
class Finding:
    pc: int | None
    instruction: str
    reason: str
    fault: FaultKind | None = None  # the fault class this point can raise
    definite: bool = False  # abstractly certain, pending replay
    unresolved: bool = False  # the analysis lost track here


@dataclass(frozen=True, slots=True)
class Witness:
    """A signature-consistent initial state that replays to a real fault."""

    initial: SystemState
    fault: FaultKind
    steps: int
    pc: int | None


@dataclass(frozen=True, slots=True)
class ComplianceReport:
    verdict: Verdict
    findings: tuple[Finding, ...]
    witness: Witness | None = None
    iterations: int = 0
    bound_exceeded: bool = False

    def format(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]
        for f in self.findings:
            where = f"pc={f.pc:#x}" if f.pc is not None else "pc=?"
            kind = "definite" if f.definite else "possible"
            lines.append(f"{where} [{kind}] {f.instruction}: {f.reason}")
        if self.witness:
            lines.append(
                f"witness: {self.witness.fault.value} after {self.witness.steps} steps"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


def _arith_transfer(d: DecodedInstruction, a: AbsVal, b: AbsVal) -> AbsVal:
    op = d.opcode
    if op in (Opcode.SUB, Opcode.XOR) and d.inputs[0] == d.inputs[1]:
        return const(0)
    if op in (Opcode.MUL, Opcode.AND) and (is_clear_zero(a) or is_clear_zero(b)):
        return const(0)
    if a.kind is AbsKind.CONST and b.kind is AbsKind.CONST:
        fn = {
            Opcode.ADD: lambda x, y: x + y,
            Opcode.SUB: lambda x, y: x - y,
            Opcode.MUL: lambda x, y: x * y,
            Opcode.AND: lambda x, y: x & y,
            Opcode.XOR: lambda x, y: x ^ y,
        }[op]
        return const(fn(a.const, b.const))
    if op in (Opcode.MUL, Opcode.AND):
        if must_be_blinded(a) or must_be_blinded(b):
            other = b if must_be_blinded(a) else a
            # a clear-unknown partner might be zero, which would clear the
            # result; only a known-nonzero or blinded partner keeps it
            # definitely blinded
            if must_be_blinded(other) or (
                other.kind is AbsKind.CONST and other.const != 0
            ):
                return BLINDED_ANY
            return TOP
        if a.kind is AbsKind.TOP or b.kind is AbsKind.TOP:
            return TOP
        return CLEAR_UNKNOWN
    if must_be_blinded(a) or must_be_blinded(b):
        return BLINDED_ANY
    if a.kind is AbsKind.TOP or b.kind is AbsKind.TOP:
        return TOP
    return CLEAR_UNKNOWN


class _Analysis:
    def __init__(self, image: ProgramImage, sig: TaintSignature, cfg: MachineConfig):
        self.image = image
        self.sig = sig
        self.cfg = cfg
        self.findings: dict[tuple, Finding] = {}
        self.states: dict[int, AbsState] = {}
        self.bound_exceeded = False
        self.iterations = 0

    # -- reporting ----------------------------------------------------------

    def report(
        self,
        pc: int,
        instruction: str,
        reason: str,
        fault: FaultKind | None = None,
        definite: bool = False,
        unresolved: bool = False,
    ) -> None:
        key = (pc, reason)
        if key not in self.findings:
            self.findings[key] = Finding(pc, instruction, reason, fault, definite, unresolved)

    # -- entry state --------------------------------------------------------

    def entry_state(self) -> AbsState:
        regs = [const(0)] * REG_COUNT
        for index, tag in self.sig.registers.items():
            regs[index] = _SIG_ABS[tag]
        cells: dict[int, AbsVal] = {}
        for seg_index, seg in enumerate(self.image.segments):
            override = self.sig.segments.get(seg_index)
            for offset, word in enumerate(seg.words):
                if override is not None:
                    value = _SIG_ABS[override]
                elif word.blinded:
                    value = BLINDED_ANY
                else:
                    value = const(word.value)
                cells[seg.base + offset] = value
        return AbsState(tuple(regs), AbsMemory(cells, const(0)))

    # -- transfer -----------------------------------------------------------

    def flow(self, pc: int, state: AbsState) -> list[tuple[int, AbsState]]:
        """Successor (pc, state) pairs for one abstract step."""
        word = state.mem.read(pc)
        if word.kind is AbsKind.BOTTOM:
            return []
        if may_be_blinded(word):
            self.report(
                pc,
                "<fetch>",
                "instruction fetch may read a blinded word",
                fault=FaultKind.BLINDED_INSTRUCTION_FETCH,
                definite=must_be_blinded(word),
            )
            return [(0, state)]  # trap to the handler, nothing else changes
        if word.kind is not AbsKind.CONST:
            self.report(pc, "<fetch>", "instruction word unresolved", unresolved=True)
            return []
        try:
            d = decode(word.const)
        except DecodeError:
            self.report(
                pc,
                f".word {word.const:#x}",
                "instruction does not decode",
                fault=FaultKind.DECODE_ERROR,
                definite=True,
            )
            return []
        text = render_instruction(d)
        op = d.opcode

        if op is Opcode.HALT:
            return []
        if op in (Opcode.STORE, Opcode.LOAD):
            return self._flow_memory(pc, d, text, state)
        if op is Opcode.BZ:
            return self._flow_branch(pc, d, text, state)
        if op in (Opcode.BLND, Opcode.RBLND):
            return self._flow_tag_edit(pc, d, text, state)
        # arithmetic
        a, b = state.regs[d.inputs[0]], state.regs[d.inputs[1]]
        value = _arith_transfer(d, a, b)
        regs = list(state.regs)
        regs[d.outputs[0]] = value
        return self._next(pc, text, AbsState(tuple(regs), state.mem))

    def _next(self, pc: int, text: str, state: AbsState) -> list[tuple[int, AbsState]]:
        if pc + 1 >= self.cfg.memory_words:
            self.report(
                pc, text, "execution runs off the end of memory",
                fault=FaultKind.OUT_OF_RANGE, definite=True,
            )
            return []
        return [(pc + 1, state)]

    def _address_paths(
        self, pc: int, text: str, addr: AbsVal
    ) -> tuple[bool, bool]:
        """(may_trap, may_proceed) for a memory-address operand, with
        findings reported."""
        if must_be_blinded(addr):
            if self.cfg.mode is Mode.HARDWARE:
                self.report(
                    pc, text, "blinded value used as a memory address",
                    fault=FaultKind.BLINDED_ADDRESS, definite=True,
                )
                return True, False
            self.report(
                pc, text,
                "blinded value used as a memory address (no-op in model mode)",
            )
            return False, True  # no-op: proceeds with no effect
        if addr.kind is AbsKind.TOP:
            if self.cfg.mode is Mode.HARDWARE:
                self.report(
                    pc, text, "memory address may be blinded",
                    fault=FaultKind.BLINDED_ADDRESS,
                )
                return True, True
            self.report(pc, text, "memory address may be blinded (no-op in model mode)")
            return False, True
        return False, True

    def _flow_memory(self, pc, d, text, state) -> list[tuple[int, AbsState]]:
        addr = state.regs[d.inputs[0]]
        may_trap, may_proceed = self._address_paths(pc, text, addr)
        out: list[tuple[int, AbsState]] = []
        if may_trap:
            out.append((0, state))
        if not may_proceed:
            return out
        if must_be_blinded(addr):  # model mode: a definite no-op
            out.extend(self._next(pc, text, state))
            return out
        # The access may be a no-op when the address might still be blinded
        # (TOP in model mode); effects then join with the unchanged state.
        maybe_noop = addr.kind is AbsKind.TOP and self.cfg.mode is Mode.MODEL

        if d.opcode is Opcode.STORE:
            value = state.regs[d.inputs[1]]
            if addr.kind is AbsKind.CONST:
                if addr.const >= self.cfg.memory_words:
                    self.report(
                        pc, text, "store address out of range",
                        fault=FaultKind.OUT_OF_RANGE, definite=True,
                    )
                    return out
                if self.cfg.is_unblindable(addr.const):
                    if must_be_blinded(value):
                        self.report(
                            pc, text, "blinded store into an unblindable range",
                            fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
                            definite=True,
                        )
                        return out
                    if value.kind is AbsKind.TOP:
                        self.report(
                            pc, text,
                            "possibly blinded store into an unblindable range",
                            fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
                        )
                mem = state.mem.write(addr.const, value)
            else:
                self.report(pc, text, "store address unresolved", unresolved=True)
                if self.cfg.unblindable_ranges and may_be_blinded(value):
                    self.report(
                        pc, text,
                        "possibly blinded store may hit an unblindable range",
                        fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
                    )
                mem = state.mem.weak_write_everywhere(value)
            out.extend(self._next(pc, text, AbsState(state.regs, mem)))
            return out

        # LOAD
        regs = list(state.regs)
        dst = d.outputs[0]
        if addr.kind is AbsKind.CONST:
            if addr.const >= self.cfg.memory_words:
                self.report(
                    pc, text, "load address out of range",
                    fault=FaultKind.OUT_OF_RANGE, definite=True,
                )
                return out
            regs[dst] = state.mem.read(addr.const)
        else:
            self.report(pc, text, "load address unresolved", unresolved=True)
            loaded = state.mem.join_all()
            regs[dst] = join(loaded, regs[dst]) if maybe_noop else loaded
        out.extend(self._next(pc, text, AbsState(tuple(regs), state.mem)))
        return out

    def _flow_branch(self, pc, d, text, state) -> list[tuple[int, AbsState]]:
        cond = state.regs[d.inputs[0]]
        target = state.regs[d.inputs[1]]
        out: list[tuple[int, AbsState]] = []
        if must_be_blinded(cond) or must_be_blinded(target):
            self.report(
                pc, text, "blinded value controls a branch",
                fault=FaultKind.BLINDED_BRANCH, definite=True,
            )
            return [(0, state)]
        if cond.kind is AbsKind.TOP or target.kind is AbsKind.TOP:
            self.report(
                pc, text, "branch condition or target may be blinded",
                fault=FaultKind.BLINDED_BRANCH,
            )
            out.append((0, state))

        may_take = not (cond.kind is AbsKind.CONST and cond.const != 0)
        may_fall = not (cond.kind is AbsKind.CONST and cond.const == 0)
        if may_take:
            if target.kind is AbsKind.CONST:
                if target.const >= self.cfg.memory_words:
                    self.report(
                        pc, text, "branch target out of range",
                        fault=FaultKind.OUT_OF_RANGE,
                        definite=not may_fall,
                    )
                else:
                    out.append((target.const, state))
            else:
                self.report(pc, text, "branch target unresolved", unresolved=True)
        if may_fall:
            out.extend(self._next(pc, text, state))
        return out

    def _flow_tag_edit(self, pc, d, text, state) -> list[tuple[int, AbsState]]:
        addr = state.regs[d.inputs[0]]
        may_trap, may_proceed = self._address_paths(pc, text, addr)
        out: list[tuple[int, AbsState]] = []
        if may_trap:
            out.append((0, state))
        if not may_proceed:
            return out
        if must_be_blinded(addr):  # model mode: a definite no-op
            out.extend(self._next(pc, text, state))
            return out
        maybe_noop = addr.kind is AbsKind.TOP and self.cfg.mode is Mode.MODEL

        if d.opcode is Opcode.RBLND and not self.cfg.allow_raw_unblind:
            self.report(
                pc, text, "raw unblinding is disabled and faults",
                fault=FaultKind.DECODE_ERROR,
                definite=addr.kind in (AbsKind.CONST, AbsKind.CLEAR),
            )
            if maybe_noop:
                out.extend(self._next(pc, text, state))
            return out

        blind = d.opcode is Opcode.BLND
        if addr.kind is AbsKind.CONST:
            if addr.const >= self.cfg.memory_words:
                self.report(
                    pc, text, "tag-edit address out of range",
                    fault=FaultKind.OUT_OF_RANGE, definite=True,
                )
                return out
            old = state.mem.read(addr.const)
            new = BLINDED_ANY if blind else (
                old if old.kind in (AbsKind.CONST, AbsKind.CLEAR) else CLEAR_UNKNOWN
            )
            mem = state.mem.write(addr.const, new)
        else:
            self.report(pc, text, "tag-edit address unresolved", unresolved=True)
            edit = BLINDED_ANY if blind else CLEAR_UNKNOWN
            mem = state.mem.weak_write_everywhere(edit)
        out.extend(self._next(pc, text, AbsState(state.regs, mem)))
        return out

    # -- fixpoint -----------------------------------------------------------

    def run(self, max_iterations: int | None = None) -> None:
        entry = self.image.entry_pc
        words = max(self.image.word_count(), 16)
        budget = words * 4 * 4 if max_iterations is None else max_iterations
        self.states[entry] = self.entry_state()
        worklist = [entry]
        while worklist:
            if self.iterations >= budget:
                self.bound_exceeded = True
                self.report(
                    None if not worklist else worklist[0],
                    "<analysis>",
                    f"fixpoint iteration bound ({budget}) exceeded",
                    unresolved=True,
                )
                return
            self.iterations += 1
            pc = worklist.pop()
            state = self.states[pc]
            for succ_pc, succ_state in self.flow(pc, state):
                known = self.states.get(succ_pc)
                merged = succ_state if known is None else known.merge(succ_state)
                if known is None or merged != known:
                    self.states[succ_pc] = merged
                    if succ_pc not in worklist:
                        worklist.append(succ_pc)


def _check_segments(image: ProgramImage, sig: TaintSignature) -> None:
    for index in sig.segments:
        if not 0 <= index < len(image.segments):
            raise ValueError(
                f"signature names segment s{index}, but the image has "
                f"{len(image.segments)} segment(s)"
            )


def signature_state(
    image: ProgramImage,
    sig: TaintSignature,
    cfg: MachineConfig,
    rng: random.Random,
    randomize_clear: bool = False,
) -> SystemState:
    """A concrete state consistent with the signature.

    Signature-clear registers get value 0 by default or a random clear
    value with ``randomize_clear`` (any clear value is consistent);
    blinded ones always get fresh random payloads.  Raises ValueError when
    the signature names a segment the image lacks.
    """
    _check_segments(image, sig)

    def clear_value() -> int:
        return rng.getrandbits(64) if randomize_clear else 0

    s = boot_image(image, cfg)
    memory = s.memory
    for seg_index, seg in enumerate(image.segments):
        tag = sig.segments.get(seg_index)
        if tag is None:
            continue
        for offset in range(len(seg.words)):
            addr = seg.base + offset
            if tag is SigTag.CLEAR:
                memory = memory.retag(addr, False)
            else:
                memory = memory.store(addr, TaggedWord(rng.getrandbits(64), True))
    registers = s.registers
    for index, tag in sig.registers.items():
        if tag is SigTag.CLEAR:
            registers = registers.write(index, TaggedWord(clear_value(), False))
        else:
            registers = registers.write(index, TaggedWord(rng.getrandbits(64), True))
    return replace(s, memory=memory, registers=registers)


def _replay_candidate(
    image: ProgramImage,
    sig: TaintSignature,
    cfg: MachineConfig,
    finding: Finding,
    seed: int,
) -> Witness | None:
    rng = random.Random(seed)
    for _ in range(4):  # a few payload draws
        try:
            initial = signature_state(image, sig, cfg, rng)
        except LoadError:
            return None  # image does not fit this machine; stay MAY_FAULT
        result = run(initial, cfg, 10_000)
        for event in result.trace:
            if isinstance(event, Fault) and event.kind is finding.fault:
                return Witness(initial, event.kind, result.steps, finding.pc)
    return None


def analyze(
    image: ProgramImage,
    sig: TaintSignature,
    cfg: MachineConfig,
    seed: int = 0,
    max_iterations: int | None = None,
) -> ComplianceReport:
    """Abstractly interpret the program under the signature.

    COMPLIANT: no reachable program point can fault under the policy.
    MAY_FAULT: something was unresolvable or only possibly faulting.
    DEFINITELY_FAULTS: a finding was confirmed by concretely replaying a
    signature-consistent input to the fault; the witness is attached.
    Raises ValueError when the signature names a segment the image lacks.
    """
    _check_segments(image, sig)
    analysis = _Analysis(image, sig, cfg)
    analysis.run(max_iterations)
    findings = tuple(analysis.findings.values())

    witness = None
    for finding in findings:
        if finding.definite and finding.fault is not None:
            witness = _replay_candidate(image, sig, cfg, finding, seed)
            if witness is not None:
                break

    if witness is not None:
        verdict = Verdict.DEFINITELY_FAULTS
    elif (
        any(f.fault is not None or f.unresolved for f in findings)
        or analysis.bound_exceeded
    ):
        verdict = Verdict.MAY_FAULT
    else:
        # informational findings only (e.g. model-mode no-ops): no fault
        # can occur on any tracked path
        verdict = Verdict.COMPLIANT
    return ComplianceReport(
        verdict=verdict,
        findings=findings,
        witness=witness,
        iterations=analysis.iterations,
        bound_exceeded=analysis.bound_exceeded,
    )


# ---------------------------------------------------------------------------
# Equivalent-pair generation
# ---------------------------------------------------------------------------


def rerandomize_blinded(s: SystemState, rng: random.Random) -> SystemState:
    """Fresh payload for every blinded word; equivalent by construction.

    Payloads are biased toward small values (including zero) so that
    payload-sensitive bugs -- branching on a secret, absorbing on zero --
    actually get exercised.
    """
    def payload() -> int:
        return rng.getrandbits(64) if rng.random() < 0.7 else rng.randrange(4)

    def redraw(words: Sequence[TaggedWord]) -> tuple[TaggedWord, ...]:
        return tuple(
            TaggedWord(payload(), True) if w.blinded else w for w in words
        )

    return replace(
        s,
        registers=RegisterFile(redraw(s.registers.regs)),
        memory=MemoryImage(redraw(s.memory.words)),
    )


def generate_equivalent_pair(
    seed: int,
    memory_words: int = 64,
    cache_lines: int = 8,
    blind_p: float = 0.3,
) -> tuple[SystemState, SystemState]:
    """A random state and an equivalent twin differing only in blinded
    payloads.  Memory is biased toward valid instruction words and small
    values so that runs do something interesting before dying."""
    rng = random.Random(seed)

    def word() -> TaggedWord:
        if rng.random() < 0.65:
            return TaggedWord(encode(random_instruction(rng)), rng.random() < 0.15)
        value = rng.randrange(memory_words) if rng.random() < 0.5 else rng.getrandbits(64)
        return TaggedWord(value, rng.random() < blind_p)

    memory = MemoryImage(tuple(word() for _ in range(memory_words)))
    regs = RegisterFile(
        tuple(
            TaggedWord(
                rng.randrange(memory_words) if rng.random() < 0.5 else rng.getrandbits(64),
                rng.random() < blind_p,
            )
            for _ in range(REG_COUNT)
        )
    )
    cache = CacheAssignments(
        tuple(rng.randrange(memory_words) for _ in range(cache_lines)),
        tuple(rng.random() < 0.5 for _ in range(cache_lines)),
    )
    s1 = SystemState(
        pc=rng.randrange(memory_words),
        registers=regs,
        memory=memory,
        cache=cache,
    )
    s2 = rerandomize_blinded(s1, rng)
    return s1, s2


def pair_for_program(
    image: ProgramImage,
    cfg: MachineConfig,
    rng: random.Random,
    blinded_regs: tuple[int, ...] = (),
) -> tuple[SystemState, SystemState]:
    """Equivalent pair over a loaded program: image-tagged words (and any
    requested registers) get independent random payloads on each side."""
    s = boot_image(image, cfg)
    registers = s.registers
    for index in blinded_regs:
        registers = registers.write(index, TaggedWord(0, True))
    s = replace(s, registers=registers)
    s1 = rerandomize_blinded(s, rng)
    s2 = rerandomize_blinded(s1, rng)
    return s1, s2


# ---------------------------------------------------------------------------
# Lockstep non-interference check
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Counterexample:
    trial: int
    step: int
    reason: str
    initial_pair: tuple[SystemState, SystemState]
    delta_words: int  # blinded payload positions that still differ


@dataclass(frozen=True, slots=True)
class NoninterferenceResult:
    passed: bool
    trials: int
    counterexample: Counterexample | None = None


def _unwinding_holds(m1: ListMachine, m2: ListMachine, e1: Effect, e2: Effect) -> bool:
    """``state_equiv`` of the post-states, given equivalent pre-states.

    Only what a step wrote can have changed, so beyond pc, status and
    fault it suffices to compare the cache lines, registers and memory
    words that either side wrote (Goguen-Meseguer unwinding on the
    self-composed pair).
    """
    if (m1.pc, m1.status, m1.fault) != (m2.pc, m2.status, m2.fault):
        return False
    for e in (e1, e2):
        for line, _ in e.lines:
            if m1.addresses[line] != m2.addresses[line] or m1.valid[line] != m2.valid[line]:
                return False
        for i, _ in e.registers:
            if not value_equiv(m1.registers[i], m2.registers[i]):
                return False
        for a, _ in e.memory:
            if not value_equiv(m1.memory[a], m2.memory[a]):
                return False
    return True


def _lockstep_divergence(
    s1: SystemState,
    s2: SystemState,
    cfg: MachineConfig,
    steps: int,
    semantics,
) -> tuple[int, str] | None:
    """(step, reason) of the first divergence, or None.

    Both sides step in place; after each step the events and
    :func:`_unwinding_holds` stand in for a full ``state_equiv``, which
    runs once at the end as a cross-check.
    """
    if not state_equiv(s1, s2):
        return 0, "initial states not equivalent"
    m1, m2 = ListMachine(s1), ListMachine(s2)
    for k in range(steps):
        if m1.status is not Status.RUNNING or m2.status is not Status.RUNNING:
            break  # both stopped (equivalence already guarantees same way)
        e1 = m1.step(cfg, k, semantics)
        e2 = m2.step(cfg, k, semantics)
        if e1.events != e2.events:
            return k, f"trace events diverge: {e1.events!r} != {e2.events!r}"
        if not _unwinding_holds(m1, m2, e1, e2):
            return k, "successor states not equivalent"
    if not state_equiv(m1.state(), m2.state()):
        raise RuntimeError("unwinding check passed a pair that state_equiv rejects")
    return None


def _payload_delta(s1: SystemState, s2: SystemState) -> list[tuple[str, int]]:
    delta = []
    for i, (a, b) in enumerate(zip(s1.registers, s2.registers)):
        if a.blinded and b.blinded and a.value != b.value:
            delta.append(("r", i))
    for i, (a, b) in enumerate(zip(s1.memory, s2.memory)):
        if a.blinded and b.blinded and a.value != b.value:
            delta.append(("m", i))
    return delta


def _with_payload_from(s2: SystemState, s1: SystemState, kind: str, index: int) -> SystemState:
    if kind == "r":
        return replace(s2, registers=s2.registers.write(index, s1.registers[index]))
    return replace(s2, memory=s2.memory.store(index, s1.memory[index]))


def shrink_pair(
    s1: SystemState,
    s2: SystemState,
    cfg: MachineConfig,
    steps: int,
    semantics,
) -> tuple[SystemState, SystemState]:
    """Greedy minimization: revert blinded payload differences one at a
    time while the pair still diverges."""
    current = s2
    for kind, index in _payload_delta(s1, s2):
        candidate = _with_payload_from(current, s1, kind, index)
        if _lockstep_divergence(s1, candidate, cfg, steps, semantics) is not None:
            current = candidate
    return s1, current


def check_noninterference(
    program: ProgramImage | None,
    trials: int,
    steps: int,
    cfg: MachineConfig,
    seed: int = 0,
    semantics=instruction_semantics,
    blinded_regs: tuple[int, ...] = (),
) -> NoninterferenceResult:
    """Run ``trials`` equivalent pairs in lockstep for up to ``steps``
    steps each, asserting state equivalence and trace equality after
    every step.

    Both sides commit in place.  Because they were equivalent before a
    step, comparing pc, status, fault and the cache lines, registers and
    memory words either side wrote is exactly ``state_equiv`` of the
    successors (the Goguen-Meseguer unwinding condition on the
    self-composed pair).  A full ``state_equiv`` at the end of each
    trial cross-checks this and raises RuntimeError if it ever disagrees.

    With ``program`` given, pairs are built over the loaded image
    (blinded image words and ``blinded_regs`` get fresh payloads);
    without it, fully random machines are generated.  A failure is
    shrunk to a minimal payload delta before reporting.
    """
    if trials <= 0 or steps <= 0:
        raise ValueError("trials and steps must be positive")
    rng = random.Random(seed)
    for trial in range(trials):
        if program is not None:
            s1, s2 = pair_for_program(program, cfg, rng, blinded_regs)
        else:
            s1, s2 = generate_equivalent_pair(
                rng.getrandbits(48),
                memory_words=cfg.memory_words,
                cache_lines=cfg.cache_lines,
            )
        divergence = _lockstep_divergence(s1, s2, cfg, steps, semantics)
        if divergence is not None:
            at_step, reason = divergence
            m1, m2 = shrink_pair(s1, s2, cfg, steps, semantics)
            return NoninterferenceResult(
                passed=False,
                trials=trial + 1,
                counterexample=Counterexample(
                    trial=trial,
                    step=at_step,
                    reason=reason,
                    initial_pair=(m1, m2),
                    delta_words=len(_payload_delta(m1, m2)),
                ),
            )
    return NoninterferenceResult(passed=True, trials=trials)
