"""Static taint compliance analysis and the randomized equivalence harness.

The static side answers "can this program fault under the tag policy,
given which inputs are blinded?" by abstract interpretation over the
domain

    CONST(v) < CLEAR < TOP,   BLINDED < TOP

per register and per memory word.  A known clear constant is held as its
``int`` and every other class as its ``SigTag`` member, the tag a
signature names it by.  Constant tracking is load-bearing: it
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
fail fast.  Drawing is a large share of a short trial, so a trial
redraws only blinded words: a program is booted and its blinded
positions found once per check, a redraw writes only those positions
and shares every clear word, and a random state is drawn in one loop
that records its blinded positions for its twin.  Instruction words
are drawn packed, not through ``DecodedInstruction`` and ``encode``
(3.8 us a word).  Every drawn word is built with ``model._word``: a
tagged instruction word costs about 1.0 us and a 64-bit data word
about 390 ns, against 1.4 us and 740 ns through the ``TaggedWord``
constructor (CPython 3.11.7, 2-core x86).  Bounded integers are drawn
with ``isa._below``'s rejection loop, which is ``randrange``'s own on
``getrandbits`` at half its cost, and one decode slot serves every
trial of a check.  The end-of-trial cross-check reads the two
machines' lists rather than rebuilding two ``SystemState`` values:
about 3 us against 8 us at 64 words.  A state's twin shares its clear
words, so equivalence tests a shared word by identity first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping, Sequence

from .assembler import ProgramImage, render_instruction
from .isa import (
    ALU,
    SELF_ZEROING,
    ZERO_ABSORBING,
    DecodeError,
    DecodedInstruction,
    Mode,
    Opcode,
    _below,
    _instruction_word,
    decode,
    instruction_semantics,
)
from .machine import (
    Fault,
    ListMachine,
    LoadError,
    MachineConfig,
    boot_image,
    check_state_fits,
    run,
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
    list_equiv,
    state_equiv,
)

# ---------------------------------------------------------------------------
# Abstract domain
# ---------------------------------------------------------------------------


class SigTag(Enum):
    CLEAR = "C"
    BLINDED = "B"
    TOP = "T"


# An abstract word is a known clear constant, held as its ``int``, or the
# tag of any other class.  A tag is a plain ``Enum`` member, so it never
# equals a constant; a constant is tested with ``type(v) is int``.
AbsWord = int | SigTag
CLEAR, BLINDED, TOP = SigTag.CLEAR, SigTag.BLINDED, SigTag.TOP


def join(a: AbsWord, b: AbsWord) -> AbsWord:
    if a == b:
        return a
    if (type(a) is int or a is CLEAR) and (type(b) is int or b is CLEAR):
        return CLEAR
    return TOP


# ---------------------------------------------------------------------------
# Abstract memory: known cells plus a summary for every other address
# ---------------------------------------------------------------------------


class AbsMemory:
    __slots__ = ("cells", "rest")

    def __init__(self, cells: dict[int, AbsWord], rest: AbsWord):
        self.cells = cells
        self.rest = rest

    def read(self, address: int) -> AbsWord:
        return self.cells.get(address, self.rest)

    def write(self, address: int, value: AbsWord) -> AbsMemory:
        cells = dict(self.cells)
        cells[address] = value
        return AbsMemory(cells, self.rest)

    def weak_write_everywhere(self, value: AbsWord) -> AbsMemory:
        cells = {a: join(v, value) for a, v in self.cells.items()}
        return AbsMemory(cells, join(self.rest, value))

    def join_all(self) -> AbsWord:
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


@dataclass(frozen=True)
class AbsState:
    regs: tuple[AbsWord, ...]
    mem: AbsMemory

    def merge(self, other: AbsState) -> AbsState:
        return AbsState(
            tuple(join(a, b) for a, b in zip(self.regs, other.regs)),
            self.mem.merge(other.mem),
        )


# ---------------------------------------------------------------------------
# Signatures, findings, reports
# ---------------------------------------------------------------------------


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
            kind, digits = name[:1], name[1:]
            if kind not in ("r", "s") or not digits.isdecimal():
                raise ValueError(f"bad signature entry {part!r}")
            if kind == "r":
                table, limit, what = registers, REG_COUNT, "register"
            else:  # an image counts its segments in a u32
                table, limit, what = segments, 1 << 32, "segment"
            # Leading zeros are allowed (r01 is r1); int() never sees more
            # digits than a u32 has.
            digits = digits.lstrip("0") or "0"
            if len(digits) > 10 or int(digits) >= limit:
                raise ValueError(f"{what} out of range in {part!r}")
            index = int(digits)
            if index in table:
                raise ValueError(f"signature names {kind}{index} twice")
            table[index] = tag
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


# The word an addressed opcode names, as it appears in finding reasons.
_ADDRESS_KIND = {
    Opcode.STORE: "store",
    Opcode.LOAD: "load",
    Opcode.BLND: "tag-edit",
    Opcode.RBLND: "tag-edit",
}


def _arith_transfer(d: DecodedInstruction, a: AbsWord, b: AbsWord) -> AbsWord:
    op = d.opcode
    if op in SELF_ZEROING and d.inputs[0] == d.inputs[1]:
        return 0
    if op in ZERO_ABSORBING and (a == 0 or b == 0):
        return 0
    if type(a) is int and type(b) is int:
        return ALU[op](a, b)
    if a is BLINDED or b is BLINDED:
        # a CLEAR or TOP partner might be a clear zero, which would clear the
        # product; a nonzero constant or blinded partner keeps it blinded
        other = b if a is BLINDED else a
        if op in ZERO_ABSORBING and (other is CLEAR or other is TOP):
            return TOP
        return BLINDED
    if a is TOP or b is TOP:
        return TOP
    return CLEAR


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
        regs: list[AbsWord] = [0] * REG_COUNT
        for index, tag in self.sig.registers.items():
            regs[index] = tag
        cells: dict[int, AbsWord] = {}
        for seg_index, seg in enumerate(self.image.segments):
            override = self.sig.segments.get(seg_index)
            for offset, word in enumerate(seg.words):
                if override is not None:
                    value = override
                elif word.blinded:
                    value = BLINDED
                else:
                    value = word.value
                cells[seg.base + offset] = value
        return AbsState(tuple(regs), AbsMemory(cells, 0))

    # -- transfer -----------------------------------------------------------

    def flow(self, pc: int, state: AbsState) -> list[tuple[int, AbsState]]:
        """Successor (pc, state) pairs for one abstract step."""
        word = state.mem.read(pc)
        if word is BLINDED or word is TOP:
            self.report(
                pc,
                "<fetch>",
                "instruction fetch may read a blinded word",
                fault=FaultKind.BLINDED_INSTRUCTION_FETCH,
                definite=word is BLINDED,
            )
            return [(0, state)]  # trap to the handler, nothing else changes
        if type(word) is not int:
            self.report(pc, "<fetch>", "instruction word unresolved", unresolved=True)
            return []
        try:
            d = decode(word)
        except DecodeError:
            self.report(
                pc,
                f".word {word:#x}",
                "instruction does not decode",
                fault=FaultKind.DECODE_ERROR,
                definite=True,
            )
            return []
        text = render_instruction(d)
        op = d.opcode

        if op is Opcode.HALT:
            return []
        if op in _ADDRESS_KIND:
            return self._flow_addressed(pc, d, text, state)
        if op is Opcode.BZ:
            return self._flow_branch(pc, d, text, state)
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

    def _flow_addressed(self, pc, d, text, state) -> list[tuple[int, AbsState]]:
        """STORE, LOAD, BLND and RBLND under the address rule: a secret
        never chooses an address, and the address must be in range."""
        addr = state.regs[d.inputs[0]]
        hardware = self.cfg.mode is Mode.HARDWARE
        if addr is BLINDED:
            if hardware:
                self.report(
                    pc, text, "blinded value used as a memory address",
                    fault=FaultKind.BLINDED_ADDRESS, definite=True,
                )
                return [(0, state)]
            self.report(
                pc, text,
                "blinded value used as a memory address (no-op in model mode)",
            )
            return self._next(pc, text, state)
        out: list[tuple[int, AbsState]] = []
        # A TOP address may be blinded: a possible trap in hardware mode, a
        # possible no-op in model mode, whose unchanged state is one more
        # successor.
        maybe_noop = False
        if addr is TOP:
            if hardware:
                self.report(
                    pc, text, "memory address may be blinded",
                    fault=FaultKind.BLINDED_ADDRESS,
                )
                out.append((0, state))
            else:
                self.report(pc, text, "memory address may be blinded (no-op in model mode)")
                maybe_noop = True

        op = d.opcode
        kind = _ADDRESS_KIND[op]
        known = type(addr) is int
        value = state.regs[d.inputs[1]] if op is Opcode.STORE else None
        if known and addr >= self.cfg.memory_words:
            self.report(
                pc, text, f"{kind} address out of range",
                fault=FaultKind.OUT_OF_RANGE, definite=True,
            )
        elif op is Opcode.RBLND and not self.cfg.allow_raw_unblind:
            self.report(
                pc, text, "raw unblinding is disabled and faults",
                fault=FaultKind.DECODE_ERROR, definite=addr is not TOP,
            )
        elif (
            value is BLINDED and known and self.cfg.is_unblindable(addr)
        ):
            self.report(
                pc, text, "blinded store into an unblindable range",
                fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE, definite=True,
            )
        else:
            if not known:
                self.report(pc, text, f"{kind} address unresolved", unresolved=True)
            if value is BLINDED or value is TOP:
                if known and self.cfg.is_unblindable(addr):
                    self.report(
                        pc, text, "possibly blinded store into an unblindable range",
                        fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
                    )
                elif not known and self.cfg.unblindable_ranges:
                    self.report(
                        pc, text, "possibly blinded store may hit an unblindable range",
                        fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
                    )
            regs, mem = state.regs, state.mem
            if op is Opcode.LOAD:
                dst = d.outputs[0]
                loaded = mem.read(addr) if known else mem.join_all()
                regs = regs[:dst] + (loaded,) + regs[dst + 1 :]
            else:
                if op is Opcode.BLND:
                    value = BLINDED
                elif op is Opcode.RBLND:
                    # raw unblinding keeps a known constant and clears any other
                    old = mem.read(addr) if known else CLEAR
                    value = old if type(old) is int else CLEAR
                mem = mem.write(addr, value) if known else mem.weak_write_everywhere(value)
            out.extend(self._next(pc, text, AbsState(regs, mem)))
        if maybe_noop:
            out.extend(self._next(pc, text, state))
        return out

    def _flow_branch(self, pc, d, text, state) -> list[tuple[int, AbsState]]:
        cond = state.regs[d.inputs[0]]
        target = state.regs[d.inputs[1]]
        out: list[tuple[int, AbsState]] = []
        if cond is BLINDED or target is BLINDED:
            self.report(
                pc, text, "blinded value controls a branch",
                fault=FaultKind.BLINDED_BRANCH, definite=True,
            )
            return [(0, state)]
        if cond is TOP or target is TOP:
            self.report(
                pc, text, "branch condition or target may be blinded",
                fault=FaultKind.BLINDED_BRANCH,
            )
            out.append((0, state))

        may_take = type(cond) is not int or cond == 0
        may_fall = type(cond) is not int or cond != 0
        if may_take:
            if type(target) is int:
                if target >= self.cfg.memory_words:
                    self.report(
                        pc, text, "branch target out of range",
                        fault=FaultKind.OUT_OF_RANGE,
                        definite=not may_fall,
                    )
                else:
                    out.append((target, state))
            else:
                self.report(pc, text, "branch target unresolved", unresolved=True)
        if may_fall:
            out.extend(self._next(pc, text, state))
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
    value with ``randomize_clear`` (any clear value is consistent); a
    signature-clear segment keeps its payloads and drops its tags.  Every
    other named register and word gets a fresh blinded payload.  Raises
    ValueError when the signature names a segment the image lacks.
    """
    _check_segments(image, sig)
    memory = []
    for seg_index, seg in enumerate(image.segments):
        tag = sig.segments.get(seg_index)
        if tag is None:
            continue
        for addr, w in enumerate(seg.words, seg.base):
            if tag is SigTag.CLEAR:
                memory.append((addr, TaggedWord(w.value, False)))
            else:
                memory.append((addr, TaggedWord(rng.getrandbits(64), True)))
    registers = [
        (index, TaggedWord(rng.getrandbits(64) if randomize_clear else 0, False)
         if tag is SigTag.CLEAR else TaggedWord(rng.getrandbits(64), True))
        for index, tag in sig.registers.items()
    ]
    return boot_image(image, cfg).edit(registers=registers, memory=memory)


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


# The small blinded payloads a redraw picks; a TaggedWord is immutable,
# so every redraw shares them.
_SMALL_BLINDED = tuple(TaggedWord(v, True) for v in range(4))


def rerandomize_blinded(s: SystemState, rng: random.Random) -> SystemState:
    """Fresh payload for every blinded word; equivalent by construction.

    Payloads are biased toward small values (including zero) so that
    payload-sensitive bugs -- branching on a secret, absorbing on zero --
    actually get exercised.  Each blinded word, registers first and then
    memory, in ascending order, draws ``rng.random()``, then a 64-bit
    payload or, as ``rng.randrange(4)`` would, a value below 4; the four
    small payloads are shared words.  The blinded positions are found,
    then only they are redrawn: every clear word is shared with ``s``.
    """
    return _redraw(s, *_blinded_positions(s), rng)


def _blinded_positions(s: SystemState) -> tuple[list[int], list[int]]:
    """The indices of ``s``'s blinded registers and memory words, ascending."""
    return (
        [i for i, w in enumerate(s.registers.regs) if w.blinded],
        [i for i, w in enumerate(s.memory.words) if w.blinded],
    )


def _redraw(s: SystemState, regs_at: Sequence[int], mem_at: Sequence[int], rng) -> SystemState:
    """``s`` with fresh payloads at its blinded positions ``regs_at`` and
    ``mem_at``, drawn in that order as :func:`rerandomize_blinded` draws
    them; a component with no blinded word is shared with ``s``."""
    registers, memory = s.registers, s.memory
    if regs_at:
        registers = RegisterFile(_redrawn(registers.regs, regs_at, rng))
    if mem_at:
        memory = MemoryImage(_redrawn(memory.words, mem_at, rng))
    return SystemState(s.pc, registers, memory, s.cache, s.status, s.fault)


def _redrawn(words: tuple[TaggedWord, ...], at: Sequence[int], rng) -> tuple[TaggedWord, ...]:
    """``words`` with a fresh blinded payload at each index in ``at``."""
    rand, getrandbits = rng.random, rng.getrandbits
    out = list(words)
    for i in at:
        out[i] = (_word(getrandbits(64), True) if rand() < 0.7
                  else _SMALL_BLINDED[_below(getrandbits, 4)])
    return tuple(out)


@lru_cache(maxsize=1)
def _small_words(memory_words: int) -> tuple[tuple[TaggedWord, TaggedWord], ...]:
    """(clear, blinded) words of every value below ``memory_words``, kept
    for the latest size only."""
    return tuple((TaggedWord(v, False), TaggedWord(v, True)) for v in range(memory_words))


def generate_equivalent_pair(
    seed: int,
    memory_words: int = 64,
    cache_lines: int = 8,
) -> tuple[SystemState, SystemState]:
    """A random state and an equivalent twin differing only in blinded
    payloads.  Memory is biased toward valid instruction words and small
    values so that runs do something interesting before dying; an
    instruction word is blinded with probability 0.15, a data word 0.3.

    Memory words and then registers are drawn in one loop that records
    the blinded positions, so the twin is :func:`rerandomize_blinded` of
    the first state without a search for them.  Bounded integers are
    drawn as ``rng.randrange`` would draw them (see
    :func:`~blindsim.isa.random_instruction_word`), so a seed gives the
    same pair as it always has; small-value words are shared.  Raises
    ValueError unless ``memory_words`` and ``cache_lines`` are positive."""
    check_machine_size(memory_words, cache_lines)
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits
    small = _small_words(memory_words)
    # A word is an instruction word (memory only), a small value or a
    # 64-bit value; the last two are the data words registers draw.
    words: list[TaggedWord] = []
    blinded_at: list[int] = []
    for i in range(memory_words + REG_COUNT):
        if i < memory_words and rand() < 0.65:
            w = _word(_instruction_word(getrandbits), rand() < 0.15)
        elif rand() < 0.5:
            w = small[_below(getrandbits, memory_words)][rand() < 0.3]
        else:
            w = _word(getrandbits(64), rand() < 0.3)
        if w.blinded:
            blinded_at.append(i)
        words.append(w)
    cache = CacheAssignments(
        tuple([_below(getrandbits, memory_words) for _ in range(cache_lines)]),
        tuple([rand() < 0.5 for _ in range(cache_lines)]),
    )
    s1 = SystemState(
        pc=_below(getrandbits, memory_words),
        registers=RegisterFile(tuple(words[memory_words:])),
        memory=MemoryImage(tuple(words[:memory_words])),
        cache=cache,
    )
    regs_at = [i - memory_words for i in blinded_at if i >= memory_words]
    mem_at = [i for i in blinded_at if i < memory_words]
    return s1, _redraw(s1, regs_at, mem_at, rng)


def _booted(image: ProgramImage, cfg: MachineConfig, blinded_regs: tuple[int, ...]) -> SystemState:
    """The booted image with ``blinded_regs`` holding blinded zeros."""
    return boot_image(image, cfg).edit(
        registers=[(index, TaggedWord(0, True)) for index in blinded_regs]
    )


def pair_for_program(
    image: ProgramImage,
    cfg: MachineConfig,
    rng: random.Random,
    blinded_regs: tuple[int, ...] = (),
) -> tuple[SystemState, SystemState]:
    """Equivalent pair over a loaded program: image-tagged words (and any
    requested registers) get independent random payloads on each side."""
    booted = _booted(image, cfg, blinded_regs)
    regs_at, mem_at = _blinded_positions(booted)
    s1 = _redraw(booted, regs_at, mem_at, rng)
    return s1, _redraw(s1, regs_at, mem_at, rng)


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


def _unwinding_holds(m1: ListMachine, m2: ListMachine, out1: tuple, out2: tuple) -> bool:
    """``state_equiv`` of the post-states, given equivalent pre-states.

    ``out1`` and ``out2`` are what the two sides' :meth:`ListMachine.step`
    returned, ``(events, register_writes, memory_writes, line_writes)``;
    each step has committed exactly those writes.  Only what a step wrote
    can have changed, so beyond pc, status and fault it suffices to
    compare the cache lines, registers and memory words that either side
    wrote (Goguen-Meseguer unwinding on the self-composed pair).  Words
    are compared as ``value_equiv`` does, inline, and a word shared by
    both sides is equivalent to itself.
    """
    if m1.pc != m2.pc or m1.status is not m2.status or m1.fault is not m2.fault:
        return False
    r1, r2 = m1.registers, m2.registers
    for _, registers, memory, lines in (out1, out2):
        if lines:
            for line, _ in lines:
                if m1.addresses[line] != m2.addresses[line] or m1.valid[line] != m2.valid[line]:
                    return False
        for i, _ in registers:
            a, b = r1[i], r2[i]
            if a is b:
                continue
            if not (b.blinded if a.blinded else not b.blinded and a.value == b.value):
                return False
        if memory:
            w1, w2 = m1.memory, m2.memory
            for i, _ in memory:
                a, b = w1[i], w2[i]
                if a is b:
                    continue
                if not (b.blinded if a.blinded else not b.blinded and a.value == b.value):
                    return False
    return True


def _machines_equiv(m1: ListMachine, m2: ListMachine) -> bool:
    """``state_equiv`` of the two machines' states, read from their lists."""
    return (
        m1.pc == m2.pc
        and m1.status is m2.status
        and m1.fault is m2.fault
        and m1.addresses == m2.addresses
        and m1.valid == m2.valid
        and list_equiv(m1.registers, m2.registers)
        and list_equiv(m1.memory, m2.memory)
    )


_RUNNING = Status.RUNNING  # bound once: the pair loop reads it twice a pair-step


def _lockstep_divergence(
    s1: SystemState,
    s2: SystemState,
    cfg: MachineConfig,
    steps: int,
    semantics,
    decoded: dict,
) -> tuple[int, str] | None:
    """(step, reason) of the first divergence, or None.

    Both sides step in place, and each step returns its events and the
    writes it committed.  After each step the two event tuples are
    compared, and :func:`_unwinding_holds` over both steps' writes stands
    in for a full ``state_equiv``, which runs once at the end as a
    cross-check.  ``decoded`` is the decode slot both sides use (see
    :class:`~blindsim.machine.ListMachine`).
    """
    if not state_equiv(s1, s2):
        return 0, "initial states not equivalent"
    m1, m2 = ListMachine(s1), ListMachine(s2)
    # Equivalent states fetch the same clear word, so one decode serves
    # both sides; the slot's value check keeps a divergent fetch correct.
    m1.decoded = m2.decoded = decoded
    for k in range(steps):
        if m1.status is not _RUNNING or m2.status is not _RUNNING:
            break  # both stopped (equivalence already guarantees same way)
        out1 = m1.step(cfg, k, semantics)
        out2 = m2.step(cfg, k, semantics)
        if out1[0] != out2[0]:
            return k, f"trace events diverge: {out1[0]!r} != {out2[0]!r}"
        if not _unwinding_holds(m1, m2, out1, out2):
            return k, "successor states not equivalent"
    if not _machines_equiv(m1, m2):
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
        return s2.edit(registers=[(index, s1.registers[index])])
    return s2.edit(memory=[(index, s1.memory[index])])


def shrink_pair(
    s1: SystemState,
    s2: SystemState,
    cfg: MachineConfig,
    steps: int,
    semantics,
) -> tuple[SystemState, SystemState]:
    """Greedy minimization: revert blinded payload differences one at a
    time while the pair still diverges.  Raises ValueError unless both
    states fit ``cfg``."""
    check_state_fits(s1, cfg)
    check_state_fits(s2, cfg)
    return _shrink(s1, s2, cfg, steps, semantics, {})


def _shrink(s1, s2, cfg, steps, semantics, decoded: dict) -> tuple[SystemState, SystemState]:
    """:func:`shrink_pair`, its re-runs sharing the decode slot ``decoded``."""
    current = s2
    for kind, index in _payload_delta(s1, s2):
        candidate = _with_payload_from(current, s1, kind, index)
        if _lockstep_divergence(s1, candidate, cfg, steps, semantics, decoded) is not None:
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

    With ``program`` given, it is booted once and each trial's pair is
    drawn as :func:`pair_for_program` draws it (blinded image words and
    ``blinded_regs`` get fresh payloads); without it, fully random
    machines are generated.  A failure is shrunk to a minimal payload
    delta before reporting.

    One decode slot serves both sides and every trial of the call,
    shrinking included: a slot is used only while the fetched word
    equals the word it holds, so each address is decoded once per
    distinct word rather than once per trial.
    """
    if trials <= 0 or steps <= 0:
        raise ValueError("trials and steps must be positive")
    rng = random.Random(seed)
    if program is not None:
        booted = _booted(program, cfg, blinded_regs)
        regs_at, mem_at = _blinded_positions(booted)
    decoded: dict = {}
    for trial in range(trials):
        if program is not None:
            s1 = _redraw(booted, regs_at, mem_at, rng)
            s2 = _redraw(s1, regs_at, mem_at, rng)
        else:
            s1, s2 = generate_equivalent_pair(
                rng.getrandbits(48),
                memory_words=cfg.memory_words,
                cache_lines=cfg.cache_lines,
            )
        divergence = _lockstep_divergence(s1, s2, cfg, steps, semantics, decoded)
        if divergence is not None:
            at_step, reason = divergence
            m1, m2 = _shrink(s1, s2, cfg, steps, semantics, decoded)
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
