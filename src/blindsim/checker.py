"""Static taint compliance analysis and the randomized equivalence harness.

The static side answers "can this program fault under the tag policy,
given which inputs are blinded?" by abstract interpretation over the
domain

    CONST(v) < CLEAR < TOP,   BLINDED < TOP

per register and per memory word.  A known clear constant is held as its
``int`` and every other class as its ``SigTag`` member, the tag a
signature names it by.  Constant tracking is load-bearing: it
resolves branch targets (the ISA has no immediates, so targets come from
constant pools) and models the clear-zero absorption of MUL/AND.  An
abstract state is canonical plain data (``AbsState``): no memory cell it
lists holds the value of ``rest``, its summary of every other word, so
two states are equal exactly when they read alike at every register and
address, and the fixpoint compares them with ``==``.  The fixpoint has
a fixed budget of 16 iterations per image word, at least 256; past it
the analysis stops and reports MAY_FAULT.  The analysis is
deliberately conservative -- whenever it cannot resolve an instruction
word, address, or branch target it reports MAY_FAULT rather than
guessing.  A DEFINITELY_FAULTS verdict is only ever claimed after a
concrete replay: the reported witness is an initial state, consistent
with the signature, that demonstrably reaches the fault.  One seeded
draw, run once, confirms every definite finding: another draw differs
only in blinded payloads, so by non-interference its trace is the same.

The dynamic side draws pairs of states that agree on everything
observable and differ only in blinded payloads, runs them in lockstep,
and checks after every step that they produced identical trace events
and are still equivalent.  Equivalence is checked by unwinding: since
the pair was equivalent before the step, it suffices to compare pc,
status, fault and whatever either side wrote, as the steps returned
it; a pair of steps that write at different indices (only a broken
semantics does) compares the machines whole, and a full
``state_equiv`` of the two machines ends every trial as a cross-check.
Unwinding needs equivalent pre-states, not a re-proof of them: a pair
the harness draws is equivalent by construction, and so is each
candidate of a shrink, which copies one blinded payload across.
A trial stops when both sides halt or fault, at the step budget, or at
the blinded-fetch fixed point: a machine at pc 0 whose word 0 is
blinded traps to pc 0 on every step and writes nothing, and both
sides of an equivalent pair get there together.  A check reports
the pair-steps it ran and each trial's stop.  On failure it shrinks
the payload delta to a minimal counterexample.  The shipped semantics
never fails this check; broken variants fail fast.

Drawing is a large share of a short trial, so a trial redraws only
blinded words and a pair is drawn with no frame per word (see
``generate_equivalent_pair``).  One decode slot serves every trial of
a check.  A state's twin shares its clear words, so equivalence tests
a shared word by identity first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from typing import Mapping, NamedTuple, Sequence

from .assembler import ProgramImage, render_instruction
from .isa import (
    ALU,
    SELF_ZEROING,
    ZERO_ABSORBING,
    DecodeError,
    DecodedInstruction,
    Mode,
    Opcode,
    SHAPES,
    decode,
    encode,
    instruction_semantics,
)
from .machine import (
    Fault,
    ListMachine,
    MachineConfig,
    boot_image,
    check_image_fits,
    run,
)
from .model import (
    MASK64,
    REG_COUNT,
    FaultKind,
    MemoryImage,
    Status,
    SystemState,
    TaggedWord,
    _new_object,
    _set_blinded,
    _set_value,
    check_machine_size,
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
# Abstract state: registers, known memory cells and a summary of the rest
# ---------------------------------------------------------------------------


class AbsState(NamedTuple):
    """The registers, the memory words known apart from ``rest``, and
    ``rest``, what every other word holds.  Canonical: ``cells`` holds no
    value equal to ``rest`` and is never changed once built, so equal
    states are the states that read alike."""

    regs: tuple[AbsWord, ...]
    cells: dict[int, AbsWord]
    rest: AbsWord


def _state(regs: tuple[AbsWord, ...], cells: dict[int, AbsWord], rest: AbsWord) -> AbsState:
    """The canonical state: ``cells`` without the words that read as ``rest``."""
    return AbsState(regs, {a: v for a, v in cells.items() if v != rest}, rest)


def _merge(s: AbsState, t: AbsState) -> AbsState:
    """The join of two states, register by register and word by word."""
    cells = {
        a: join(s.cells.get(a, s.rest), t.cells.get(a, t.rest))
        for a in s.cells.keys() | t.cells.keys()
    }
    return _state(tuple(map(join, s.regs, t.regs)), cells, join(s.rest, t.rest))


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
            if kind not in ("r", "s") or not (digits.isascii() and digits.isdecimal()):
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
    pc: int
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
    pc: int


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
            kind = "definite" if f.definite else "possible"
            lines.append(f"pc={f.pc:#x} [{kind}] {f.instruction}: {f.reason}")
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
        return ALU[op](a, b) & MASK64
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
        instruction: str | DecodedInstruction,
        reason: str,
        fault: FaultKind | None = None,
        definite: bool = False,
        unresolved: bool = False,
    ) -> None:
        """Record a finding unless one with its ``(pc, reason)`` is known.
        A decoded instruction is rendered only then: most abstract steps
        report nothing new."""
        key = (pc, reason)
        if key not in self.findings:
            if type(instruction) is not str:
                instruction = render_instruction(instruction)
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
        return _state(tuple(regs), cells, 0)

    # -- transfer -----------------------------------------------------------

    def flow(self, pc: int, state: AbsState) -> list[tuple[int, AbsState]]:
        """Successor (pc, state) pairs for one abstract step."""
        word = state.cells.get(pc, state.rest)
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
        op = d.opcode

        if op is Opcode.HALT:
            return []
        if op in _ADDRESS_KIND:
            return self._flow_addressed(pc, d, state)
        if op is Opcode.BZ:
            return self._flow_branch(pc, d, state)
        # arithmetic
        regs, dst = state.regs, d.output
        value = _arith_transfer(d, regs[d.inputs[0]], regs[d.inputs[1]])
        return self._next(pc, d, state._replace(regs=regs[:dst] + (value,) + regs[dst + 1 :]))

    def _next(self, pc: int, d: DecodedInstruction, state: AbsState) -> list[tuple[int, AbsState]]:
        if pc + 1 >= self.cfg.memory_words:
            self.report(
                pc, d, "execution runs off the end of memory",
                fault=FaultKind.OUT_OF_RANGE, definite=True,
            )
            return []
        return [(pc + 1, state)]

    def _flow_addressed(self, pc, d, state) -> list[tuple[int, AbsState]]:
        """STORE, LOAD, BLND and RBLND under the address rule: a secret
        never chooses an address, and the address must be in range."""
        addr = state.regs[d.inputs[0]]
        hardware = self.cfg.mode is Mode.HARDWARE
        if addr is BLINDED:
            if hardware:
                self.report(
                    pc, d, "blinded value used as a memory address",
                    fault=FaultKind.BLINDED_ADDRESS, definite=True,
                )
                return [(0, state)]
            self.report(
                pc, d,
                "blinded value used as a memory address (no-op in model mode)",
            )
            return self._next(pc, d, state)
        out: list[tuple[int, AbsState]] = []
        # A TOP address may be blinded: a possible trap in hardware mode, a
        # possible no-op in model mode, whose unchanged state is one more
        # successor.
        maybe_noop = False
        if addr is TOP:
            if hardware:
                self.report(
                    pc, d, "memory address may be blinded",
                    fault=FaultKind.BLINDED_ADDRESS,
                )
                out.append((0, state))
            else:
                self.report(pc, d, "memory address may be blinded (no-op in model mode)")
                maybe_noop = True

        op = d.opcode
        kind = _ADDRESS_KIND[op]
        known = type(addr) is int
        value = state.regs[d.inputs[1]] if op is Opcode.STORE else None
        if known and addr >= self.cfg.memory_words:
            self.report(
                pc, d, f"{kind} address out of range",
                fault=FaultKind.OUT_OF_RANGE, definite=True,
            )
        elif op is Opcode.RBLND:
            self.report(
                pc, d, "raw unblinding is disabled and faults",
                fault=FaultKind.DECODE_ERROR, definite=addr is not TOP,
            )
        elif (
            value is BLINDED and known and self.cfg.is_unblindable(addr)
        ):
            self.report(
                pc, d, "blinded store into an unblindable range",
                fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE, definite=True,
            )
        else:
            if not known:
                self.report(pc, d, f"{kind} address unresolved", unresolved=True)
            if value is BLINDED or value is TOP:
                if known and self.cfg.is_unblindable(addr):
                    self.report(
                        pc, d, "possibly blinded store into an unblindable range",
                        fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
                    )
                elif not known and self.cfg.unblindable_ranges:
                    self.report(
                        pc, d, "possibly blinded store may hit an unblindable range",
                        fault=FaultKind.BLINDED_STORE_TO_UNBLINDABLE,
                    )
            regs, cells, rest = state
            if op is Opcode.LOAD:
                # An unresolved load may read any word.
                dst = d.output
                loaded = cells.get(addr, rest) if known else reduce(join, cells.values(), rest)
                succ = state._replace(regs=regs[:dst] + (loaded,) + regs[dst + 1 :])
            else:
                if op is Opcode.BLND:
                    value = BLINDED
                if known:
                    succ = _state(regs, {**cells, addr: value}, rest)
                else:  # a weak write: any word may now hold ``value``
                    succ = _state(regs, {a: join(v, value) for a, v in cells.items()}, join(rest, value))
            out.extend(self._next(pc, d, succ))
        if maybe_noop:
            out.extend(self._next(pc, d, state))
        return out

    def _flow_branch(self, pc, d, state) -> list[tuple[int, AbsState]]:
        cond = state.regs[d.inputs[0]]
        target = state.regs[d.inputs[1]]
        out: list[tuple[int, AbsState]] = []
        if cond is BLINDED or target is BLINDED:
            self.report(
                pc, d, "blinded value controls a branch",
                fault=FaultKind.BLINDED_BRANCH, definite=True,
            )
            return [(0, state)]
        if cond is TOP or target is TOP:
            self.report(
                pc, d, "branch condition or target may be blinded",
                fault=FaultKind.BLINDED_BRANCH,
            )
            out.append((0, state))

        may_take = type(cond) is not int or cond == 0
        may_fall = type(cond) is not int or cond != 0
        if may_take:
            if type(target) is int:
                if target >= self.cfg.memory_words:
                    self.report(
                        pc, d, "branch target out of range",
                        fault=FaultKind.OUT_OF_RANGE,
                        definite=not may_fall,
                    )
                else:
                    out.append((target, state))
            else:
                self.report(pc, d, "branch target unresolved", unresolved=True)
        if may_fall:
            out.extend(self._next(pc, d, state))
        return out

    # -- fixpoint -----------------------------------------------------------

    def run(self) -> None:
        entry = self.image.entry_pc
        budget = max(self.image.word_count(), 16) * 16
        self.states[entry] = self.entry_state()
        worklist = [entry]
        while worklist:
            if self.iterations >= budget:
                self.bound_exceeded = True
                self.report(
                    worklist[0],
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
                merged = succ_state if known is None else _merge(known, succ_state)
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
) -> SystemState:
    """A concrete state consistent with the signature.

    Signature-clear registers keep their boot value, a clear 0 (any clear
    value is consistent); a signature-clear segment keeps its payloads and
    drops its tags.  Every other named register and word gets a fresh
    blinded payload.  Raises ValueError when the signature names a segment
    the image lacks.
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
        (index, TaggedWord(rng.getrandbits(64), True))
        for index, tag in sig.registers.items()
        if tag is not SigTag.CLEAR
    ]
    return boot_image(image, cfg).edit(registers=registers, memory=memory)


def analyze(
    image: ProgramImage,
    sig: TaintSignature,
    cfg: MachineConfig,
    seed: int = 0,
) -> ComplianceReport:
    """Abstractly interpret the program under the signature.

    COMPLIANT: no reachable program point can fault under the policy.
    MAY_FAULT: something was unresolvable or only possibly faulting.
    DEFINITELY_FAULTS: a finding was confirmed by concretely replaying a
    signature-consistent input to the fault; the witness is attached.  It
    is the first definite finding whose fault the one seeded run raises.
    Raises :class:`~blindsim.machine.LoadError` when the image does not
    fit ``cfg``'s memory, as loading it would, and ValueError when the
    signature names a segment the image lacks.
    """
    check_image_fits(image, cfg.memory_words)
    _check_segments(image, sig)
    analysis = _Analysis(image, sig, cfg)
    analysis.run()
    findings = tuple(analysis.findings.values())

    # Plain loops: before Python 3.12 a comprehension is a call of its own.
    definite = []
    for finding in findings:
        if finding.definite and finding.fault is not None:
            definite.append(finding)
    witness = None
    if definite:
        initial = signature_state(image, sig, cfg, random.Random(seed))
        result = run(initial, cfg, 10_000)
        raised = set()
        for event in result.trace:
            if isinstance(event, Fault):
                raised.add(event.kind)
        for finding in definite:
            if finding.fault in raised:
                witness = Witness(initial, finding.fault, result.steps, finding.pc)
                break

    if witness is not None:
        verdict = Verdict.DEFINITELY_FAULTS
    elif any(f.fault is not None or f.unresolved for f in findings):
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


def _blinded_positions(s: SystemState) -> tuple[list[int], list[int]]:
    """The indices of ``s``'s blinded registers and memory words, ascending."""
    return (
        [i for i, w in enumerate(s.registers) if w.blinded],
        [i for i, w in enumerate(s.memory.words) if w.blinded],
    )


def _redraw(s: SystemState, regs_at: Sequence[int], mem_at: Sequence[int], rng) -> SystemState:
    """``s`` with a fresh payload at each of its blinded positions
    ``regs_at`` and ``mem_at`` (see :func:`_blinded_positions`);
    equivalent to ``s`` by construction.

    Payloads are biased toward small values (including zero) so that
    payload-sensitive bugs -- branching on a secret, absorbing on zero --
    actually get exercised.  Each blinded word, registers first and then
    memory, in ascending order, draws ``rng.random()``, then a 64-bit
    payload or, as ``rng.randrange(4)`` would, a value below 4; the four
    small payloads are shared words.  Every clear word is shared with
    ``s``, and so is a component with no blinded word."""
    registers, memory = s.registers, s.memory
    if regs_at:
        registers = _redrawn(registers, regs_at, rng)
    if mem_at:
        memory = MemoryImage(_redrawn(memory.words, mem_at, rng))
    return SystemState(s.pc, registers, memory, s.addresses, s.valid, s.status, s.fault)


def _redrawn(words: tuple[TaggedWord, ...], at: Sequence[int], rng) -> tuple[TaggedWord, ...]:
    """``words`` with a fresh blinded payload at each index in ``at``: a
    64-bit payload with probability 0.7, else a shared small one drawn as
    ``rng.randrange(4)`` draws it (see :func:`generate_equivalent_pair`)."""
    rand, getrandbits = rng.random, rng.getrandbits
    new, set_value, set_blinded = _new_object, _set_value, _set_blinded
    out = list(words)
    for i in at:
        if rand() < 0.7:
            w = new(TaggedWord)
            set_value(w, getrandbits(64))
            set_blinded(w, True)
        else:
            r = getrandbits(3)
            while r >= 4:
                r = getrandbits(3)
            w = _SMALL_BLINDED[r]
        out[i] = w
    return tuple(out)


@lru_cache(maxsize=1)
def _small_words(memory_words: int) -> tuple[tuple[TaggedWord, TaggedWord], ...]:
    """(clear, blinded) words of every value below ``memory_words``, kept
    for the latest size only."""
    return tuple((TaggedWord(v, False), TaggedWord(v, True)) for v in range(memory_words))


def _draw_plan(op: Opcode) -> tuple[int, tuple[int, ...]]:
    """``op``'s word with its register bytes zero, and the shifts of the
    register bytes to draw: inputs, then a register output."""
    n_inputs, writes = SHAPES[op]
    shifts = (16, 24)[:n_inputs] + ((8,) if writes else ())
    return encode(DecodedInstruction(op, (0,) * n_inputs, 0 if writes else None)), shifts


# The draw plan of each opcode, in ``Opcode`` order, and the bounds and
# bit widths of the opcode and register draws as ``randrange`` takes them.
_DRAWS = tuple(_draw_plan(op) for op in Opcode)
_N_DRAWS = len(_DRAWS)
_DRAWS_BITS = _N_DRAWS.bit_length()
_REG_BITS = REG_COUNT.bit_length()


def generate_equivalent_pair(
    seed: int,
    memory_words: int = 64,
    cache_lines: int = 8,
) -> tuple[SystemState, SystemState]:
    """A random state and an equivalent twin differing only in blinded
    payloads.  Memory is biased toward valid instruction words and small
    values so that runs do something interesting before dying; an
    instruction word is blinded with probability 0.15, a data word 0.3.

    Memory words and then registers are drawn by one loop body, which
    records each component's blinded positions as it draws them, so the
    twin is :func:`_redraw` of the first state without a search for
    them.  Every bounded integer is drawn as ``rng.randrange``
    would draw it, by CPython's rejection loop on ``getrandbits`` run
    inline, and an instruction word as the opcode, then its registers in
    operand order (inputs before a register output), from
    :data:`_DRAWS`.  Each word is built inline with
    the slot setters, its value in range by construction, and small-value
    words are shared: a pair makes the same few Python calls whatever its
    size.  Raises ValueError unless ``memory_words`` and ``cache_lines``
    are positive."""
    check_machine_size(memory_words, cache_lines)
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits
    new, set_value, set_blinded = _new_object, _set_value, _set_blinded
    small = _small_words(memory_words)
    index_bits = memory_words.bit_length()
    drawn = []
    # A memory word is an instruction word, a small value or a 64-bit
    # value; a register is one of the last two.
    for count, instructions in ((memory_words, True), (REG_COUNT, False)):
        words: list[TaggedWord] = []
        blinded_at: list[int] = []
        for i in range(count):
            if instructions and rand() < 0.65:
                r = getrandbits(_DRAWS_BITS)
                while r >= _N_DRAWS:
                    r = getrandbits(_DRAWS_BITS)
                value, shifts = _DRAWS[r]
                for shift in shifts:
                    r = getrandbits(_REG_BITS)
                    while r >= REG_COUNT:
                        r = getrandbits(_REG_BITS)
                    value |= r << shift
                blind = rand() < 0.15
            elif rand() < 0.5:
                r = getrandbits(index_bits)
                while r >= memory_words:
                    r = getrandbits(index_bits)
                blind = rand() < 0.3
                words.append(small[r][blind])
                if blind:
                    blinded_at.append(i)
                continue
            else:
                value = getrandbits(64)
                blind = rand() < 0.3
            w = new(TaggedWord)
            set_value(w, value)
            set_blinded(w, blind)
            words.append(w)
            if blind:
                blinded_at.append(i)
        drawn.append((words, blinded_at))
    (memory, mem_at), (registers, regs_at) = drawn
    addresses = []
    for _ in range(cache_lines):
        r = getrandbits(index_bits)
        while r >= memory_words:
            r = getrandbits(index_bits)
        addresses.append(r)
    valid = tuple([rand() < 0.5 for _ in range(cache_lines)])
    r = getrandbits(index_bits)
    while r >= memory_words:
        r = getrandbits(index_bits)
    s1 = SystemState(
        pc=r,
        registers=tuple(registers),
        memory=MemoryImage(tuple(memory)),
        addresses=tuple(addresses),
        valid=valid,
    )
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
    """A check's verdict, the pair-steps it stepped over all trials run,
    and one stop per trial run: ``halted``, ``faulted``, ``fixed-point``,
    ``budget`` (``steps`` ran out) or ``diverged`` (the failing trial,
    its diverging step counted)."""

    passed: bool
    trials: int
    counterexample: Counterexample | None = None
    pair_steps: int = 0
    stops: tuple[str, ...] = ()


def _unwinding_holds(m1: ListMachine, m2: ListMachine, out1: tuple, out2: tuple) -> bool:
    """``state_equiv`` of the post-states, given equivalent pre-states.

    ``out1`` and ``out2`` are what the two sides' :meth:`ListMachine.step`
    returned, ``(events, register_write, memory_write, line_write)``,
    each write an ``(index, value)`` pair or None; each step has
    committed exactly those writes.  Only what a step wrote can have
    changed (Goguen-Meseguer unwinding on the self-composed pair).  So
    when both sides wrote the same register, word and line indices, it
    suffices to compare pc, status, fault and the values the two steps
    returned, without reading the machines.  Words are compared as
    ``value_equiv`` does, inline, and a word shared by both sides is
    equivalent to itself.

    Equal events from equivalent states give equal indices under the
    shipped semantics: an index is a decoded register, or an address
    that the events show or that a clear register gives.  Only a
    semantics that picks an index by a payload writes different ones,
    and then the two machines are compared whole by ``state_equiv``.
    """
    if m1.pc != m2.pc or m1.status is not m2.status or m1.fault is not m2.fault:
        return False
    _, register, memory, line = out1
    _, register2, memory2, line2 = out2
    # With a None among them, ``x is y`` holds only when both are None.
    if not (
        (register is register2 if register is None or register2 is None
         else register[0] == register2[0])
        and (memory is memory2 if memory is None or memory2 is None
             else memory[0] == memory2[0])
        and (line is line2 if line is None or line2 is None else line[0] == line2[0])
    ):
        return state_equiv(m1, m2)
    if line != line2:
        return False
    if register is not None:
        a, b = register[1], register2[1]
        if a is not b and not (b.blinded if a.blinded else not b.blinded and a.value == b.value):
            return False
    if memory is not None:
        a, b = memory[1], memory2[1]
        if a is not b and not (b.blinded if a.blinded else not b.blinded and a.value == b.value):
            return False
    return True


_RUNNING = Status.RUNNING  # bound once: the pair loop reads it twice a pair-step


def _run_pair(
    s1: SystemState,
    s2: SystemState,
    cfg: MachineConfig,
    steps: int,
    semantics,
    decoded: dict,
) -> tuple[int, str, str | None]:
    """(pair-steps, stop, divergence reason or None) for the pair ``s1``,
    ``s2``, taken as equivalent: no gate runs here.

    Both sides step in place, and each step returns its events and the
    writes it committed.  After each step the two event tuples are
    compared, and :func:`_unwinding_holds` over both steps' writes stands
    in for a full ``state_equiv``, which runs once at the end, on the two
    machines, as a cross-check that raises RuntimeError; it also catches
    a pre-state difference that lasts to the end.  ``decoded`` is the
    decode slot both sides use (see :class:`~blindsim.machine.ListMachine`).

    The stop is read from the loop's exit and side 1's status, with no
    work per pair-step.  The trial ends at ``fixed-point``, with no
    divergence, once both sides are RUNNING at pc 0 with word 0
    blinded.  Equivalence gives both sides that pc and that tag, and
    from there every step on either side is ``Fault(k,
    BLINDED_INSTRUCTION_FETCH)``: it leaves pc at 0, writes nothing, and
    neither decodes nor calls the semantics.  So the
    remaining steps could not diverge, and the stop changes no result and
    no call a semantics sees.
    """
    m1, m2 = ListMachine(s1), ListMachine(s2)
    # Equivalent states fetch the same clear word, so one decode serves
    # both sides; the slot's value check keeps a divergent fetch correct.
    m1.decoded = m2.decoded = decoded
    memory = m1.memory
    step1, step2 = m1.step, m2.step
    for k in range(steps):
        if m1.status is not _RUNNING or m2.status is not _RUNNING:
            break  # both stopped (equivalence already guarantees same way)
        if m1.pc == 0 and memory[0].blinded:
            break  # the blinded-fetch fixed point: every later step traps alike
        out1 = step1(cfg, k, semantics)
        out2 = step2(cfg, k, semantics)
        if out1[0] != out2[0]:
            return k + 1, "diverged", f"trace events diverge: {out1[0]!r} != {out2[0]!r}"
        if not _unwinding_holds(m1, m2, out1, out2):
            return k + 1, "diverged", "successor states not equivalent"
    else:
        k = steps
    if not state_equiv(m1, m2):
        raise RuntimeError("unwinding check passed a pair that state_equiv rejects")
    status = m1.status
    if status is not _RUNNING:
        return k, status._value_, None
    return k, "budget" if k == steps else "fixed-point", None


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


def _shrink(s1, s2, cfg, steps, semantics, decoded: dict) -> tuple[SystemState, SystemState]:
    """Greedy minimization of a diverging equivalent pair: revert blinded
    payload differences one at a time while the pair still diverges, the
    re-runs sharing the decode slot ``decoded``.  A candidate copies one
    payload that is blinded on both sides, so it stays equivalent and
    runs in :func:`_run_pair` with no gate."""
    current = s2
    for kind, index in _payload_delta(s1, s2):
        candidate = _with_payload_from(current, s1, kind, index)
        if _run_pair(s1, candidate, cfg, steps, semantics, decoded)[2] is not None:
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
    A trial that reaches the blinded-fetch fixed point (pc 0, word 0
    blinded) ends there: every later step would trap alike on both
    sides without a write or a semantics call (see
    :func:`_run_pair`).

    With ``program`` given, it is booted once and each trial's pair is
    drawn as :func:`pair_for_program` draws it (blinded image words and
    ``blinded_regs`` get fresh payloads); without it, fully random
    machines are generated.  A drawn pair is equivalent by construction,
    so it runs with no start-of-trial ``state_equiv``; a broken draw
    whose difference lasts fails the end-of-trial cross-check.  A
    failure is shrunk to a minimal payload delta before reporting.  The
    result's ``pair_steps`` and ``stops`` come from each trial's loop
    exit (:func:`_run_pair`).

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
    pair_steps = 0
    stops: list[str] = []
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
        ran, stop, reason = _run_pair(s1, s2, cfg, steps, semantics, decoded)
        pair_steps += ran
        stops.append(stop)
        if reason is not None:
            m1, m2 = _shrink(s1, s2, cfg, steps, semantics, decoded)
            return NoninterferenceResult(
                passed=False,
                trials=trial + 1,
                counterexample=Counterexample(
                    trial=trial,
                    step=ran - 1,
                    reason=reason,
                    initial_pair=(m1, m2),
                    delta_words=len(_payload_delta(m1, m2)),
                ),
                pair_steps=pair_steps,
                stops=tuple(stops),
            )
    return NoninterferenceResult(
        passed=True, trials=trials, pair_steps=pair_steps, stops=tuple(stops)
    )
