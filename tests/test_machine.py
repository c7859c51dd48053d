"""Step semantics, trace events, the direct-mapped cache, and the run driver."""

import random
from dataclasses import replace

import pytest

from blindsim.assembler import assemble
from blindsim.checker import generate_equivalent_pair, pair_for_program
from blindsim.corpus import curated_corpus
from blindsim.isa import (
    NEXT,
    PC,
    DecodedInstruction,
    MemKind,
    MemoryOperation,
    Mode,
    Opcode,
    encode,
    random_instruction,
)
from blindsim.machine import (
    CacheUpdate,
    Fault,
    Fetch,
    Halt,
    MachineConfig,
    MemAccess,
    MmioWrite,
    RunOutcome,
    RunResult,
    format_event,
    format_trace,
    run,
    step,
)
from blindsim.model import (
    CacheAssignments,
    FaultKind,
    MemoryImage,
    RegisterFile,
    Status,
    SystemState,
    TaggedWord,
    blinded,
    clear,
    state_equiv,
)

from conftest import random_word, twin_word


def iw(op, ins=(), outs=()):
    return encode(DecodedInstruction(op, tuple(ins), tuple(outs)))


HALT = iw(Opcode.HALT)


def make_state(words, regs=None, mem_size=32, pc=0):
    mem = [clear(0)] * mem_size
    for i, w in enumerate(words):
        mem[i] = w if isinstance(w, TaggedWord) else clear(w)
    rf = RegisterFile.zeros()
    for i, w in (regs or {}).items():
        rf = rf.write(i, w)
    return SystemState(
        pc=pc,
        registers=rf,
        memory=MemoryImage(tuple(mem)),
        cache=CacheAssignments.empty(8),
    )


CFG = MachineConfig(memory_words=32, cache_lines=8)
CFG_MODEL = MachineConfig(mode=Mode.MODEL, memory_words=32, cache_lines=8)


class TestStep:
    def test_blinded_fetch_traps_to_zero(self):
        s = make_state([HALT, blinded(0x1234)], pc=1)
        nxt, events = step(s, CFG)
        assert nxt.pc == 0
        assert nxt.status is Status.RUNNING
        assert nxt.registers == s.registers and nxt.memory == s.memory
        assert events == (Fault(0, FaultKind.BLINDED_INSTRUCTION_FETCH),)

    def test_halt(self):
        s = make_state([0, 0, 0, 0, 0, HALT], pc=5)
        nxt, events = step(s, CFG, cycle=7)
        assert nxt.status is Status.HALTED
        assert events[-1] == Halt(7)

    def test_store_emits_mem_and_cache_events(self):
        # store r2 -> [r1], r1 = 0x13: line = 0x13 mod 8 = 3
        s = make_state(
            [iw(Opcode.STORE, (1, 2))],
            regs={1: clear(0x13), 2: clear(0xAB)},
        )
        nxt, events = step(s, CFG)
        assert nxt.memory[0x13] == clear(0xAB)
        assert MemAccess(0, MemKind.STORE, 0x13) in events
        assert CacheUpdate(0, 3, 0x13) in events

    def test_load_transfers_tag(self):
        s = make_state(
            [iw(Opcode.LOAD, (1,), (2,)), HALT, blinded(0x77)],
            regs={1: clear(2)},
        )
        nxt, _ = step(s, CFG)
        assert nxt.registers[2] == blinded(0x77)
        assert nxt.pc == 1

    def test_arithmetic_writes_register(self):
        s = make_state(
            [iw(Opcode.ADD, (1, 2), (3,)), HALT],
            regs={1: clear(4), 2: blinded(5)},
        )
        nxt, events = step(s, CFG)
        assert nxt.registers[3] == blinded(9)
        assert events == (Fetch(0, 0, iw(Opcode.ADD, (1, 2), (3,))),)

    def test_decode_error_is_terminal(self):
        s = make_state([clear(0xDEADBEEF)])
        nxt, events = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.DECODE_ERROR
        assert isinstance(events[0], Fetch)
        assert events[-1] == Fault(0, FaultKind.DECODE_ERROR)

    def test_bz_blinded_condition_traps(self):
        s = make_state(
            [iw(Opcode.BZ, (1, 2), (PC,)), HALT],
            regs={1: blinded(0), 2: clear(1)},
        )
        nxt, events = step(s, CFG)
        assert nxt.pc == 0 and nxt.status is Status.RUNNING
        assert events[-1] == Fault(0, FaultKind.BLINDED_BRANCH)
        assert nxt.registers == s.registers and nxt.memory == s.memory

    def test_bz_jump(self):
        s = make_state(
            [iw(Opcode.BZ, (1, 2), (PC,)), HALT],
            regs={1: clear(0), 2: clear(5)},
        )
        nxt, _ = step(s, CFG)
        assert nxt.pc == 5

    def test_jump_out_of_range_faults(self):
        s = make_state(
            [iw(Opcode.BZ, (1, 2), (PC,))],
            regs={1: clear(0), 2: clear(32)},
        )
        nxt, events = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.OUT_OF_RANGE
        assert nxt.registers == s.registers and nxt.memory == s.memory

    def test_pc_increment_out_of_range_faults(self):
        s = make_state([0] * 32, pc=31)
        s = SystemState(
            pc=31,
            registers=s.registers.write(1, clear(1)).write(2, clear(1)),
            memory=s.memory.store(31, clear(iw(Opcode.ADD, (1, 2), (3,)))),
            cache=s.cache,
        )
        nxt, _ = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.OUT_OF_RANGE
        # no partial commit: the add result was discarded
        assert nxt.registers[3] == clear(0)

    def test_store_blinded_address_model_vs_hardware(self):
        s = make_state(
            [iw(Opcode.STORE, (1, 2)), HALT],
            regs={1: blinded(5), 2: clear(7)},
        )
        nxt, events = step(s, CFG_MODEL)
        assert nxt.pc == 1 and nxt.memory == s.memory
        assert all(not isinstance(e, (MemAccess, CacheUpdate)) for e in events)

        nxt, events = step(s, CFG)
        assert nxt.pc == 0 and nxt.status is Status.RUNNING
        assert events[-1] == Fault(0, FaultKind.BLINDED_ADDRESS)

    def test_memop_out_of_range_faults_without_commit(self):
        s = make_state(
            [iw(Opcode.STORE, (1, 2))],
            regs={1: clear(99), 2: clear(7)},
        )
        nxt, _ = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.OUT_OF_RANGE
        assert nxt.memory == s.memory

    def test_requires_running(self):
        s = make_state([HALT])
        halted, _ = step(s, CFG)
        with pytest.raises(ValueError):
            step(halted, CFG)

    def test_memory_operations_see_earlier_writes_in_the_step(self):
        # A semantics may return several memory operations; each sees the
        # writes made before it in the same step, and a repeat access to
        # a line this step filled reports that line.
        def store_then_load(d, inputs, mode):
            return (), (
                MemoryOperation(MemKind.STORE, 0x0B, 2),
                MemoryOperation(MemKind.LOAD, 0x0B, 4),
                MemoryOperation(MemKind.STORE, 0x0C, 4),
            ), NEXT

        s = make_state([iw(Opcode.ADD, (1, 2), (3,)), HALT], regs={2: blinded(0x55)})
        nxt, events = step(s, CFG, semantics=store_then_load)
        assert nxt.memory[0x0B] == blinded(0x55) and nxt.memory[0x0C] == blinded(0x55)
        assert nxt.registers[4] == blinded(0x55)
        assert [e for e in events if isinstance(e, CacheUpdate)] == [
            CacheUpdate(0, 3, 0x0B), CacheUpdate(0, 3, 0x0B), CacheUpdate(0, 4, 0x0C),
        ]
        assert run(s, CFG, max_steps=1, semantics=store_then_load).state == nxt


class TestUnblindableAndMmio:
    CFG_MMIO = MachineConfig(
        memory_words=32,
        cache_lines=8,
        unblindable_ranges=((24, 28),),
        mmio_console=24,
    )

    def test_blinded_store_to_unblindable_faults(self):
        s = make_state(
            [iw(Opcode.STORE, (1, 2))],
            regs={1: clear(25), 2: blinded(7)},
        )
        nxt, events = step(s, self.CFG_MMIO)
        assert nxt.status is Status.FAULTED
        assert nxt.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE
        assert nxt.memory == s.memory  # write suppressed
        assert events[-1] == Fault(0, FaultKind.BLINDED_STORE_TO_UNBLINDABLE)

    def test_clear_store_to_console_traces_value(self):
        s = make_state(
            [iw(Opcode.STORE, (1, 2))],
            regs={1: clear(24), 2: clear(0x2A)},
        )
        nxt, events = step(s, self.CFG_MMIO)
        assert nxt.memory[24] == clear(0x2A)
        assert MmioWrite(0, 0x2A) in events

    def test_clear_store_to_unblindable_non_console(self):
        s = make_state(
            [iw(Opcode.STORE, (1, 2))],
            regs={1: clear(26), 2: clear(5)},
        )
        _, events = step(s, self.CFG_MMIO)
        assert not any(isinstance(e, MmioWrite) for e in events)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(memory_words=16, unblindable_ranges=((8, 4),))
        with pytest.raises(ValueError):
            MachineConfig(memory_words=16, unblindable_ranges=((0, 8), (4, 12)))
        with pytest.raises(ValueError):
            MachineConfig(memory_words=16, mmio_console=3)


class TestTagEdits:
    def test_blnd_sets_tag(self):
        s = make_state(
            [iw(Opcode.BLND, (1,)), HALT, clear(0x55)],
            regs={1: clear(2)},
        )
        nxt, events = step(s, CFG)
        assert nxt.memory[2] == blinded(0x55)
        assert not any(isinstance(e, (MemAccess, CacheUpdate)) for e in events)

    def test_rblnd_refused_by_default(self):
        s = make_state(
            [iw(Opcode.RBLND, (1,)), HALT, blinded(0x55)],
            regs={1: clear(2)},
        )
        nxt, events = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.DECODE_ERROR
        assert nxt.memory[2] == blinded(0x55)
        assert events[-1] == Fault(0, FaultKind.DECODE_ERROR, refused=True)

    def test_rblnd_allowed_when_configured(self):
        cfg = MachineConfig(memory_words=32, cache_lines=8, allow_raw_unblind=True)
        s = make_state(
            [iw(Opcode.RBLND, (1,)), HALT, blinded(0x55)],
            regs={1: clear(2)},
        )
        nxt, _ = step(s, cfg)
        assert nxt.memory[2] == clear(0x55)

    def test_blnd_blinded_address_is_noop_in_model_mode(self):
        # Payload is far out of range; a no-op must not even bounds-check it.
        s = make_state(
            [iw(Opcode.BLND, (1,)), HALT],
            regs={1: blinded(1 << 40)},
        )
        nxt, _ = step(s, CFG_MODEL)
        assert nxt.pc == 1 and nxt.status is Status.RUNNING
        assert nxt.memory == s.memory

    def test_blnd_out_of_range_clear_address_faults(self):
        s = make_state([iw(Opcode.BLND, (1,))], regs={1: clear(99)})
        nxt, _ = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.OUT_OF_RANGE


def access(cache, kind, address, mem_size=64):
    """One LOAD or STORE of ``address`` through ``step`` with the given
    cache; returns the new cache and the CacheUpdate events."""
    if kind is MemKind.STORE:
        instr = iw(Opcode.STORE, (1, 2))
    else:
        instr = iw(Opcode.LOAD, (1,), (2,))
    s = replace(make_state([instr], regs={1: clear(address)}, mem_size=mem_size), cache=cache)
    nxt, events = step(s, MachineConfig(memory_words=mem_size, cache_lines=len(cache)))
    return nxt.cache, [e for e in events if isinstance(e, CacheUpdate)]


class TestCachePolicy:
    def test_direct_mapped_example(self):
        cache = CacheAssignments.empty(16)
        new, updates = access(cache, MemKind.STORE, 0x23)
        assert new.addresses[3] == 0x23 and new.valid[3]
        assert new == cache.assign(3, 0x23)  # no other line touched
        assert updates == [CacheUpdate(0, 3, 0x23)]

    def test_same_line_overwrites(self):
        cache, first = access(CacheAssignments.empty(8), MemKind.LOAD, 0x08)
        cache, second = access(cache, MemKind.STORE, 0x10)
        assert cache.addresses[0] == 0x10
        assert first == [CacheUpdate(0, 0, 0x08)] and second == [CacheUpdate(0, 0, 0x10)]

    def test_kind_agnostic(self):
        cache = CacheAssignments.empty(8)
        assert access(cache, MemKind.LOAD, 0x0C) == access(cache, MemKind.STORE, 0x0C)

    @pytest.mark.parametrize(
        "lower_valid, home_address, line",
        [
            (True, 0x0B, 1),  # repeat access: the lowest line holding it
            (False, 0x0B, 3),  # an invalid lower line does not count
            (True, 0x13, 3),  # a miss always fills the home line
        ],
    )
    def test_line_reported_when_address_held_twice(self, lower_valid, home_address, line):
        # 0x0B % 8 == 3; line 1 also holds 0x0B, as a random state may.
        cache = CacheAssignments(
            (0, 0x0B, 0, home_address, 0, 0, 0, 0),
            (False, lower_valid, False, True, False, False, False, False),
        )
        new, updates = access(cache, MemKind.LOAD, 0x0B)
        assert new == cache.assign(3, 0x0B)
        assert updates == [CacheUpdate(0, line, 0x0B)]

    def test_repeat_access_still_traces(self):
        s = make_state(
            [iw(Opcode.STORE, (1, 2)), iw(Opcode.STORE, (1, 2)), HALT],
            regs={1: clear(0x13), 2: clear(1)},
        )
        r = run(s, CFG, max_steps=10)
        updates = [e for e in r.trace if isinstance(e, CacheUpdate)]
        assert updates == [CacheUpdate(0, 3, 0x13), CacheUpdate(1, 3, 0x13)]


class TestRun:
    def test_straight_line_halts_in_two_steps(self):
        s = make_state(
            [iw(Opcode.ADD, (1, 2), (3,)), HALT],
            regs={1: clear(1), 2: clear(2)},
        )
        r = run(s, CFG, max_steps=100)
        assert r.outcome is RunOutcome.HALTED and r.steps == 2
        assert r.state.registers[3] == clear(3)

    def test_blinded_word_zero_fault_loops(self):
        s = make_state([blinded(0x99)])
        r = run(s, CFG, max_steps=100)
        assert r.outcome is RunOutcome.FAULT_LOOP
        assert all(e == Fault(e.cycle, FaultKind.BLINDED_INSTRUCTION_FETCH) for e in r.trace)

    def test_trap_then_halt_at_zero(self):
        s = make_state(
            [HALT, iw(Opcode.BZ, (1, 2), (PC,))],
            regs={1: blinded(0)},
            pc=1,
        )
        r = run(s, CFG, max_steps=10)
        assert r.outcome is RunOutcome.HALTED
        assert Fault(0, FaultKind.BLINDED_BRANCH) in r.trace

    def test_step_limit(self):
        # bz r0, r0 with r0 = 0 jumps to 0 forever
        s = make_state([iw(Opcode.BZ, (0, 0), (PC,))])
        r = run(s, CFG, max_steps=17)
        assert r.outcome is RunOutcome.STEP_LIMIT and r.steps == 17

    @pytest.mark.parametrize(
        "max_steps, outcome",
        [(1, RunOutcome.STEP_LIMIT), (2, RunOutcome.HALTED), (3, RunOutcome.HALTED)],
    )
    def test_halt_on_the_last_allowed_step(self, max_steps, outcome):
        s = make_state([iw(Opcode.ADD, (1, 2), (3,)), HALT])
        r = run(s, CFG, max_steps=max_steps)
        assert r.outcome is outcome and r.steps == min(max_steps, 2)
        assert r.state.status is (Status.HALTED if outcome is RunOutcome.HALTED else Status.RUNNING)

    def test_faulted_outcome(self):
        s = make_state([clear(0x7F)])
        r = run(s, CFG, max_steps=5)
        assert r.outcome is RunOutcome.FAULTED
        assert r.state.fault is FaultKind.DECODE_ERROR

    def test_determinism_1000_random_programs(self):
        rng = random.Random(555)
        for _ in range(1000):
            seed = rng.getrandbits(48)
            r1 = self._random_run(seed)
            r2 = self._random_run(seed)
            assert format_trace(r1.trace) == format_trace(r2.trace)
            assert r1.outcome is r2.outcome and r1.state == r2.state

    @staticmethod
    def _random_run(seed):
        rng = random.Random(seed)
        mem = tuple(
            TaggedWord(encode(random_instruction(rng)), rng.random() < 0.1)
            if rng.random() < 0.7
            else random_word(rng, blind_p=0.2)
            for _ in range(32)
        )
        regs = tuple(random_word(rng, blind_p=0.3) for _ in range(32))
        s = SystemState(
            pc=rng.randrange(32),
            registers=RegisterFile(regs),
            memory=MemoryImage(mem),
            cache=CacheAssignments.empty(8),
        )
        mode = rng.choice([Mode.MODEL, Mode.HARDWARE])
        cfg = MachineConfig(mode=mode, memory_words=32, cache_lines=8)
        return run(s, cfg, max_steps=64)

    def test_max_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            run(make_state([HALT]), CFG, max_steps=0)

    def test_input_state_is_left_unchanged(self):
        program = [iw(Opcode.STORE, (1, 2)), iw(Opcode.LOAD, (1,), (3,)), HALT]
        regs = {1: clear(0x13), 2: blinded(7)}
        s = make_state(program, regs=regs)
        r = run(s, CFG, max_steps=10)
        assert r.state.memory[0x13] == blinded(7) and r.state.registers[3] == blinded(7)
        assert s == make_state(program, regs=regs)

    def test_control_trap_at_zero_fault_loops(self):
        # bz r1, r2 at pc 0 with a blinded condition traps back to itself
        s = make_state([iw(Opcode.BZ, (1, 2), (PC,))], regs={1: blinded(0)})
        r = run(s, CFG, max_steps=100)
        assert r.outcome is RunOutcome.FAULT_LOOP and r.steps == 2
        assert r.trace == (
            Fetch(0, 0, s.memory[0].value), Fault(0, FaultKind.BLINDED_BRANCH),
            Fetch(1, 0, s.memory[0].value), Fault(1, FaultKind.BLINDED_BRANCH),
        )
        assert r.state == s

    def test_step_between_traps_resets_the_trap_count(self):
        # pc 1 traps to 0; the add at 0 falls through to 1, which traps again
        s = make_state(
            [iw(Opcode.ADD, (3, 4), (5,)), iw(Opcode.BZ, (1, 2), (PC,))],
            regs={1: blinded(0)},
            pc=1,
        )
        r = run(s, CFG, max_steps=9)
        assert r.outcome is RunOutcome.STEP_LIMIT and r.steps == 9
        assert sum(isinstance(e, Fault) for e in r.trace) == 5


def fold_of_step(s, cfg, max_steps):
    """Reference ``run``: a fold of the copying :func:`step`, with the
    trap-loop rule stated over whole states."""
    trace = []
    trapped_unchanged = 0
    n = 0
    while n < max_steps and s.status is Status.RUNNING:
        nxt, events = step(s, cfg, cycle=n)
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
    outcome = {Status.HALTED: RunOutcome.HALTED, Status.FAULTED: RunOutcome.FAULTED}
    return RunResult(s, tuple(trace), outcome.get(s.status, RunOutcome.STEP_LIMIT), n)


class TestRunMatchesStepFold:
    """``run`` commits in place; a fold of ``step`` copies.  Both must give
    the same final state, trace, outcome and step count."""

    CONFIGS = [
        dict(mode=mode, tag_logic=tag_logic, allow_raw_unblind=raw)
        for mode in Mode
        for tag_logic in (True, False)
        for raw in (False, True)
    ]

    @pytest.mark.parametrize("options", CONFIGS, ids=lambda o: "-".join(map(str, o.values())))
    def test_random_states(self, options):
        cfg = MachineConfig(
            memory_words=64,
            cache_lines=8,
            unblindable_ranges=((40, 48), (60, 62)),
            mmio_console=41,
            **options,
        )
        outcomes = set()
        for seed in range(60):
            s, _ = generate_equivalent_pair(seed, memory_words=64, cache_lines=8)
            r = run(s, cfg, max_steps=120)
            assert r == fold_of_step(s, cfg, max_steps=120), seed
            outcomes.add(r.outcome)
        assert len(outcomes) >= 2

    @pytest.mark.parametrize("options", CONFIGS, ids=lambda o: "-".join(map(str, o.values())))
    def test_corpus_programs(self, options):
        rng = random.Random(41)
        for entry in curated_corpus():
            cfg = MachineConfig(
                memory_words=entry.memory_words,
                cache_lines=8,
                unblindable_ranges=entry.unblindable,
                mmio_console=entry.mmio_console,
                **options,
            )
            s, _ = pair_for_program(assemble(entry.source), cfg, rng, entry.blinded_regs)
            r = run(s, cfg, max_steps=400)
            assert r == fold_of_step(s, cfg, max_steps=400), entry.name


class TestStepSafety:
    """Equivalent states step to equivalent states with identical traces.

    The core noninterference invariant of the whole machine, checked at
    a hundred thousand random state pairs in both modes.
    """

    def _random_pair(self, rng):
        mem_size, lines = 24, 4
        mem1, mem2 = [], []
        instr_blind_p = 0.12
        for _ in range(mem_size):
            if rng.random() < 0.65:
                w = TaggedWord(encode(random_instruction(rng)), rng.random() < instr_blind_p)
            else:
                w = random_word(rng, blind_p=0.35)
            mem1.append(w)
            mem2.append(twin_word(rng, w))
        regs1 = [random_word(rng, blind_p=0.35) for _ in range(32)]
        regs2 = [twin_word(rng, w) for w in regs1]
        cache = CacheAssignments(
            tuple(rng.randrange(mem_size) for _ in range(lines)),
            tuple(rng.random() < 0.5 for _ in range(lines)),
        )
        pc = rng.randrange(mem_size)
        s1 = SystemState(pc, RegisterFile(tuple(regs1)), MemoryImage(tuple(mem1)), cache)
        s2 = SystemState(pc, RegisterFile(tuple(regs2)), MemoryImage(tuple(mem2)), cache)
        return s1, s2

    @pytest.mark.parametrize("mode", [Mode.HARDWARE, Mode.MODEL])
    def test_system_safety_50k_pairs(self, mode):
        rng = random.Random(0xC0FFEE if mode is Mode.HARDWARE else 0xBEEF)
        cfg = MachineConfig(
            mode=mode,
            memory_words=24,
            cache_lines=4,
            unblindable_ranges=((20, 22),),
        )
        for i in range(50_000):
            s1, s2 = self._random_pair(rng)
            assert state_equiv(s1, s2)
            n1, e1 = step(s1, cfg, cycle=i)
            n2, e2 = step(s2, cfg, cycle=i)
            assert state_equiv(n1, n2), (s1, s2)
            assert e1 == e2, (s1, s2)

    def test_step_is_pure(self):
        rng = random.Random(42)
        s1, _ = self._random_pair(rng)
        cfg = MachineConfig(memory_words=24, cache_lines=4)
        assert step(s1, cfg, cycle=3) == step(s1, cfg, cycle=3)

    def test_raw_unblind_breaks_equivalence_which_is_why_it_is_gated(self):
        cfg = MachineConfig(memory_words=32, cache_lines=8, allow_raw_unblind=True)
        prog = [iw(Opcode.RBLND, (1,)), HALT]
        s1 = make_state(prog + [blinded(0x11)], regs={1: clear(2)})
        s1 = SystemState(0, s1.registers, s1.memory.store(2, blinded(0x11)), s1.cache)
        s2 = SystemState(0, s1.registers, s1.memory.store(2, blinded(0x22)), s1.cache)
        assert state_equiv(s1, s2)
        n1, _ = step(s1, cfg)
        n2, _ = step(s2, cfg)
        assert not state_equiv(n1, n2)


class TestTraceFormat:
    def test_golden_lines(self):
        assert format_event(Fetch(3, 5, 0x3020104)) == "cycle=3 kind=fetch pc=0x5 word=0x3020104"
        assert format_event(MemAccess(4, MemKind.STORE, 0x23)) == "cycle=4 kind=store addr=0x23"
        assert format_event(MemAccess(4, MemKind.LOAD, 0x23)) == "cycle=4 kind=load addr=0x23"
        assert format_event(CacheUpdate(4, 3, 0x23)) == "cycle=4 kind=cache line=0x3 addr=0x23"
        assert (
            format_event(Fault(5, FaultKind.BLINDED_BRANCH))
            == "cycle=5 kind=fault fault=blinded-branch"
        )
        assert (
            format_event(Fault(5, FaultKind.DECODE_ERROR, refused=True))
            == "cycle=5 kind=fault fault=decode-error refused=0x1"
        )
        assert format_event(MmioWrite(6, 0x2A)) == "cycle=6 kind=mmio value=0x2a"
        assert format_event(Halt(7)) == "cycle=7 kind=halt"

    def test_format_trace_joins_lines(self):
        t = format_trace([Halt(0)])
        assert t == "cycle=0 kind=halt\n"


class TestReferenceMachine:
    """tag_logic=False ignores tags entirely."""

    def test_blinded_fetch_executes(self):
        cfg = MachineConfig(memory_words=32, cache_lines=8, tag_logic=False)
        s = make_state([TaggedWord(HALT, True)])
        nxt, events = step(s, cfg)
        assert nxt.status is Status.HALTED

    def test_blinded_operands_do_not_taint(self):
        cfg = MachineConfig(memory_words=32, cache_lines=8, tag_logic=False)
        s = make_state(
            [iw(Opcode.ADD, (1, 2), (3,)), HALT],
            regs={1: blinded(4), 2: clear(5)},
        )
        nxt, _ = step(s, cfg)
        assert nxt.registers[3] == clear(9)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "words, regs, where, expected",
        [
            pytest.param(
                [iw(Opcode.LOAD, (1,), (2,)), HALT, blinded(0x77)],
                {1: clear(2)}, "r2", clear(0x77), id="blinded-word-loads-clear",
            ),
            pytest.param(
                [iw(Opcode.STORE, (1, 2)), HALT],
                {1: clear(25), 2: blinded(7)}, "m25", clear(7), id="store-to-unblindable",
            ),
            pytest.param(
                [iw(Opcode.BLND, (1,)), HALT, clear(0x55)],
                {1: clear(2)}, "m2", clear(0x55), id="blnd-no-tag-edit",
            ),
            pytest.param(
                [iw(Opcode.RBLND, (1,)), HALT, blinded(0x55)],
                {1: clear(2)}, "m2", blinded(0x55), id="rblnd-not-refused",
            ),
        ],
    )
    def test_tag_policy_does_not_apply(self, mode, words, regs, where, expected):
        cfg = MachineConfig(
            mode=mode,
            memory_words=32,
            cache_lines=8,
            unblindable_ranges=((24, 28),),
            tag_logic=False,
        )
        nxt, events = step(make_state(words, regs=regs), cfg)
        assert nxt.status is Status.RUNNING and nxt.pc == 1
        assert not any(isinstance(e, Fault) for e in events)
        store = nxt.registers if where[0] == "r" else nxt.memory
        assert store[int(where[1:])] == expected

    def test_taint_free_program_matches_policy_machine(self):
        prog = [
            iw(Opcode.ADD, (1, 2), (3,)),
            iw(Opcode.STORE, (4, 3)),
            iw(Opcode.LOAD, (4,), (5,)),
            HALT,
        ]
        regs = {1: clear(3), 2: clear(4), 4: clear(10)}
        s = make_state(prog, regs=regs)
        r_policy = run(s, CFG, max_steps=20)
        r_ref = run(s, MachineConfig(memory_words=32, cache_lines=8, tag_logic=False), max_steps=20)
        assert format_trace(r_policy.trace) == format_trace(r_ref.trace)
        assert r_policy.state == r_ref.state
