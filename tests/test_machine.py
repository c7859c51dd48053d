"""Step semantics, trace events, the direct-mapped cache, and the run driver."""

import hashlib
import random
import typing
from dataclasses import replace

import pytest

from blindsim.assembler import assemble
from blindsim.checker import (
    check_noninterference,
    generate_equivalent_pair,
    pair_for_program,
    shrink_pair,
)
from blindsim.corpus import CorpusEntry, curated_corpus, mmio_report
from blindsim.isa import (
    HALT_CONTROL,
    NEXT,
    PC,
    Control,
    ControlKind,
    DecodedInstruction,
    MemKind,
    MemoryOperation,
    Mode,
    Opcode,
    decode,
    encode,
    instruction_semantics,
    random_instruction,
    random_instruction_word,
)
from blindsim.machine import (
    CacheUpdate,
    Fault,
    Fetch,
    Halt,
    ListMachine,
    MachineConfig,
    MemAccess,
    MmioWrite,
    RunOutcome,
    RunResult,
    TraceEvent,
    boot_image,
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
    snapshot,
    state_equiv,
)

import mutants
from conftest import random_word, twin_word


def iw(op, ins=(), outs=()):
    return encode(DecodedInstruction(op, tuple(ins), tuple(outs)))


HALT = iw(Opcode.HALT)


def make_state(words, regs=None, mem_size=32, pc=0):
    mem = [clear(0)] * mem_size
    for i, w in enumerate(words):
        mem[i] = w if isinstance(w, TaggedWord) else clear(w)
    return SystemState(
        pc=pc,
        registers=RegisterFile.zeros(),
        memory=MemoryImage(tuple(mem)),
        cache=CacheAssignments.empty(8),
    ).edit(registers=list((regs or {}).items()))


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
        s = make_state(
            [0] * 31 + [iw(Opcode.ADD, (1, 2), (3,))],
            regs={1: clear(1), 2: clear(1)},
            pc=31,
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

    def test_step_shares_what_it_does_not_write(self):
        # A step copies only the components it writes.
        add = make_state([iw(Opcode.ADD, (1, 2), (3,)), HALT], regs={1: clear(4)})
        nxt, _ = step(add, CFG)
        assert nxt.memory is add.memory and nxt.cache is add.cache
        assert nxt.registers[3] == clear(4)
        store = make_state([iw(Opcode.STORE, (1, 2)), HALT], regs={1: clear(0x13)})
        nxt, _ = step(store, CFG)
        assert nxt.registers is store.registers and nxt.memory is not store.memory
        trap = make_state([HALT, blinded(0)], pc=1)
        nxt, _ = step(trap, CFG)
        assert nxt.registers is trap.registers and nxt.memory is trap.memory
        assert nxt.cache is trap.cache

    def test_requires_running(self):
        s = make_state([HALT])
        halted, _ = step(s, CFG)
        with pytest.raises(ValueError):
            step(halted, CFG)

    def test_a_semantics_with_two_memory_operations_is_refused(self):
        # Every instruction makes at most one memory access, and a step
        # reads only the state before it; a semantics that asks for two
        # operations is refused, whichever driver steps it.
        def store_then_load(d, inputs, mode):
            return (), (
                MemoryOperation(MemKind.STORE, 0x0B, 2),
                MemoryOperation(MemKind.LOAD, 0x0B, 4),
            ), NEXT

        image = assemble("add r3, r1, r2\nhalt\n")
        s = boot_image(image, CFG).edit(registers=[(2, blinded(0x55))])
        with pytest.raises(ValueError, match="at most one memory operation"):
            step(s, CFG, semantics=store_then_load)
        with pytest.raises(ValueError, match="at most one memory operation"):
            run(s, CFG, max_steps=1, semantics=store_then_load)
        with pytest.raises(ValueError, match="at most one memory operation"):
            check_noninterference(image, trials=1, steps=1, cfg=CFG, semantics=store_then_load)
        assert s == boot_image(image, CFG).edit(registers=[(2, blinded(0x55))])


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

    def test_is_unblindable_at_range_edges(self):
        cfg = MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((40, 41), (8, 12)))
        assert [a for a in range(-1, 65) if cfg.is_unblindable(a)] == [8, 9, 10, 11, 40]
        bare = MachineConfig(memory_words=64, cache_lines=8)
        assert not any(bare.is_unblindable(a) for a in range(-1, 65))


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

    def test_the_machine_applies_whatever_tag_edit_the_semantics_emits(self):
        # The address rule lives in the semantics alone, so a semantics
        # that emits the tag edit at a secret address leaks, and the
        # model-mode lockstep catches it: the two sides' payloads retag
        # different words, or one of them is out of range and faults.
        s = make_state([iw(Opcode.BLND, (1,)), HALT, clear(0x55)], regs={1: blinded(2)})
        nxt, events = step(s, CFG_MODEL, semantics=mutants.tag_edit_at_blinded_address)
        assert nxt.memory[2] == blinded(0x55) and events == (Fetch(0, 0, s.memory[0].value),)
        image = assemble("blnd r1\nhalt\n")
        shipped = check_noninterference(image, trials=200, steps=4, cfg=CFG_MODEL, blinded_regs=(1,))
        assert shipped.passed
        mutant = check_noninterference(
            image, trials=200, steps=4, cfg=CFG_MODEL, blinded_regs=(1,),
            semantics=mutants.tag_edit_at_blinded_address,
        )
        assert not mutant.passed and mutant.counterexample.step == 0


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
        # no other line touched
        assert new == CacheAssignments(
            (0,) * 3 + (0x23,) + (0,) * 12, (False,) * 3 + (True,) + (False,) * 12
        )
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
        assert new == CacheAssignments((0, 0x0B, 0, 0x0B, 0, 0, 0, 0), cache.valid)
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

    @pytest.mark.parametrize("pc", [32, 1 << 40], ids=["one-past-the-end", "far-out"])
    def test_pc_outside_memory_faults_at_once(self, pc):
        r = run(make_state([HALT], pc=pc), CFG, max_steps=5)
        assert r.outcome is RunOutcome.FAULTED and r.steps == 1
        assert r.trace == (Fault(0, FaultKind.OUT_OF_RANGE),)
        assert r.state.status is Status.FAULTED and r.state.fault is FaultKind.OUT_OF_RANGE
        assert r.state.pc == pc

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
            TaggedWord(random_instruction_word(rng), rng.random() < 0.1)
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


class TestStateMustFitConfig:
    """``run``, ``step`` and ``shrink_pair`` take a machine's sizes from its
    config; a state of other sizes ran on its own sizes, and one with no
    cache line crashed at its first load with ZeroDivisionError."""

    CFG = MachineConfig(memory_words=64, cache_lines=8)
    CASES = ["no cache line", "4 of 8 cache lines", "16 of 64 words", "4 registers"]

    @staticmethod
    def misfit(case: str) -> SystemState:
        s = SystemState.initial(64, 8)
        return {
            "no cache line": replace(s, cache=CacheAssignments((), ())),
            "4 of 8 cache lines": SystemState.initial(64, 4),
            "16 of 64 words": SystemState.initial(16, 8),
            "4 registers": replace(s, registers=RegisterFile(s.registers.regs[:4])),
        }[case].edit(memory=[(0, clear(iw(Opcode.LOAD, (1,), (2,))))])

    @pytest.mark.parametrize("case", CASES)
    def test_run_and_step_refuse(self, case):
        s = self.misfit(case)
        with pytest.raises(ValueError, match="does not fit"):
            run(s, self.CFG, 3)
        with pytest.raises(ValueError, match="does not fit"):
            step(s, self.CFG)

    @pytest.mark.parametrize("case", CASES)
    def test_shrink_pair_refuses(self, case):
        fits = SystemState.initial(64, 8)
        for pair in ((self.misfit(case), fits), (fits, self.misfit(case))):
            with pytest.raises(ValueError, match="does not fit"):
                shrink_pair(*pair, self.CFG, 3, instruction_semantics)


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


def _pinned_runs():
    """(state, config, step budget) for both sides of seeded 64-word pairs
    and of the pair of every corpus program and of ``mmio_report`` (no
    corpus entry has a console), under each of TestRunMatchesStepFold's
    configs; together they reach every event kind."""
    console = CorpusEntry("mmio-report", mmio_report(48), unblindable=((48, 52),), mmio_console=48)
    images = [(entry, assemble(entry.source)) for entry in (*curated_corpus(), console)]
    for options in TestRunMatchesStepFold.CONFIGS:
        cfg = MachineConfig(
            memory_words=64,
            cache_lines=8,
            unblindable_ranges=((40, 48), (60, 62)),
            mmio_console=41,
            **options,
        )
        for seed in range(100):
            for s in generate_equivalent_pair(seed, memory_words=64, cache_lines=8):
                yield s, cfg, 120
        rng = random.Random(41)
        for entry, image in images:
            cfg = MachineConfig(
                memory_words=entry.memory_words,
                cache_lines=8,
                unblindable_ranges=entry.unblindable,
                mmio_console=entry.mmio_console,
                **options,
            )
            for s in pair_for_program(image, cfg, rng, entry.blinded_regs):
                yield s, cfg, 400


class TestRunDigest:
    def test_runs_are_pinned(self):
        # Everything run returns, in bytes: the trace lines, the final
        # state, the outcome, the step count and each event's class (the
        # trace lines alone do not tell a Fetch from a CacheUpdate's shape).
        h = hashlib.sha256()
        kinds = set()
        for s, cfg, max_steps in _pinned_runs():
            r = run(s, cfg, max_steps)
            names = " ".join(type(e).__name__ for e in r.trace)
            h.update(format_trace(r.trace).encode())
            h.update(snapshot(r.state).encode())
            h.update(f"{r.outcome.value} {r.steps} {names}\n".encode())
            kinds.update(map(type, r.trace))
        assert kinds == set(typing.get_args(TraceEvent))
        assert h.hexdigest() == (
            "058fbb13097d3a8b091ac68bf537fd4b0a82b2d232d182ec2a395206dfcefe88"
        )


def _whole(record, kinds) -> None:
    assert type(record) in kinds, record
    assert len(record) == len(type(record)._fields), record


class TestRecordsAreWhole:
    """The per-step path builds records with ``tuple.__new__``, which
    checks no arity and fills no default, so a record built short would
    fail only where a missing field is read."""

    def test_effects_and_events_of_runs(self):
        # A step commits in place exactly the writes it returns: applied to
        # copies of the lists taken before the step, they give the lists
        # after it.  The lockstep harness compares only those writes.  A
        # step that stops writes nothing.
        kinds = set(typing.get_args(TraceEvent))
        steps = 0
        for s, cfg, max_steps in _pinned_runs():
            m = ListMachine(s)
            for cycle in range(max_steps):
                if m.status is not Status.RUNNING:
                    break
                registers, memory = list(m.registers), list(m.memory)
                addresses, valid = list(m.addresses), list(m.valid)
                out = m.step(cfg, cycle, instruction_semantics)
                assert type(out) is tuple and len(out) == 4, out
                events, reg_writes, mem_writes, line_writes = out
                for e in events:
                    _whole(e, kinds)
                for i, w in reg_writes:
                    registers[i] = w
                for a, w in mem_writes:
                    memory[a] = w
                for line, a in line_writes:
                    addresses[line], valid[line] = a, True
                assert (m.registers, m.memory) == (registers, memory)
                assert (m.addresses, m.valid) == (addresses, valid)
                if m.status is not Status.RUNNING or type(events[-1]) is Fault:
                    assert (reg_writes, mem_writes, line_writes) == ((), (), ())
                steps += 1
        assert steps > 10_000

    @pytest.mark.parametrize("mode", list(Mode))
    def test_semantics_of_random_instructions(self, mode):
        rng = random.Random(14)
        controls, memops = set(), set()
        for _ in range(5000):
            d = random_instruction(rng)
            inputs = [
                TaggedWord(rng.choice((0, 1, 9, rng.getrandbits(64))), rng.random() < 0.3)
                for _ in d.inputs
            ]
            _, ops, control = instruction_semantics(d, inputs, mode)
            for op in ops:
                _whole(op, {MemoryOperation})
                memops.add(op.kind)
            _whole(control, {Control})
            controls.add(control.kind)
        assert controls == set(ControlKind) and memops == set(MemKind)


class TestDecodeSlot:
    """``run`` decodes a word once per address and reuses it while the
    fetched word is unchanged; a changed or blinded word is never served
    from the slot."""

    def test_self_modifying_code_runs_the_new_instruction(self):
        # Word 1 is an add; the loop stores an xor over it and jumps back.
        # The xor sets r7, so the branch at 3 falls through to the halt.
        xor = iw(Opcode.XOR, (7, 4), (7,))
        prog = [
            iw(Opcode.LOAD, (5,), (1,)),
            iw(Opcode.ADD, (3, 4), (3,)),
            iw(Opcode.STORE, (6, 1)),
            iw(Opcode.BZ, (7, 6), (PC,)),
            HALT,
        ]
        s = make_state(prog + [0] * 15 + [xor], regs={4: clear(1), 5: clear(20), 6: clear(1)})
        r = run(s, CFG, max_steps=50)
        assert r.outcome is RunOutcome.HALTED
        assert r.state.registers[3] == clear(1) and r.state.registers[7] == clear(1)
        assert [e.word for e in r.trace if isinstance(e, Fetch) and e.pc == 1] == [prog[1], xor]
        assert r == fold_of_step(s, CFG, max_steps=50)

    # Word 1 adds one to r3 and is then blinded by the blnd at 4; the jump
    # back fetches it blinded, so it traps to 0, whose rblnd unblinds it.
    # The second add makes r3 == 2 and the branch at 3 goes to the halt.
    BLINDED_AFTER_DECODE = [
        iw(Opcode.RBLND, (6,)),
        iw(Opcode.ADD, (3, 4), (3,)),
        iw(Opcode.SUB, (3, 10), (9,)),
        iw(Opcode.BZ, (9, 11), (PC,)),
        iw(Opcode.BLND, (6,)),
        iw(Opcode.BZ, (7, 6), (PC,)),
        HALT,
    ]
    REGS = {4: clear(1), 6: clear(1), 10: clear(2), 11: clear(6)}

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "tag_logic, raw, outcome, traps",
        [
            pytest.param(True, True, RunOutcome.HALTED, 1, id="rblnd-runs-it-again"),
            pytest.param(True, False, RunOutcome.FAULTED, 1, id="rblnd-refused"),
            pytest.param(False, False, RunOutcome.HALTED, 0, id="no-tag-logic"),
        ],
    )
    def test_word_blinded_after_decode_traps(self, mode, tag_logic, raw, outcome, traps):
        cfg = MachineConfig(
            mode=mode, memory_words=32, cache_lines=8, tag_logic=tag_logic, allow_raw_unblind=raw
        )
        s = make_state(self.BLINDED_AFTER_DECODE, regs=self.REGS, pc=1)
        r = run(s, cfg, max_steps=50)
        assert r.outcome is outcome
        faults = [e.kind for e in r.trace if isinstance(e, Fault)]
        assert faults.count(FaultKind.BLINDED_INSTRUCTION_FETCH) == traps
        if outcome is RunOutcome.HALTED:
            assert r.state.registers[3] == clear(2)
        else:
            assert r.state.fault is FaultKind.DECODE_ERROR and r.state.pc == 0
        assert r == fold_of_step(s, cfg, max_steps=50)

    def test_run_decodes_each_executed_address_once(self, decode_calls):
        cfg = MachineConfig(memory_words=64, cache_lines=8)
        image = assemble(next(e.source for e in curated_corpus() if e.name == "add-one-looped"))
        r = run(boot_image(image, cfg), cfg, max_steps=1000)
        fetched = [e.pc for e in r.trace if isinstance(e, Fetch)]
        assert r.outcome is RunOutcome.HALTED and len(fetched) > 2 * len(set(fetched))
        assert len(decode_calls) == len(set(fetched))


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
                w = TaggedWord(random_instruction_word(rng), rng.random() < instr_blind_p)
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
        s2 = s1.edit(memory=[(2, blinded(0x22))])
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
        assert format_trace([]) == ""

    @staticmethod
    def every_event() -> list:
        """One event of every class, every MemKind and every FaultKind
        (refused both ways), at the smallest and largest word values."""
        events = []
        for cycle, v in ((0, 0), (2**40 + 3, 2**64 - 1)):
            events += [Fetch(cycle, v, v), CacheUpdate(cycle, v, v), MmioWrite(cycle, v), Halt(cycle)]
            events += [MemAccess(cycle, kind, v) for kind in MemKind]
            events += [Fault(cycle, kind, refused) for kind in FaultKind for refused in (False, True)]
        return events

    def test_trace_lines_are_event_lines(self):
        events = self.every_event()
        lines = [format_event(e) for e in events]
        assert len(set(lines)) == len(events)
        for e, line in zip(events, lines):
            assert format_trace([e]) == line + "\n"
        assert format_trace(events) == "".join(line + "\n" for line in lines)

    def test_extreme_values(self):
        big = 2**64 - 1
        assert (
            format_event(Fetch(2**40, big, big))
            == "cycle=1099511627776 kind=fetch pc=0xffffffffffffffff word=0xffffffffffffffff"
        )
        assert format_event(MemAccess(0, MemKind.UNBLIND, 0)) == "cycle=0 kind=unblind addr=0x0"
        assert format_event(MmioWrite(0, big)) == "cycle=0 kind=mmio value=0xffffffffffffffff"

    @pytest.mark.parametrize(
        "other",
        [object(), (3, 5, 7), "cycle", type("Refetch", (Fetch,), {})(3, 5, 7)],
        ids=["object", "tuple", "str", "event-subclass"],
    )
    def test_an_unknown_object_raises_type_error(self, other):
        with pytest.raises(TypeError, match="unknown event"):
            format_event(other)
        with pytest.raises(TypeError, match="unknown event"):
            format_trace([Halt(0), other])


# One instance of each per-step record and its golden repr; a lockstep
# divergence reason embeds the events' repr.  TestTraceFormat pins the
# trace line of each event kind.
RECORDS = [
    (Fetch(3, 5, 0x3020104), "Fetch(cycle=3, pc=5, word=50462980)"),
    (MemAccess(4, MemKind.STORE, 0x23),
     "MemAccess(cycle=4, kind=<MemKind.STORE: 'store'>, address=35)"),
    (CacheUpdate(4, 3, 0x23), "CacheUpdate(cycle=4, line=3, address=35)"),
    (Fault(5, FaultKind.BLINDED_BRANCH),
     "Fault(cycle=5, kind=<FaultKind.BLINDED_BRANCH: 'blinded-branch'>, refused=False)"),
    (Fault(5, FaultKind.DECODE_ERROR, refused=True),
     "Fault(cycle=5, kind=<FaultKind.DECODE_ERROR: 'decode-error'>, refused=True)"),
    (MmioWrite(6, 0x2A), "MmioWrite(cycle=6, value=42)"),
    (Halt(7), "Halt(cycle=7)"),
    (MemoryOperation(MemKind.LOAD, 8, 2),
     "MemoryOperation(kind=<MemKind.LOAD: 'load'>, address=8, register=2)"),
    (Control.jump(64), "Control(kind=<ControlKind.JUMP: 'jump'>, target=64, fault=None)"),
    (Control.fault_handler(FaultKind.BLINDED_ADDRESS),
     "Control(kind=<ControlKind.FAULT_HANDLER: 'fault-handler'>, target=None, "
     "fault=<FaultKind.BLINDED_ADDRESS: 'blinded-address'>)"),
    (decode(0x0302_0104),
     "DecodedInstruction(opcode=<Opcode.ADD: 4>, inputs=(2, 3), outputs=(1,))"),
]
RECORD_IDS = [f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(RECORDS)]


class TestRecordContract:
    """Trace events, memory operations, controls and decoded instructions
    are immutable, hashable values whose repr never changes."""

    @pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
    def test_golden_repr(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
    def test_immutable_and_hashable(self, record, text):
        twin = type(record)(*(getattr(record, f) for f in _fields(type(record))))
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1
        for name in _fields(type(record)):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert record == twin

    def test_defaults_and_shared_controls(self):
        assert Fault(1, FaultKind.OUT_OF_RANGE).refused is False
        assert Control(ControlKind.NEXT) == Control(ControlKind.NEXT, None, None)
        assert NEXT.kind is ControlKind.NEXT and HALT_CONTROL.kind is ControlKind.HALT
        halt = DecodedInstruction(Opcode.HALT, (), ())
        assert instruction_semantics(halt, [])[2] is HALT_CONTROL
        add = DecodedInstruction(Opcode.ADD, (1, 2), (3,))
        assert instruction_semantics(add, [clear(1), clear(2)])[2] is NEXT


def _fields(kind) -> tuple[str, ...]:
    return tuple(typing.get_type_hints(kind))


def _step_events_are_ordered(events) -> None:
    """A step's events start with its fetch (or a fault before any fetch),
    so never with a cache update, and hold no second fetch."""
    assert events and type(events[0]) in (Fetch, Fault), events
    assert not any(type(e) is Fetch for e in events[1:]), events


class TestEventEqualityIsExact:
    """Events are compared with ``==`` (the lockstep's ``e1.events !=
    e2.events``), which for named tuples ignores the class.  That loses
    nothing only while Fetch and CacheUpdate are the one pair of kinds
    with equal shapes, and they never share a position in a step."""

    def test_only_fetch_and_cache_update_share_a_shape(self):
        kinds = typing.get_args(TraceEvent)
        assert len(kinds) == 6
        shapes = {}
        for kind in kinds:
            hints = typing.get_type_hints(kind)
            shapes.setdefault(tuple(hints.values()), set()).add(kind)
        shared = [group for group in shapes.values() if len(group) > 1]
        assert shared == [{Fetch, CacheUpdate}]

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("tag_logic", [True, False])
    def test_single_steps_from_random_pairs(self, mode, tag_logic):
        cfg = MachineConfig(
            mode=mode,
            memory_words=64,
            cache_lines=8,
            unblindable_ranges=((40, 48),),
            mmio_console=41,
            tag_logic=tag_logic,
        )
        seen = set()
        for seed in range(400):
            for s in generate_equivalent_pair(seed, memory_words=64, cache_lines=8):
                _, events = step(s, cfg, cycle=seed)
                _step_events_are_ordered(events)
                seen.update(map(type, events))
        assert {Fetch, MemAccess, CacheUpdate, Fault, Halt} <= seen

    @pytest.mark.parametrize("mode", list(Mode))
    def test_corpus_runs(self, mode):
        rng = random.Random(5)
        seen = set()
        for entry in curated_corpus():
            cfg = MachineConfig(
                mode=mode,
                memory_words=entry.memory_words,
                cache_lines=8,
                unblindable_ranges=entry.unblindable,
                mmio_console=entry.mmio_console,
            )
            s, _ = pair_for_program(assemble(entry.source), cfg, rng, entry.blinded_regs)
            r = run(s, cfg, max_steps=400)
            by_cycle: dict[int, list] = {}
            for e in r.trace:
                by_cycle.setdefault(e.cycle, []).append(e)
            assert sorted(by_cycle) == list(range(r.steps)), entry.name
            for events in by_cycle.values():
                _step_events_are_ordered(events)
            seen.update(map(type, r.trace))
        assert {Fetch, MemAccess, CacheUpdate, Fault, Halt} <= seen


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
