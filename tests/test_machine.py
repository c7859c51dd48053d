"""Step semantics, trace events, the direct-mapped cache, and the run driver."""

import gc
import hashlib
import random
import threading
import typing
import weakref
from dataclasses import replace

import pytest

from blindsim.assembler import assemble
from blindsim.checker import (
    check_noninterference,
    generate_equivalent_pair,
    pair_for_program,
)
from blindsim import machine
from blindsim.corpus import curated_corpus
from blindsim.isa import (
    DecodedInstruction,
    MemKind,
    MemoryOperation,
    Mode,
    Opcode,
    decode,
    encode,
    instruction_semantics,
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
    format_trace,
    run,
    step,
)
from blindsim.model import (
    REG_COUNT,
    FaultKind,
    MemoryImage,
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
from draw_reference import _instruction_word
from helpers import (
    BLND_CONSOLE,
    MMIO_REPORT,
    blindsim_calls,
    format_event,
    random_instruction,
    untagged_semantics,
)


def iw(op, ins=(), out=None):
    return encode(DecodedInstruction(op, tuple(ins), out))


HALT = iw(Opcode.HALT)


def make_state(words, regs=None, mem_size=32, pc=0):
    mem = [clear(0)] * mem_size
    for i, w in enumerate(words):
        mem[i] = w if isinstance(w, TaggedWord) else clear(w)
    return SystemState(
        pc=pc,
        registers=(clear(0),) * REG_COUNT,
        memory=MemoryImage(tuple(mem)),
        addresses=(0,) * 8,
        valid=(False,) * 8,
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
            [iw(Opcode.LOAD, (1,), 2), HALT, blinded(0x77)],
            regs={1: clear(2)},
        )
        nxt, _ = step(s, CFG)
        assert nxt.registers[2] == blinded(0x77)
        assert nxt.pc == 1

    def test_arithmetic_writes_register(self):
        s = make_state(
            [iw(Opcode.ADD, (1, 2), 3), HALT],
            regs={1: clear(4), 2: blinded(5)},
        )
        nxt, events = step(s, CFG)
        assert nxt.registers[3] == blinded(9)
        assert events == (Fetch(0, 0, iw(Opcode.ADD, (1, 2), 3)),)

    def test_decode_error_is_terminal(self):
        s = make_state([clear(0xDEADBEEF)])
        nxt, events = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.DECODE_ERROR
        assert isinstance(events[0], Fetch)
        assert events[-1] == Fault(0, FaultKind.DECODE_ERROR)

    def test_bz_blinded_condition_traps(self):
        s = make_state(
            [iw(Opcode.BZ, (1, 2)), HALT],
            regs={1: blinded(0), 2: clear(1)},
        )
        nxt, events = step(s, CFG)
        assert nxt.pc == 0 and nxt.status is Status.RUNNING
        assert events[-1] == Fault(0, FaultKind.BLINDED_BRANCH)
        assert nxt.registers == s.registers and nxt.memory == s.memory

    def test_bz_jump(self):
        s = make_state(
            [iw(Opcode.BZ, (1, 2)), HALT],
            regs={1: clear(0), 2: clear(5)},
        )
        nxt, _ = step(s, CFG)
        assert nxt.pc == 5

    def test_jump_out_of_range_faults(self):
        s = make_state(
            [iw(Opcode.BZ, (1, 2))],
            regs={1: clear(0), 2: clear(32)},
        )
        nxt, events = step(s, CFG)
        assert nxt.status is Status.FAULTED and nxt.fault is FaultKind.OUT_OF_RANGE
        assert nxt.registers == s.registers and nxt.memory == s.memory

    @pytest.mark.parametrize(
        "cond, outcome",
        [(0, RunOutcome.STEP_LIMIT), (5, RunOutcome.HALTED)],
        ids=["taken", "not-taken"],
    )
    def test_bz_output_is_dropped(self, cond, outcome):
        # bz writes no register, so an output a semantics gives it is
        # dropped, as for every other opcode without an output register.
        def bz_outputs_one(d, inputs, mode=Mode.HARDWARE):
            out, memop, control = instruction_semantics(d, inputs, mode)
            return (clear(1) if d.opcode is Opcode.BZ else out), memop, control

        # Taken, the branch jumps to itself until the step budget runs out.
        s = make_state([iw(Opcode.BZ, (1, 2)), HALT], regs={1: clear(cond), 2: clear(0)})
        result = run(s, CFG, 8, bz_outputs_one)
        assert result == run(s, CFG, 8)
        assert result.outcome is outcome and result.state.registers == s.registers

    def test_pc_increment_out_of_range_faults(self):
        s = make_state(
            [0] * 31 + [iw(Opcode.ADD, (1, 2), 3)],
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
        add = make_state([iw(Opcode.ADD, (1, 2), 3), HALT], regs={1: clear(4)})
        nxt, _ = step(add, CFG)
        assert nxt.memory is add.memory
        assert nxt.addresses is add.addresses and nxt.valid is add.valid
        assert nxt.registers[3] == clear(4)
        store = make_state([iw(Opcode.STORE, (1, 2)), HALT], regs={1: clear(0x13)})
        nxt, _ = step(store, CFG)
        assert nxt.registers is store.registers and nxt.memory is not store.memory
        trap = make_state([HALT, blinded(0)], pc=1)
        nxt, _ = step(trap, CFG)
        assert nxt.registers is trap.registers and nxt.memory is trap.memory
        assert nxt.addresses is trap.addresses and nxt.valid is trap.valid

    def test_requires_running(self):
        s = make_state([HALT])
        halted, _ = step(s, CFG)
        with pytest.raises(ValueError):
            step(halted, CFG)


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

    @pytest.mark.parametrize("address", [24, 26], ids=["console", "range"])
    def test_blnd_into_unblindable_faults(self, address):
        # A tag edit meets the store's gate before its write.
        s = make_state([iw(Opcode.BLND, (1,)), HALT], regs={1: clear(address)})
        nxt, events = step(s, self.CFG_MMIO)
        assert (nxt.status, nxt.fault) == (Status.FAULTED, FaultKind.BLINDED_STORE_TO_UNBLINDABLE)
        assert nxt.memory == s.memory
        assert events == (Fetch(0, 0, s.memory[0].value), Fault(0, FaultKind.BLINDED_STORE_TO_UNBLINDABLE))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_program_cannot_blnd_the_console_word(self, mode):
        cfg = BLND_CONSOLE.config(mode)
        result = run(boot_image(assemble(BLND_CONSOLE.source), cfg), cfg, 10)
        assert result.outcome is RunOutcome.FAULTED and result.steps == 2
        assert result.state.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE
        assert result.state.memory[48] == clear(0)
        assert result.trace[-1] == Fault(1, FaultKind.BLINDED_STORE_TO_UNBLINDABLE)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_no_step_blinds_a_word_in_an_unblindable_range(self, mode):
        # Random states whose range words are clear: whatever the step
        # does, they stay clear.  A store or a blnd there is one of the
        # draws' memory operations.
        cfg = MachineConfig(mode, 24, 4, ((20, 22),), mmio_console=20)
        for seed in range(10_000):
            s, _ = generate_equivalent_pair(seed, 24, 4)
            s = s.edit(memory=[(a, clear(s.memory[a].value)) for a in (20, 21)])
            nxt, _ = step(s, cfg)
            assert not any(w.blinded for w in nxt.memory[20:22]), seed

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

    def test_refuse_blinded_reads_only_the_window_in_each_range(self):
        # One blinded word at each address in turn: refused exactly when it
        # lies in both the window [20, 44) and a range.
        cfg = MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((40, 48), (8, 24)))
        refused = []
        for a in range(64):
            memory = [clear(a)] * 64
            memory[a] = blinded(a)
            try:
                cfg.refuse_blinded("window", memory, 20, 24)
            except ValueError as exc:
                assert str(exc) == "window [0x14, 0x2c) overlaps an unblindable range"
                refused.append(a)
        assert refused == [20, 21, 22, 23, 40, 41, 42, 43]
        MachineConfig(memory_words=64, cache_lines=8).refuse_blinded("window", [blinded(1)] * 64, 0, 64)


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


def empty_cache(lines):
    """``(addresses, valid)`` of ``lines`` cache lines, none valid."""
    return (0,) * lines, (False,) * lines


def access(cache, kind, address, mem_size=64):
    """One LOAD or STORE of ``address`` through ``step`` with the given
    cache ``(addresses, valid)``; returns the new ``(addresses, valid)``
    and the CacheUpdate events."""
    if kind is MemKind.STORE:
        instr = iw(Opcode.STORE, (1, 2))
    else:
        instr = iw(Opcode.LOAD, (1,), 2)
    addresses, valid = cache
    s = make_state([instr], regs={1: clear(address)}, mem_size=mem_size)
    s = replace(s, addresses=addresses, valid=valid)
    nxt, events = step(s, MachineConfig(memory_words=mem_size, cache_lines=len(addresses)))
    return (nxt.addresses, nxt.valid), [e for e in events if isinstance(e, CacheUpdate)]


class TestCachePolicy:
    def test_direct_mapped_example(self):
        new, updates = access(empty_cache(16), MemKind.STORE, 0x23)
        addresses, valid = new
        assert addresses[3] == 0x23 and valid[3]
        # no other line touched
        assert new == ((0,) * 3 + (0x23,) + (0,) * 12, (False,) * 3 + (True,) + (False,) * 12)
        assert updates == [CacheUpdate(0, 3, 0x23)]

    def test_same_line_overwrites(self):
        cache, first = access(empty_cache(8), MemKind.LOAD, 0x08)
        cache, second = access(cache, MemKind.STORE, 0x10)
        addresses, _ = cache
        assert addresses[0] == 0x10
        assert first == [CacheUpdate(0, 0, 0x08)] and second == [CacheUpdate(0, 0, 0x10)]

    def test_kind_agnostic(self):
        cache = empty_cache(8)
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
        valid = (False, lower_valid, False, True, False, False, False, False)
        cache = (0, 0x0B, 0, home_address, 0, 0, 0, 0), valid
        new, updates = access(cache, MemKind.LOAD, 0x0B)
        assert new == ((0, 0x0B, 0, 0x0B, 0, 0, 0, 0), valid)
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
            [iw(Opcode.ADD, (1, 2), 3), HALT],
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
            [HALT, iw(Opcode.BZ, (1, 2))],
            regs={1: blinded(0)},
            pc=1,
        )
        r = run(s, CFG, max_steps=10)
        assert r.outcome is RunOutcome.HALTED
        assert Fault(0, FaultKind.BLINDED_BRANCH) in r.trace

    def test_step_limit(self):
        # bz r0, r0 with r0 = 0 jumps to 0 forever
        s = make_state([iw(Opcode.BZ, (0, 0))])
        r = run(s, CFG, max_steps=17)
        assert r.outcome is RunOutcome.STEP_LIMIT and r.steps == 17

    @pytest.mark.parametrize(
        "max_steps, outcome",
        [(1, RunOutcome.STEP_LIMIT), (2, RunOutcome.HALTED), (3, RunOutcome.HALTED)],
    )
    def test_halt_on_the_last_allowed_step(self, max_steps, outcome):
        s = make_state([iw(Opcode.ADD, (1, 2), 3), HALT])
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
            TaggedWord(_instruction_word(rng.getrandbits), rng.random() < 0.1)
            if rng.random() < 0.7
            else random_word(rng, blind_p=0.2)
            for _ in range(32)
        )
        regs = tuple(random_word(rng, blind_p=0.3) for _ in range(32))
        s = SystemState(
            pc=rng.randrange(32),
            registers=regs,
            memory=MemoryImage(mem),
            addresses=(0,) * 8,
            valid=(False,) * 8,
        )
        mode = rng.choice([Mode.MODEL, Mode.HARDWARE])
        cfg = MachineConfig(mode=mode, memory_words=32, cache_lines=8)
        return run(s, cfg, max_steps=64)

    def test_max_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            run(make_state([HALT]), CFG, max_steps=0)

    def test_input_state_is_left_unchanged(self):
        program = [iw(Opcode.STORE, (1, 2)), iw(Opcode.LOAD, (1,), 3), HALT]
        regs = {1: clear(0x13), 2: blinded(7)}
        s = make_state(program, regs=regs)
        r = run(s, CFG, max_steps=10)
        assert r.state.memory[0x13] == blinded(7) and r.state.registers[3] == blinded(7)
        assert s == make_state(program, regs=regs)

    def test_control_trap_at_zero_fault_loops(self):
        # bz r1, r2 at pc 0 with a blinded condition traps back to itself
        s = make_state([iw(Opcode.BZ, (1, 2))], regs={1: blinded(0)})
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
            [iw(Opcode.ADD, (3, 4), 5), iw(Opcode.BZ, (1, 2))],
            regs={1: blinded(0)},
            pc=1,
        )
        r = run(s, CFG, max_steps=9)
        assert r.outcome is RunOutcome.STEP_LIMIT and r.steps == 9
        assert sum(isinstance(e, Fault) for e in r.trace) == 5


ADDS = [iw(Opcode.ADD, (1, 2), 3)] * 5 + [HALT]


class TestRangeCheckAtTheEndOfMemory:
    """A fall-through leaves memory only past its last word, and a jump
    target gets the full range check, through ``run`` and through the
    lockstep harness.  The check is the machine's, not the policy's, so it
    holds alike under the plain ISA (``helpers.untagged_semantics``)."""

    # Seven steps load r5 = 1 (a nonzero condition), r4 = 20 (a clear
    # address) and r7 = the target, then jump there with ``bz r0, r7`` at
    # word 7; ``body`` is placed at ``.org``.
    PROGRAM = """
.entry start
.word pool
start:
    load r9, r0
    load r5, r9
    add r9, r9, r5
    load r4, r9
    add r9, r9, r5
    load r7, r9
    bz r0, r7
pool:
    .word 1
    .word 20
    .word {target}
.org {target}
{body}
"""
    PROLOGUE_STEPS = 7
    # Each non-jump shape; r2 is the one register the harness blinds.
    SHAPES = {
        "add": "add r3, r5, r2",
        "load": "load r3, r4",
        "store": "store r4, r2",
        "blnd": "blnd r4",
        "bz-not-taken": "bz r5, r4",
    }

    CONFIGS = [MachineConfig(mode=mode, memory_words=32, cache_lines=8) for mode in Mode]
    SEMANTICS = pytest.mark.parametrize(
        "semantics", [instruction_semantics, untagged_semantics], ids=["tags", "no-tags"]
    )

    @staticmethod
    def checked(image, cfg, semantics):
        """Semantics calls per side per trial of a passing harness check.
        The plain ISA reads a blinded word's payload, so r2 is blinded
        only under the policy."""
        calls = []

        def counted(d, inputs, mode):
            calls.append(d)
            return semantics(d, inputs, mode)

        result = check_noninterference(
            image, trials=4, steps=50, cfg=cfg, seed=1, semantics=counted,
            blinded_regs=(2,) if semantics is instruction_semantics else (),
        )
        assert result.passed and result.trials == 4
        assert len(calls) % 8 == 0
        return len(calls) // 8

    def image(self, target, body):
        return assemble(self.PROGRAM.format(target=target, body=body))

    @SEMANTICS
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_a_non_jump_in_the_last_word_faults(self, shape, semantics):
        image = self.image(31, shape)
        word = image.segments[-1].words[0].value
        n = self.PROLOGUE_STEPS + 1
        for cfg in self.CONFIGS:
            r = run(boot_image(image, cfg), cfg, max_steps=50, semantics=semantics)
            assert r.outcome is RunOutcome.FAULTED and r.steps == n
            assert r.trace[-2:] == (Fetch(n - 1, 31, word), Fault(n - 1, FaultKind.OUT_OF_RANGE))
            assert r.state.pc == 31 and r.state.fault is FaultKind.OUT_OF_RANGE
            assert r.state.registers[3] == clear(0) and r.state.memory[20] == clear(0)
            assert self.checked(image, cfg, semantics) == n

    @SEMANTICS
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_a_non_jump_in_the_word_before_falls_through(self, shape, semantics):
        image = self.image(30, f"{shape}\nhalt")
        n = self.PROLOGUE_STEPS + 2
        for cfg in self.CONFIGS:
            r = run(boot_image(image, cfg), cfg, max_steps=50, semantics=semantics)
            assert r.outcome is RunOutcome.HALTED and r.steps == n
            assert r.trace[-2:] == (Fetch(n - 1, 31, HALT), Halt(n - 1))
            assert self.checked(image, cfg, semantics) == n

    @SEMANTICS
    @pytest.mark.parametrize(
        "target, outcome, steps",
        [(32, RunOutcome.FAULTED, PROLOGUE_STEPS), (31, RunOutcome.HALTED, PROLOGUE_STEPS + 1)],
        ids=["to-memory-words", "to-the-last-word"],
    )
    def test_a_jump_to_the_end_of_memory(self, target, outcome, steps, semantics):
        image = self.image(target, "halt" if target < 32 else "")
        for cfg in self.CONFIGS:
            r = run(boot_image(image, cfg), cfg, max_steps=50, semantics=semantics)
            assert r.outcome is outcome and r.steps == steps
            if outcome is RunOutcome.FAULTED:
                assert r.trace[-1] == Fault(steps - 1, FaultKind.OUT_OF_RANGE)
                assert r.state.pc == 7 and r.state.fault is FaultKind.OUT_OF_RANGE
            else:
                assert r.trace[-2:] == (Fetch(steps - 1, 31, HALT), Halt(steps - 1))
            assert self.checked(image, cfg, semantics) == steps


class TestCallBudgetPerStep:
    """A step makes a pinned number of Python-level calls: each step calls
    :meth:`ListMachine.step` and the semantics; nothing else, an ALU
    instruction included (its ``ALU`` entry is a C function and its word
    is built inline).  A helper frame added to the hot path changes a
    count here, not only a timing."""

    # (program, calls per loop iteration): each loop is one instruction,
    # then ``bz r0, r5`` back to word 0 (r0 = r5 = 0) but for the bz loop,
    # which jumps to itself.  r1 = 20 is a clear address, r2 = 7.
    LOOPS = {
        "alu": ([iw(Opcode.ADD, (3, 2), 3)], 4),
        "load": ([iw(Opcode.LOAD, (1,), 3)], 4),
        "store": ([iw(Opcode.STORE, (1, 2))], 4),
        "bz": ([], 2),
    }
    ITERATIONS = 50

    @staticmethod
    def calls(s, n_steps):
        """Calls into blindsim during one run: a finalizer that the
        collector runs before ``run`` turns it off is not counted."""
        r = run(s, CFG, n_steps)
        assert r.outcome is RunOutcome.STEP_LIMIT and r.steps == n_steps
        return blindsim_calls(run, s, CFG, n_steps)

    @pytest.mark.parametrize("name", LOOPS)
    def test_calls_per_iteration_are_pinned(self, name):
        body, pinned = self.LOOPS[name]
        s = make_state(body + [iw(Opcode.BZ, (0, 5))], regs={1: clear(20), 2: clear(7)})
        # Two budgets of whole iterations: the difference leaves out
        # what a run pays once (the machine, the first decodes, the result).
        n = self.ITERATIONS * (len(body) + 1)
        extra = self.calls(s, 2 * n) - self.calls(s, n)
        assert extra == pinned * self.ITERATIONS


class _CollectorWatch:
    """A semantics that records whether the cyclic collector is on at
    each call, and raises at call ``raise_at`` if one is given."""

    def __init__(self, raise_at=None):
        self.seen = []
        self.raise_at = raise_at

    def __call__(self, d, inputs, mode):
        self.seen.append(gc.isenabled())
        if len(self.seen) == self.raise_at:
            raise RuntimeError("semantics failed")
        return instruction_semantics(d, inputs, mode)


@pytest.fixture
def collector_setting():
    """Gives the test the collector to set as it likes, and puts the
    setting it had back afterwards."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if enabled else gc.disable)()


class _Node:
    pass


class _CycleMaker:
    """A semantics that builds one reference cycle a call and keeps only a
    weak reference to it."""

    def __init__(self):
        self.refs = []
        self.alive_at_call = []

    def __call__(self, d, inputs, mode):
        self.alive_at_call.append(sum(r() is not None for r in self.refs))
        cycle = _Node()
        cycle.me = cycle
        self.refs.append(weakref.ref(cycle))
        return instruction_semantics(d, inputs, mode)


@pytest.mark.usefixtures("collector_setting")
class TestRunSuspendsTheCollector:
    """``run`` steps with the cyclic collector off and gives the caller's
    setting back; ``step`` and the lockstep harness leave it alone."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_the_collector_is_off_for_every_step(self, enabled):
        (gc.enable if enabled else gc.disable)()
        watch = _CollectorWatch()
        r = run(make_state(ADDS), CFG, max_steps=100)
        assert run(make_state(ADDS), CFG, max_steps=100, semantics=watch) == r
        assert watch.seen == [False] * 6
        assert gc.isenabled() is enabled

    def test_a_raising_semantics_restores_the_collector(self):
        gc.enable()
        watch = _CollectorWatch(raise_at=3)
        with pytest.raises(RuntimeError, match="semantics failed"):
            run(make_state(ADDS), CFG, max_steps=100, semantics=watch)
        assert watch.seen == [False] * 3
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "s, max_steps",
        [(make_state(ADDS), 0), (make_state(ADDS, mem_size=64), 10)],
        ids=["no-step-budget", "state-too-large"],
    )
    def test_a_refused_call_leaves_the_collector_alone(self, monkeypatch, s, max_steps):
        calls = []

        class Recorder:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(gc, name)

        monkeypatch.setattr(machine, "gc", Recorder())
        with pytest.raises(ValueError):
            run(s, CFG, max_steps=max_steps)
        assert calls == []
        run(make_state(ADDS), CFG, max_steps=10)
        assert calls == ["isenabled", "disable", "enable"]

    def test_a_run_inside_another_threads_run_leaves_the_collector_off(self):
        gc.enable()
        inner, outer_watch = _CollectorWatch(), _CollectorWatch()
        threads = []

        def outer(d, inputs, mode):
            # The first step runs a whole run in another thread.
            if not threads:
                threads.append(threading.Thread(
                    target=run, args=(make_state(ADDS), CFG, 100), kwargs={"semantics": inner},
                ))
                threads[0].start()
                threads[0].join(timeout=10)
                assert not threads[0].is_alive()
            return outer_watch(d, inputs, mode)

        run(make_state(ADDS), CFG, max_steps=100, semantics=outer)
        assert inner.seen == outer_watch.seen == [False] * 6
        assert gc.isenabled()

    def test_step_and_the_lockstep_harness_keep_the_collector_on(self):
        gc.enable()
        watch = _CollectorWatch()
        s = make_state(ADDS)
        for cycle in range(6):
            s, _ = step(s, CFG, cycle=cycle, semantics=watch)
        image = assemble("add r3, r1, r2\nhalt\n")
        result = check_noninterference(image, trials=5, steps=4, cfg=CFG, semantics=watch)
        assert result.passed
        assert len(watch.seen) > 6 and all(watch.seen)

    def test_cycles_a_semantics_makes_are_collected_after_the_run(self):
        gc.enable()
        maker = _CycleMaker()
        run(make_state(ADDS), CFG, max_steps=100, semantics=maker)
        # Deferred, not collected mid-run: every earlier cycle was alive.
        assert maker.alive_at_call == list(range(6))
        gc.collect()
        assert len(maker.refs) == 6 and all(r() is None for r in maker.refs)


class TestStateMustFitConfig:
    """``run`` and ``step`` take a machine's sizes from its config; a
    state of other sizes ran on its own sizes, and one with no cache line
    crashed at its first load with ZeroDivisionError."""

    CFG = MachineConfig(memory_words=64, cache_lines=8)
    CASES = ["no cache line", "4 of 8 cache lines", "16 of 64 words", "4 registers"]

    @staticmethod
    def misfit(case: str) -> SystemState:
        s = SystemState.initial(64, 8)
        return {
            "no cache line": replace(s, addresses=(), valid=()),
            "4 of 8 cache lines": SystemState.initial(64, 4),
            "16 of 64 words": SystemState.initial(16, 8),
            "4 registers": replace(s, registers=s.registers[:4]),
        }[case].edit(memory=[(0, clear(iw(Opcode.LOAD, (1,), 2)))])

    @pytest.mark.parametrize("case", CASES)
    def test_run_and_step_refuse(self, case):
        s = self.misfit(case)
        with pytest.raises(ValueError, match="does not fit"):
            run(s, self.CFG, 3)
        with pytest.raises(ValueError, match="does not fit"):
            step(s, self.CFG)


def fold_of_step(s, cfg, max_steps, semantics=instruction_semantics):
    """Reference ``run``: a fold of the copying :func:`step`, with the
    trap-loop rule stated over whole states."""
    trace = []
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
    outcome = {Status.HALTED: RunOutcome.HALTED, Status.FAULTED: RunOutcome.FAULTED}
    return RunResult(s, tuple(trace), outcome.get(s.status, RunOutcome.STEP_LIMIT), n)


class TestRunMatchesStepFold:
    """``run`` commits in place; a fold of ``step`` copies.  Both must give
    the same final state, trace, outcome and step count, under the policy
    and under the plain ISA (``helpers.untagged_semantics``)."""

    CONFIGS = [dict(mode=mode) for mode in Mode]

    @staticmethod
    def random_config(options) -> MachineConfig:
        """The machine of the random 64-word states: two unblindable
        ranges, the console in the first."""
        return MachineConfig(
            memory_words=64, cache_lines=8, unblindable_ranges=((40, 48), (60, 62)), mmio_console=41, **options
        )

    SEMANTICS = pytest.mark.parametrize(
        "semantics", [instruction_semantics, untagged_semantics], ids=["tags", "no-tags"]
    )

    @SEMANTICS
    @pytest.mark.parametrize("options", CONFIGS, ids=lambda o: "-".join(map(str, o.values())))
    def test_random_states(self, options, semantics):
        cfg = self.random_config(options)
        outcomes = set()
        for seed in range(60):
            s, _ = generate_equivalent_pair(seed, memory_words=64, cache_lines=8)
            r = run(s, cfg, max_steps=120, semantics=semantics)
            assert r == fold_of_step(s, cfg, max_steps=120, semantics=semantics), seed
            outcomes.add(r.outcome)
        assert len(outcomes) >= 2

    @SEMANTICS
    @pytest.mark.parametrize("options", CONFIGS, ids=lambda o: "-".join(map(str, o.values())))
    def test_corpus_programs(self, options, semantics):
        rng = random.Random(41)
        for entry in curated_corpus():
            cfg = entry.config(**options)
            s, _ = pair_for_program(assemble(entry.source), cfg, rng, entry.blinded_regs)
            r = run(s, cfg, max_steps=400, semantics=semantics)
            assert r == fold_of_step(s, cfg, max_steps=400, semantics=semantics), entry.name


def _pinned_runs():
    """(state, config, step budget) for both sides of seeded 64-word pairs
    and of the pair of every corpus program and of ``MMIO_REPORT`` (no
    corpus entry has a console), under each of TestRunMatchesStepFold's
    configs; together they reach every event kind."""
    images = [(entry, assemble(entry.source)) for entry in (*curated_corpus(), MMIO_REPORT)]
    for options in TestRunMatchesStepFold.CONFIGS:
        cfg = TestRunMatchesStepFold.random_config(options)
        for seed in range(100):
            for s in generate_equivalent_pair(seed, memory_words=64, cache_lines=8):
                yield s, cfg, 120
        rng = random.Random(41)
        for entry, image in images:
            cfg = entry.config(**options)
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
            "76404ac4d8c46687c6a072c9e3b045aa9c65402dddfeacb1057b2d3c1e27f0fc"
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
        # step makes at most one write of each kind, and a step that stops
        # makes none.
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
                events, register_write, memory_write, line_write = out
                for e in events:
                    _whole(e, kinds)
                if register_write is not None:
                    i, w = register_write
                    registers[i] = w
                if memory_write is not None:
                    a, w = memory_write
                    memory[a] = w
                if line_write is not None:
                    line, a = line_write
                    addresses[line], valid[line] = a, True
                assert (m.registers, m.memory) == (registers, memory)
                assert (m.addresses, m.valid) == (addresses, valid)
                if m.status is not Status.RUNNING or type(events[-1]) is Fault:
                    assert (register_write, memory_write, line_write) == (None, None, None)
                steps += 1
        assert steps > 10_000

    @pytest.mark.parametrize("mode", list(Mode))
    def test_semantics_of_random_instructions(self, mode):
        # The control takes each of its four forms, and no other.
        rng = random.Random(14)
        controls, memops = set(), set()
        for _ in range(5000):
            d = random_instruction(rng)
            inputs = [
                TaggedWord(rng.choice((0, 1, 9, rng.getrandbits(64))), rng.random() < 0.3)
                for _ in d.inputs
            ]
            _, op, control = instruction_semantics(d, inputs, mode)
            if op is not None:
                _whole(op, {MemoryOperation})
                memops.add(op.kind)
            if control is None:
                controls.add("next")
            elif type(control) is int:
                controls.add("jump")
            elif control is Status.HALTED:
                controls.add("halt")
            else:
                assert type(control) is FaultKind, control
                controls.add("trap")
        assert controls == {"next", "jump", "trap", "halt"} and memops == set(MemKind)


class TestDecodeSlot:
    """``run`` decodes a word once per address and reuses it while the
    fetched word is unchanged; a changed or blinded word is never served
    from the slot."""

    def test_self_modifying_code_runs_the_new_instruction(self):
        # Word 1 is an add; the loop stores an xor over it and jumps back.
        # The xor sets r7, so the branch at 3 falls through to the halt.
        xor = iw(Opcode.XOR, (7, 4), 7)
        prog = [
            iw(Opcode.LOAD, (5,), 1),
            iw(Opcode.ADD, (3, 4), 3),
            iw(Opcode.STORE, (6, 1)),
            iw(Opcode.BZ, (7, 6)),
            HALT,
        ]
        s = make_state(prog + [0] * 15 + [xor], regs={4: clear(1), 5: clear(20), 6: clear(1)})
        r = run(s, CFG, max_steps=50)
        assert r.outcome is RunOutcome.HALTED
        assert r.state.registers[3] == clear(1) and r.state.registers[7] == clear(1)
        assert [e.word for e in r.trace if isinstance(e, Fetch) and e.pc == 1] == [prog[1], xor]
        assert r == fold_of_step(s, CFG, max_steps=50)

    # Word 1 adds one to r3 and is then blinded by the blnd at 4; the jump
    # back fetches it blinded, so it traps to the handler at 0.  A handler
    # that stores the clear add word (r12) back over word 1 lets its slot
    # serve it again: the second add makes r3 == 2 and the branch at 3 goes
    # to the halt.  An rblnd handler is refused.
    ADD = iw(Opcode.ADD, (3, 4), 3)
    BLINDED_AFTER_DECODE = [
        ADD,
        iw(Opcode.SUB, (3, 10), 9),
        iw(Opcode.BZ, (9, 11)),
        iw(Opcode.BLND, (6,)),
        iw(Opcode.BZ, (7, 6)),
        HALT,
    ]
    REGS = {4: clear(1), 6: clear(1), 10: clear(2), 11: clear(6), 12: clear(ADD)}
    RESTORE, RBLND = iw(Opcode.STORE, (6, 12)), iw(Opcode.RBLND, (6,))

    # Under the plain ISA the blnd at 4 edits nothing, so word 1 is never
    # blinded: the jump back runs it from its slot without a trap.
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "semantics, handler, outcome, traps",
        [
            pytest.param(instruction_semantics, RESTORE, RunOutcome.HALTED, 1, id="store-runs-it-again"),
            pytest.param(instruction_semantics, RBLND, RunOutcome.FAULTED, 1, id="rblnd-refused"),
            pytest.param(untagged_semantics, RBLND, RunOutcome.HALTED, 0, id="no-tag-logic"),
        ],
    )
    def test_word_blinded_after_decode_traps(self, mode, semantics, handler, outcome, traps):
        cfg = MachineConfig(mode=mode, memory_words=32, cache_lines=8)
        s = make_state([handler, *self.BLINDED_AFTER_DECODE], regs=self.REGS, pc=1)
        r = run(s, cfg, max_steps=50, semantics=semantics)
        assert r.outcome is outcome
        faults = [e.kind for e in r.trace if isinstance(e, Fault)]
        assert faults.count(FaultKind.BLINDED_INSTRUCTION_FETCH) == traps
        if outcome is RunOutcome.HALTED:
            assert r.state.registers[3] == clear(2)
        else:
            assert r.state.fault is FaultKind.DECODE_ERROR and r.state.pc == 0
        assert r == fold_of_step(s, cfg, max_steps=50, semantics=semantics)

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
                w = TaggedWord(_instruction_word(rng.getrandbits), rng.random() < instr_blind_p)
            else:
                w = random_word(rng, blind_p=0.35)
            mem1.append(w)
            mem2.append(twin_word(rng, w))
        regs1 = [random_word(rng, blind_p=0.35) for _ in range(32)]
        regs2 = [twin_word(rng, w) for w in regs1]
        addresses = tuple(rng.randrange(mem_size) for _ in range(lines))
        valid = tuple(rng.random() < 0.5 for _ in range(lines))
        pc = rng.randrange(mem_size)
        s1 = SystemState(pc, tuple(regs1), MemoryImage(tuple(mem1)), addresses, valid)
        s2 = SystemState(pc, tuple(regs2), MemoryImage(tuple(mem2)), addresses, valid)
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
# trace line of each event kind.  Each case carries its own id, so adding
# or deleting a record renames no other case.
RECORDS = [
    pytest.param(Fetch(3, 5, 0x3020104), "Fetch(cycle=3, pc=5, word=50462980)", id="Fetch-0"),
    pytest.param(MemAccess(4, MemKind.STORE, 0x23),
                 "MemAccess(cycle=4, kind=<MemKind.STORE: 'store'>, address=35)", id="MemAccess-1"),
    pytest.param(CacheUpdate(4, 3, 0x23), "CacheUpdate(cycle=4, line=3, address=35)",
                 id="CacheUpdate-2"),
    pytest.param(Fault(5, FaultKind.BLINDED_BRANCH),
                 "Fault(cycle=5, kind=<FaultKind.BLINDED_BRANCH: 'blinded-branch'>, refused=False)",
                 id="Fault-3"),
    pytest.param(Fault(5, FaultKind.DECODE_ERROR, refused=True),
                 "Fault(cycle=5, kind=<FaultKind.DECODE_ERROR: 'decode-error'>, refused=True)",
                 id="Fault-4"),
    pytest.param(MmioWrite(6, 0x2A), "MmioWrite(cycle=6, value=42)", id="MmioWrite-5"),
    pytest.param(Halt(7), "Halt(cycle=7)", id="Halt-6"),
    pytest.param(MemoryOperation(MemKind.LOAD, 8, 2),
                 "MemoryOperation(kind=<MemKind.LOAD: 'load'>, address=8, register=2)",
                 id="MemoryOperation-7"),
    pytest.param(decode(0x0302_0104),
                 "DecodedInstruction(opcode=<Opcode.ADD: 4>, inputs=(2, 3), output=1)",
                 id="DecodedInstruction-8"),
]


class TestRecordContract:
    """Trace events, memory operations and decoded instructions are
    immutable, hashable values whose repr never changes."""

    @pytest.mark.parametrize("record, text", RECORDS)
    def test_golden_repr(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record, text", RECORDS)
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
        halt = DecodedInstruction(Opcode.HALT, (), None)
        assert instruction_semantics(halt, [])[2] is Status.HALTED
        add = DecodedInstruction(Opcode.ADD, (1, 2), 3)
        assert instruction_semantics(add, [clear(1), clear(2)])[2] is None


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
    @pytest.mark.parametrize(
        "semantics", [instruction_semantics, untagged_semantics], ids=["tags", "no-tags"]
    )
    def test_single_steps_from_random_pairs(self, mode, semantics):
        cfg = MachineConfig(
            mode=mode,
            memory_words=64,
            cache_lines=8,
            unblindable_ranges=((40, 48),),
            mmio_console=41,
        )
        seen = set()
        for seed in range(400):
            for s in generate_equivalent_pair(seed, memory_words=64, cache_lines=8):
                _, events = step(s, cfg, cycle=seed, semantics=semantics)
                _step_events_are_ordered(events)
                seen.update(map(type, events))
        assert {Fetch, MemAccess, CacheUpdate, Fault, Halt} <= seen

    @pytest.mark.parametrize("mode", list(Mode))
    def test_corpus_runs(self, mode):
        rng = random.Random(5)
        seen = set()
        for entry in curated_corpus():
            cfg = entry.config(mode)
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
    """A program with no blinded word runs under the tag policy as under
    the plain ISA (``helpers.untagged_semantics``)."""

    def test_blinded_operands_do_not_taint(self):
        # The reference reads payloads only, and its every output is clear.
        s = make_state(
            [iw(Opcode.ADD, (1, 2), 3), HALT],
            regs={1: blinded(4), 2: clear(5)},
        )
        nxt, _ = step(s, CFG, semantics=untagged_semantics)
        assert nxt.registers[3] == clear(9)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "words, expected",
        [
            pytest.param([iw(Opcode.BLND, (1,)), HALT, clear(0x55)], clear(0x55), id="blnd-no-tag-edit"),
            pytest.param([iw(Opcode.RBLND, (1,)), HALT, blinded(0x55)], blinded(0x55), id="rblnd-not-refused"),
        ],
    )
    def test_tag_edits_do_not_apply(self, mode, words, expected):
        # The policy refuses every rblnd; the plain ISA has no tag edit to
        # refuse.
        cfg = MachineConfig(mode=mode, memory_words=32, cache_lines=8)
        nxt, events = step(make_state(words, regs={1: clear(2)}), cfg, semantics=untagged_semantics)
        assert nxt.status is Status.RUNNING and nxt.pc == 1
        assert events == (Fetch(0, 0, words[0]),)
        assert nxt.memory[2] == expected

    def test_taint_free_program_matches_policy_machine(self):
        prog = [
            iw(Opcode.ADD, (1, 2), 3),
            iw(Opcode.STORE, (4, 3)),
            iw(Opcode.LOAD, (4,), 5),
            HALT,
        ]
        regs = {1: clear(3), 2: clear(4), 4: clear(10)}
        s = make_state(prog, regs=regs)
        r_policy = run(s, CFG, max_steps=20)
        r_ref = run(s, CFG, max_steps=20, semantics=untagged_semantics)
        assert format_trace(r_policy.trace) == format_trace(r_ref.trace)
        assert r_policy.state == r_ref.state
