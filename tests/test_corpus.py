"""Functional checks of the curated programs against Python oracles."""

import random

from blindsim.assembler import assemble
from blindsim.corpus import (
    CorpusEntry,
    add_one_pipeline,
    add_one_unrolled,
    blinded_branch_fault,
    blinded_fetch_loop,
    blinded_fetch_trap,
    blinded_load_fault,
    blinded_store_unblindable_fault,
    branchless_select,
    compare_accumulate,
    curated_corpus,
    rblnd_refused,
)
from blindsim.machine import Fault, MachineConfig, Mode, RunOutcome, boot_image, run
from blindsim.model import MASK64, FaultKind, blinded

from helpers import MMIO_REPORT


def run_program(program, mode=Mode.HARDWARE, regs=None, max_steps=500):
    """Run ``program``, a corpus entry or a source text, on the machine
    the entry expects; a source text gets an entry's defaults."""
    entry = program if isinstance(program, CorpusEntry) else CorpusEntry("", program)
    cfg = entry.config(mode)
    s = boot_image(assemble(entry.source), cfg).edit(registers=list((regs or {}).items()))
    return run(s, cfg, max_steps)


class TestSelect:
    def test_exhaustive_4bit(self):
        # every (mask, a, b) over 4-bit values, against the Python oracle
        for m in range(16):
            src = branchless_select(mask=m)
            for a in range(16):
                for b in range(16):
                    r = run_program(
                        src, regs={1: blinded(a), 2: blinded(b)}
                    )
                    assert r.outcome is RunOutcome.HALTED
                    expected = (a & m) ^ (b & (~m & MASK64))
                    out = r.state.registers[3]
                    assert out.blinded and out.value == expected, (m, a, b)

    def test_result_stored_blinded(self):
        src = branchless_select(mask=0xFF)
        r = run_program(src, regs={1: blinded(0xAB), 2: blinded(0xCD)})
        stored = [w for w in r.state.memory if w.blinded and w.value == 0xAB]
        assert stored, "selected value must land in memory, still blinded"

    def test_mask_zero_selects_b(self):
        r = run_program(
            branchless_select(mask=0), regs={1: blinded(5), 2: blinded(9)}
        )
        assert r.state.registers[3].value == 9


class TestCompareAccumulate:
    def test_equal_arrays_accumulate_zero(self):
        r = run_program(compare_accumulate(xs=(3, 5, 7, 9), ys=(3, 5, 7, 9)))
        assert r.outcome is RunOutcome.HALTED
        acc = r.state.registers[1]
        assert acc.blinded and acc.value == 0

    def test_unequal_arrays_accumulate_nonzero(self):
        r = run_program(compare_accumulate(xs=(3, 5, 7, 9), ys=(3, 5, 8, 9)))
        acc = r.state.registers[1]
        assert acc.blinded and acc.value != 0

    def test_oracle_randomized(self):
        rng = random.Random(42)
        for _ in range(20):
            xs = tuple(rng.getrandbits(16) for _ in range(4))
            ys = tuple(rng.getrandbits(16) for _ in range(4))
            r = run_program(compare_accumulate(xs=xs, ys=ys))
            expected = 0
            for x, y in zip(xs, ys):
                expected |= x ^ y
            assert r.state.registers[1].value == expected


class TestAddOne:
    def test_looped_pipeline(self):
        values = (10, 20, 30, 0xFFFFFFFFFFFFFFFF)
        r = run_program(add_one_pipeline(n=4, values=values), max_steps=500)
        assert r.outcome is RunOutcome.HALTED
        got = [w.value for w in r.state.memory if w.blinded]
        for v in values:
            assert (v + 1) & MASK64 in got

    def test_unrolled_pipeline(self):
        # The data words 1, 2, 3 stay; the result words after them become
        # blinded 2, 3, 4.
        r = run_program(add_one_unrolled())
        assert r.outcome is RunOutcome.HALTED
        assert [w.value for w in r.state.memory if w.blinded] == [1, 2, 3, 2, 3, 4]

    def test_results_are_blinded(self):
        r = run_program(add_one_unrolled())
        results = [w for w in r.state.memory if w.blinded and w.value in (2, 3, 4)]
        assert len(results) >= 3


class TestFaultPrograms:
    def test_blinded_branch(self):
        r = run_program(blinded_branch_fault())
        assert r.outcome is RunOutcome.FAULTED
        kinds = [e.kind for e in r.trace if isinstance(e, Fault)]
        assert FaultKind.BLINDED_BRANCH in kinds

    def test_blinded_load_hardware(self):
        r = run_program(blinded_load_fault(), mode=Mode.HARDWARE)
        kinds = [e.kind for e in r.trace if isinstance(e, Fault)]
        assert FaultKind.BLINDED_ADDRESS in kinds

    def test_blinded_load_model_halts(self):
        r = run_program(blinded_load_fault(), mode=Mode.MODEL)
        assert r.outcome is RunOutcome.HALTED
        assert not any(isinstance(e, Fault) for e in r.trace)

    def test_blinded_store_unblindable(self):
        r = run_program(
            CorpusEntry("", blinded_store_unblindable_fault(), unblindable=((48, 52),))
        )
        assert r.outcome is RunOutcome.FAULTED
        assert r.state.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE

    def test_blinded_fetch_traps_then_halts(self):
        r = run_program(blinded_fetch_trap())
        assert r.outcome is RunOutcome.HALTED
        kinds = [e.kind for e in r.trace if isinstance(e, Fault)]
        assert kinds == [FaultKind.BLINDED_INSTRUCTION_FETCH]

    def test_fetch_loop(self):
        r = run_program(blinded_fetch_loop())
        assert r.outcome is RunOutcome.FAULT_LOOP

    def test_rblnd_refused(self):
        r = run_program(rblnd_refused())
        assert r.outcome is RunOutcome.FAULTED
        assert r.state.fault is FaultKind.DECODE_ERROR
        assert any(isinstance(e, Fault) and e.refused for e in r.trace)

    def test_mmio_report_faults_honestly(self):
        r = run_program(MMIO_REPORT, max_steps=100)
        # data at 32 is clear zero here; store succeeds with a clear value
        assert r.outcome is RunOutcome.HALTED

    def test_mmio_report_with_blinded_data_faults(self):
        cfg = MMIO_REPORT.config(Mode.HARDWARE)
        s = boot_image(assemble(MMIO_REPORT.source), cfg).edit(memory=[(32, blinded(5))])
        r = run(s, cfg, 100)
        assert r.outcome is RunOutcome.FAULTED
        assert r.state.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE


class TestCorpusRegistry:
    def test_everything_assembles(self):
        for entry in curated_corpus():
            image = assemble(entry.source)  # no diagnostics
            assert image.word_count() > 0

    def test_safe_entries_halt(self):
        for entry in curated_corpus():
            if not entry.safe:
                continue
            regs = {i: blinded(3) for i in entry.blinded_regs}
            r = run_program(entry, regs=regs)
            assert r.outcome is RunOutcome.HALTED, entry.name

    def test_unsafe_entries_do_not_halt_cleanly(self):
        for entry in curated_corpus():
            if entry.safe:
                continue
            r = run_program(entry)
            faulted = r.outcome in (RunOutcome.FAULTED, RunOutcome.FAULT_LOOP)
            trapped = any(isinstance(e, Fault) for e in r.trace)
            assert faulted or trapped, entry.name

    def test_an_entry_builds_the_machine_it_expects(self):
        entry = CorpusEntry("c", "", unblindable=((48, 52),), mmio_console=48, memory_words=128)
        for mode in Mode:
            assert entry.config(mode) == MachineConfig(mode, 128, 8, ((48, 52),), 48)
