"""Static analysis verdicts, witness replay, and the lockstep harness."""

import random
from dataclasses import replace

import pytest

from blindsim.assembler import assemble
from blindsim.checker import (
    SigTag,
    TaintSignature,
    Verdict,
    analyze,
    check_noninterference,
    generate_equivalent_pair,
    pair_for_program,
    parse_signature,
    rerandomize_blinded,
    signature_state,
)
from blindsim.corpus import (
    add_one_pipeline,
    add_one_unrolled,
    blinded_branch_fault,
    blinded_load_fault,
    blinded_store_unblindable_fault,
    branchless_select,
    compare_accumulate,
    curated_corpus,
    rblnd_refused,
    trivial_halt,
)
from blindsim.isa import Mode, Opcode, instruction_semantics
from blindsim.machine import Fault, MachineConfig, run, step
from blindsim.model import FaultKind, Status, TaggedWord, state_equiv

import mutants

HW = MachineConfig(memory_words=64, cache_lines=8)
MODEL = MachineConfig(mode=Mode.MODEL, memory_words=64, cache_lines=8)
EMPTY_SIG = TaintSignature()


class TestAnalyzeVerdicts:
    def test_branchless_select_compliant(self):
        report = analyze(assemble(branchless_select()), parse_signature("r1=B,r2=B"), HW)
        assert report.verdict is Verdict.COMPLIANT
        assert report.findings == ()

    def test_compare_accumulate_compliant(self):
        report = analyze(assemble(compare_accumulate()), EMPTY_SIG, HW)
        assert report.verdict is Verdict.COMPLIANT

    def test_unrolled_pipeline_compliant(self):
        report = analyze(assemble(add_one_unrolled()), EMPTY_SIG, HW)
        assert report.verdict is Verdict.COMPLIANT

    def test_taint_free_program_compliant(self):
        # no blinded inputs anywhere: the policy cannot trigger
        report = analyze(assemble(trivial_halt()), EMPTY_SIG, HW)
        assert report.verdict is Verdict.COMPLIANT
        src = """
.entry start
.word pool
start:
    load r10, r0
    load r11, r10
    add  r10, r10, r11
    load r2, r10
    add  r3, r2, r2
    store r10, r3
    halt
pool:
    .word 1
    .word 21
"""
        report = analyze(assemble(src), EMPTY_SIG, HW)
        assert report.verdict is Verdict.COMPLIANT

    def test_blinded_branch_definitely_faults(self):
        report = analyze(assemble(blinded_branch_fault()), EMPTY_SIG, HW)
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert any(
            f.definite and f.fault is FaultKind.BLINDED_BRANCH for f in report.findings
        )
        assert report.witness is not None

    def test_blinded_load_mode_dependent(self):
        image = assemble(blinded_load_fault())
        hw = analyze(image, EMPTY_SIG, HW)
        assert hw.verdict is Verdict.DEFINITELY_FAULTS
        assert hw.witness.fault is FaultKind.BLINDED_ADDRESS
        model = analyze(image, EMPTY_SIG, MODEL)
        assert model.verdict is Verdict.COMPLIANT
        assert any("no-op in model mode" in f.reason for f in model.findings)

    def test_unblindable_store_definitely_faults(self):
        cfg = MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((48, 52),))
        report = analyze(assemble(blinded_store_unblindable_fault(48)), EMPTY_SIG, cfg)
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert report.witness.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE

    def test_rblnd_gating(self):
        image = assemble(rblnd_refused())
        assert analyze(image, EMPTY_SIG, HW).verdict is Verdict.DEFINITELY_FAULTS
        allowed = MachineConfig(memory_words=64, cache_lines=8, allow_raw_unblind=True)
        assert analyze(image, EMPTY_SIG, allowed).verdict is Verdict.COMPLIANT

    def test_looped_pipeline_is_conservative_may_fault(self):
        report = analyze(assemble(add_one_pipeline(4, (1, 2, 3, 4))), EMPTY_SIG, HW)
        assert report.verdict is Verdict.MAY_FAULT
        assert any(f.unresolved for f in report.findings)

    def test_signature_blinds_registers(self):
        # same program, but whether it faults depends on the signature:
        # with r1 clear-zero the branch jumps to the halt at address 0
        src = """
halt
start:
    bz r1, r0
    halt
.entry start
"""
        image = assemble(src)
        assert analyze(image, EMPTY_SIG, HW).verdict is Verdict.COMPLIANT
        report = analyze(image, parse_signature("r1=B"), HW)
        assert report.verdict is Verdict.DEFINITELY_FAULTS

    def test_segment_signature_override(self):
        # blinding the data segment turns a clean load chain into a fault
        src = """
.entry start
.word 9
start:
    load r1, r0
    load r2, r1
    bz r2, r0          # data word is nonzero: falls through when clear
    halt
.org 9
    .word 5
"""
        image = assemble(src)
        assert analyze(image, EMPTY_SIG, HW).verdict is Verdict.COMPLIANT
        report = analyze(image, TaintSignature(segments={1: SigTag.BLINDED}), HW)
        assert report.verdict is Verdict.DEFINITELY_FAULTS

    def test_fixpoint_bound_reported(self):
        image = assemble(add_one_pipeline(4, (1, 2, 3, 4)))
        report = analyze(image, EMPTY_SIG, HW, max_iterations=3)
        assert report.bound_exceeded
        assert report.verdict is Verdict.MAY_FAULT
        assert any("bound" in f.reason for f in report.findings)

    def test_report_format_lines(self):
        report = analyze(assemble(blinded_branch_fault()), EMPTY_SIG, HW)
        text = report.format()
        assert text.startswith("verdict: definitely-faults")
        assert "bz r2, r0" in text


def finding(report, reason):
    (match,) = [f for f in report.findings if f.reason == reason]
    return match


def assert_witness_replays(report, cfg):
    w = report.witness
    assert w is not None
    result = run(w.initial, cfg, 10_000)
    assert w.fault in [e.kind for e in result.trace if isinstance(e, Fault)]


class TestWitnessValidity:
    def test_witness_replays_to_real_fault(self):
        for source, cfg in [
            (blinded_branch_fault(), HW),
            (blinded_load_fault(), HW),
            (
                blinded_store_unblindable_fault(48),
                MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((48, 52),)),
            ),
        ]:
            assert_witness_replays(analyze(assemble(source), EMPTY_SIG, cfg), cfg)


def pool_program(body, pool_words):
    """``body`` runs with r1 = pool base and r2 = the first pool word."""
    words = "\n".join(f"    .word {w}" for w in pool_words)
    return f"""
.entry start
.word pool
start:
    load r1, r0
    load r2, r1
{body}
    halt
pool:
{words}
"""


class TestFindingPaths:
    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_top_address(self, cfg):
        image = assemble(".entry 0\nload r2, r1\nhalt\n")
        report = analyze(image, parse_signature("r1=T"), cfg)
        assert report.verdict is Verdict.MAY_FAULT
        if cfg.mode is Mode.HARDWARE:
            f = finding(report, "memory address may be blinded")
            assert f.fault is FaultKind.BLINDED_ADDRESS and not f.definite
        else:
            f = finding(report, "memory address may be blinded (no-op in model mode)")
            assert f.fault is None
        assert finding(report, "load address unresolved").unresolved

    @pytest.mark.parametrize(
        "instruction, reason",
        [
            ("store r2, r1", "store address out of range"),
            ("load r3, r2", "load address out of range"),
            ("blnd r2", "tag-edit address out of range"),
        ],
    )
    def test_constant_address_out_of_range(self, instruction, reason):
        report = analyze(assemble(pool_program(f"    {instruction}", [100])), EMPTY_SIG, HW)
        f = finding(report, reason)
        assert f.fault is FaultKind.OUT_OF_RANGE and f.definite
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert report.witness.fault is FaultKind.OUT_OF_RANGE
        assert_witness_replays(report, HW)

    @pytest.mark.parametrize("sig, definite", [("", True), ("r3=C", False)])
    def test_branch_target_out_of_range(self, sig, definite):
        # r3 is a clear zero at boot, so the branch must be taken; a
        # clear-unknown r3 may also fall through to the halt.
        report = analyze(assemble(pool_program("    bz r3, r2", [100])), parse_signature(sig), HW)
        f = finding(report, "branch target out of range")
        assert f.fault is FaultKind.OUT_OF_RANGE and f.definite is definite
        if definite:
            assert report.verdict is Verdict.DEFINITELY_FAULTS
            assert_witness_replays(report, HW)
        else:
            assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    def test_possibly_blinded_store_into_unblindable_range(self):
        cfg = MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((48, 52),))
        image = assemble(pool_program("    store r2, r5", [48]))
        report = analyze(image, parse_signature("r5=T"), cfg)
        f = finding(report, "possibly blinded store into an unblindable range")
        assert f.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE and not f.definite
        assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    def test_execution_runs_off_the_end_of_memory(self):
        image = assemble(".entry 63\n.org 63\nxor r1, r1, r1\n")
        report = analyze(image, EMPTY_SIG, HW)
        f = finding(report, "execution runs off the end of memory")
        assert f.fault is FaultKind.OUT_OF_RANGE and f.definite
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert_witness_replays(report, HW)

    def test_image_too_large_to_replay_stays_may_fault(self):
        # The blinded branch is a definite finding, but the segment at 100
        # does not fit a 64-word machine, so no witness can be booted.
        image = assemble(".entry 0\nbz r1, r0\n.org 100\n.word 5\n")
        report = analyze(image, parse_signature("r1=B"), HW)
        f = finding(report, "blinded value controls a branch")
        assert f.fault is FaultKind.BLINDED_BRANCH and f.definite
        assert report.verdict is Verdict.MAY_FAULT and report.witness is None


class TestSignatureParsing:
    def test_parse(self):
        sig = parse_signature("r1=B, r2=C, s0=T")
        assert sig.registers == {1: SigTag.BLINDED, 2: SigTag.CLEAR}
        assert sig.segments == {0: SigTag.TOP}

    def test_empty(self):
        sig = parse_signature("")
        assert not sig.registers and not sig.segments

    def test_errors(self):
        for bad in ("r1", "x3=B", "r99=B", "r1=Q"):
            with pytest.raises(ValueError):
                parse_signature(bad)

    def test_signature_naming_an_absent_segment_is_rejected(self):
        image = assemble(add_one_unrolled())
        cfg = MachineConfig(memory_words=64)
        sig = parse_signature("s7=B")
        with pytest.raises(ValueError, match="s7"):
            analyze(image, sig, cfg)
        with pytest.raises(ValueError, match="s7"):
            signature_state(image, sig, cfg, random.Random(0))

    def test_signature_state_consistency(self):
        image = assemble(branchless_select())
        rng = random.Random(1)
        sig = parse_signature("r1=B,r2=C")
        s = signature_state(image, sig, HW, rng)
        assert s.registers[1].blinded
        assert not s.registers[2].blinded and s.registers[2].value == 0
        s = signature_state(image, sig, HW, rng, randomize_clear=True)
        assert not s.registers[2].blinded


class TestEquivalentPairs:
    def test_pairs_equivalent_by_construction(self):
        for seed in range(200):
            s1, s2 = generate_equivalent_pair(seed)
            assert state_equiv(s1, s2)
            assert s1.status is Status.RUNNING

    def test_no_blinded_means_bitwise_identical(self):
        s1, s2 = generate_equivalent_pair(3, blind_p=0.0)
        if not any(w.blinded for w in s1.memory) and not any(
            w.blinded for w in s1.registers
        ):
            assert s1 == s2

    def test_distribution_pairs_differ(self):
        differing = 0
        with_blinded = 0
        for seed in range(1000):
            s1, s2 = generate_equivalent_pair(seed)
            has_blinded = any(w.blinded for w in s1.memory) or any(
                w.blinded for w in s1.registers
            )
            if has_blinded:
                with_blinded += 1
                if s1 != s2:
                    differing += 1
        assert with_blinded > 900
        assert differing / with_blinded >= 0.99

    def test_rerandomize_preserves_equivalence(self):
        rng = random.Random(8)
        s1, _ = generate_equivalent_pair(5)
        s2 = rerandomize_blinded(s1, rng)
        assert state_equiv(s1, s2)

    def test_program_pair_loads_image(self):
        image = assemble(branchless_select())
        rng = random.Random(9)
        s1, s2 = pair_for_program(image, HW, rng, blinded_regs=(1, 2))
        assert state_equiv(s1, s2)
        assert s1.registers[1].blinded and s2.registers[1].blinded
        assert s1.pc == image.entry_pc


class TestNoninterference:
    def test_trivial_halt_passes(self):
        image = assemble(trivial_halt())
        result = check_noninterference(image, trials=10, steps=10, cfg=HW)
        assert result.passed and result.trials == 10

    def test_corpus_passes_both_modes(self):
        for entry in curated_corpus():
            image = assemble(entry.source)
            for mode in Mode:
                cfg = MachineConfig(
                    mode=mode,
                    memory_words=entry.memory_words,
                    cache_lines=8,
                    unblindable_ranges=entry.unblindable,
                    mmio_console=entry.mmio_console,
                )
                result = check_noninterference(
                    image, trials=30, steps=200, cfg=cfg,
                    seed=11, blinded_regs=entry.blinded_regs,
                )
                assert result.passed, (entry.name, mode)

    def test_random_states_pass(self):
        result = check_noninterference(None, trials=300, steps=64, cfg=HW, seed=5)
        assert result.passed

    def test_add_taint_drop_mutation_caught_with_counterexample(self):
        def broken(d, inputs, mode=Mode.HARDWARE):
            outs, memops, control = instruction_semantics(d, inputs, mode)
            if d.opcode is Opcode.ADD and outs:
                outs = tuple(TaggedWord(w.value, False) for w in outs)
            return outs, memops, control

        result = check_noninterference(
            None, trials=3000, steps=64, cfg=HW, seed=17, semantics=broken
        )
        assert not result.passed
        ce = result.counterexample
        assert ce is not None and ce.delta_words >= 1
        # the minimized pair still demonstrates the divergence
        s1, s2 = ce.initial_pair
        assert state_equiv(s1, s2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_noninterference(None, trials=0, steps=10, cfg=HW)
        with pytest.raises(ValueError):
            check_noninterference(None, trials=10, steps=0, cfg=HW)

    def test_full_run_trace_independence_corollary(self):
        # run() end to end: equivalent initial states give bitwise-equal
        # trace text and equal outcomes
        from blindsim.machine import format_trace, run

        rng = random.Random(21)
        for entry in curated_corpus():
            cfg = MachineConfig(
                memory_words=entry.memory_words,
                cache_lines=8,
                unblindable_ranges=entry.unblindable,
                mmio_console=entry.mmio_console,
            )
            image = assemble(entry.source)
            for _ in range(20):
                s1, s2 = pair_for_program(image, cfg, rng, entry.blinded_regs)
                r1 = run(s1, cfg, 200)
                r2 = run(s2, cfg, 200)
                assert format_trace(r1.trace) == format_trace(r2.trace), entry.name
                assert r1.outcome is r2.outcome


def reference_lockstep(s1, s2, cfg, steps, semantics):
    """Lockstep through public ``step`` with a full ``state_equiv`` after
    every step: (step, reason) of the first divergence, or None."""
    if not state_equiv(s1, s2):
        return 0, "initial states not equivalent"
    for k in range(steps):
        if s1.status is not Status.RUNNING or s2.status is not Status.RUNNING:
            return None
        n1, e1 = step(s1, cfg, cycle=k, semantics=semantics)
        n2, e2 = step(s2, cfg, cycle=k, semantics=semantics)
        if e1 != e2:
            return k, f"trace events diverge: {e1!r} != {e2!r}"
        if not state_equiv(n1, n2):
            return k, "successor states not equivalent"
        s1, s2 = n1, n2
    return None


def payload_delta(s1, s2):
    return [
        (kind, i)
        for kind, xs, ys in (("r", s1.registers, s2.registers), ("m", s1.memory, s2.memory))
        for i, (a, b) in enumerate(zip(xs, ys))
        if a.blinded and b.blinded and a.value != b.value
    ]


def reference_check(program, trials, steps, cfg, seed, semantics, blinded_regs=()):
    """``check_noninterference`` rebuilt on :func:`reference_lockstep`:
    (passed, trials, (trial, step, reason, delta_words, pair) or None)."""
    rng = random.Random(seed)
    for trial in range(trials):
        if program is not None:
            s1, s2 = pair_for_program(program, cfg, rng, blinded_regs)
        else:
            s1, s2 = generate_equivalent_pair(
                rng.getrandbits(48), memory_words=cfg.memory_words, cache_lines=cfg.cache_lines
            )
        divergence = reference_lockstep(s1, s2, cfg, steps, semantics)
        if divergence is not None:
            current = s2
            for kind, i in payload_delta(s1, s2):
                if kind == "r":
                    candidate = replace(current, registers=current.registers.write(i, s1.registers[i]))
                else:
                    candidate = replace(current, memory=current.memory.store(i, s1.memory[i]))
                if reference_lockstep(s1, candidate, cfg, steps, semantics) is not None:
                    current = candidate
            found = (trial, *divergence, len(payload_delta(s1, current)), (s1, current))
            return False, trial + 1, found
    return True, trials, None


class TestUnwindingMatchesFullEquivalence:
    """The harness compares only what each step wrote; a reference that
    calls ``state_equiv`` after every step must agree on every verdict
    and counterexample."""

    @staticmethod
    def assert_same_as_reference(program, trials, steps, cfg, seed, semantics, blinded_regs=()):
        result = check_noninterference(
            program, trials=trials, steps=steps, cfg=cfg, seed=seed,
            semantics=semantics, blinded_regs=blinded_regs,
        )
        passed, n, found = reference_check(program, trials, steps, cfg, seed, semantics, blinded_regs)
        assert (result.passed, result.trials) == (passed, n)
        ce = result.counterexample
        if found is None:
            assert ce is None
        else:
            assert (ce.trial, ce.step, ce.reason, ce.delta_words, ce.initial_pair) == found
        return result

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "mutant",
        [mutants.add_drops_taint, mutants.bz_ignores_blinded_condition, mutants.cache_sees_blinded_addresses],
        ids=lambda f: f.__name__,
    )
    def test_mutants(self, mutant, mode):
        cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
        caught = 0
        for seed in range(3):
            result = self.assert_same_as_reference(None, 200, 64, cfg, seed, mutant)
            caught += not result.passed
        for source in (blinded_branch_fault(), blinded_load_fault()):
            result = self.assert_same_as_reference(assemble(source), 100, 64, cfg, 62, mutant)
            caught += not result.passed
        # this mutant differs from the shipped semantics in model mode only
        applies = mutant is not mutants.cache_sees_blinded_addresses or mode is Mode.MODEL
        assert (caught > 0) == applies

    @pytest.mark.parametrize("mode", list(Mode))
    def test_divergence_only_the_state_shows(self, mode):
        # Raw unblinding clears a tag in memory, and this variant writes a
        # register on one side only; neither shows in the trace events.
        def add_skips_write_on_odd_secret(d, inputs, mode):
            outs, memops, control = instruction_semantics(d, inputs, mode)
            if d.opcode is Opcode.ADD and any(w.blinded and w.value & 1 for w in inputs):
                return (), memops, control
            return outs, memops, control

        raw = MachineConfig(mode=mode, memory_words=64, cache_lines=8, allow_raw_unblind=True)
        cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
        reasons = set()
        for seed in range(3):
            for c, semantics in ((raw, instruction_semantics), (cfg, add_skips_write_on_odd_secret)):
                result = self.assert_same_as_reference(None, 200, 64, c, seed, semantics)
                reasons.add(result.counterexample and result.counterexample.reason)
        assert "successor states not equivalent" in reasons

    @pytest.mark.parametrize("mode", list(Mode))
    def test_passing_corpus_programs(self, mode):
        for entry in curated_corpus():
            cfg = MachineConfig(
                mode=mode,
                memory_words=entry.memory_words,
                cache_lines=8,
                unblindable_ranges=entry.unblindable,
                mmio_console=entry.mmio_console,
            )
            result = self.assert_same_as_reference(
                assemble(entry.source), 8, 200, cfg, 13, instruction_semantics, entry.blinded_regs
            )
            assert result.passed, entry.name


class TestSoundnessSpotCheck:
    def test_compliant_verdicts_are_fault_free_in_practice(self):
        cases = [
            (branchless_select(), parse_signature("r1=B,r2=B"), HW),
            (compare_accumulate(), EMPTY_SIG, HW),
            (add_one_unrolled(), EMPTY_SIG, HW),
            (blinded_load_fault(), EMPTY_SIG, MODEL),
        ]
        rng = random.Random(77)
        for source, sig, cfg in cases:
            image = assemble(source)
            report = analyze(image, sig, cfg)
            assert report.verdict is Verdict.COMPLIANT, source
            for _ in range(100):
                s = signature_state(image, sig, cfg, rng, randomize_clear=True)
                result = run(s, cfg, 1000)
                assert not any(isinstance(e, Fault) for e in result.trace)
