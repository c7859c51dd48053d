"""Static analysis verdicts, witness replay, and the lockstep harness."""

import hashlib
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
    join,
    pair_for_program,
    parse_signature,
    rerandomize_blinded,
    shrink_pair,
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
from blindsim.isa import ARITHMETIC, Mode, Opcode, instruction_semantics
from blindsim.machine import Fault, Fetch, MachineConfig, boot_image, run, step
from blindsim.model import FaultKind, Status, SystemState, TaggedWord, clear, state_equiv

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
    @pytest.mark.parametrize(
        "instruction, unresolved, cfg",
        [
            pytest.param("load r2, r1", "load address unresolved", HW, id="hardware"),
            pytest.param("load r2, r1", "load address unresolved", MODEL, id="model"),
            pytest.param("store r1, r2", "store address unresolved", HW, id="store-hardware"),
            pytest.param("store r1, r2", "store address unresolved", MODEL, id="store-model"),
            pytest.param("blnd r1", "tag-edit address unresolved", HW, id="blnd-hardware"),
            pytest.param("blnd r1", "tag-edit address unresolved", MODEL, id="blnd-model"),
        ],
    )
    def test_top_address(self, instruction, unresolved, cfg):
        image = assemble(f".entry 0\n{instruction}\nhalt\n")
        report = analyze(image, parse_signature("r1=T"), cfg)
        assert report.verdict is Verdict.MAY_FAULT
        if cfg.mode is Mode.HARDWARE:
            f = finding(report, "memory address may be blinded")
            assert f.fault is FaultKind.BLINDED_ADDRESS and not f.definite
        else:
            f = finding(report, "memory address may be blinded (no-op in model mode)")
            assert f.fault is None and not f.definite
        f = finding(report, unresolved)
        assert f.unresolved and f.fault is None and not f.definite

    @pytest.mark.parametrize("instruction", ["store r1, r2", "blnd r1", "rblnd r1"])
    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_blinded_address(self, instruction, cfg):
        # the address rule comes before the rblnd refusal: a blinded
        # address traps or is a no-op, whatever the opcode
        image = assemble(f".entry 0\n{instruction}\nhalt\n")
        report = analyze(image, parse_signature("r1=B"), cfg)
        if cfg.mode is Mode.HARDWARE:
            f = finding(report, "blinded value used as a memory address")
            assert f.fault is FaultKind.BLINDED_ADDRESS and f.definite
            assert report.verdict is Verdict.DEFINITELY_FAULTS
            assert report.witness.fault is FaultKind.BLINDED_ADDRESS
            assert_witness_replays(report, cfg)
        else:
            f = finding(report, "blinded value used as a memory address (no-op in model mode)")
            assert f.fault is None and not f.definite
            assert report.findings == (f,)
            assert report.verdict is Verdict.COMPLIANT and report.witness is None

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_rblnd_refused_under_a_top_address(self, cfg):
        # In model mode a blinded r1 makes the rblnd a no-op, so the blinded
        # branch after it is reachable; in hardware mode it never is.
        image = assemble(".entry 0\nrblnd r1\nbz r2, r0\nhalt\n")
        report = analyze(image, parse_signature("r1=T,r2=B"), cfg)
        f = finding(report, "raw unblinding is disabled and faults")
        assert f.fault is FaultKind.DECODE_ERROR and not f.definite
        branch = [x for x in report.findings if x.reason == "blinded value controls a branch"]
        if cfg.mode is Mode.HARDWARE:
            f = finding(report, "memory address may be blinded")
            assert f.fault is FaultKind.BLINDED_ADDRESS and not f.definite
            assert branch == []
            assert report.verdict is Verdict.MAY_FAULT and report.witness is None
        else:
            f = finding(report, "memory address may be blinded (no-op in model mode)")
            assert f.fault is None and not f.definite
            assert branch[0].fault is FaultKind.BLINDED_BRANCH and branch[0].definite
            assert report.verdict is Verdict.DEFINITELY_FAULTS
            assert report.witness.fault is FaultKind.BLINDED_BRANCH
            assert_witness_replays(report, cfg)

    @pytest.mark.parametrize(
        "instruction, next_fetch",
        [
            ("blnd r1", "instruction fetch may read a blinded word"),
            ("rblnd r1", "instruction word unresolved"),
        ],
    )
    def test_tag_edit_address_unresolved(self, instruction, next_fetch):
        # A clear address the analysis cannot pin down may edit any word,
        # the next instruction included: blnd may blind it, rblnd leaves it
        # clear but unknown.
        cfg = replace(HW, allow_raw_unblind=True)
        image = assemble(f".entry 0\n{instruction}\nhalt\n")
        report = analyze(image, parse_signature("r1=C"), cfg)
        f = finding(report, "tag-edit address unresolved")
        assert f.unresolved and f.fault is None and not f.definite
        (f,) = [x for x in report.findings if x.reason == next_fetch and x.pc == 1]
        assert not f.definite
        assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    def test_instruction_word_unresolved(self):
        report = analyze(assemble(".entry 0\nhalt\n"), parse_signature("s0=C"), HW)
        f = finding(report, "instruction word unresolved")
        assert f.unresolved and f.fault is None and not f.definite
        assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    def test_top_branch_condition(self):
        report = analyze(assemble(".entry 1\nhalt\nbz r1, r0\nhalt\n"), parse_signature("r1=T"), HW)
        f = finding(report, "branch condition or target may be blinded")
        assert f.fault is FaultKind.BLINDED_BRANCH and not f.definite
        assert report.findings == (f,)
        assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    def test_branch_target_unresolved(self):
        # r0 is a clear zero, so the branch is taken to wherever r1 points
        report = analyze(assemble(".entry 0\nbz r0, r1\nhalt\n"), parse_signature("r1=C"), HW)
        f = finding(report, "branch target unresolved")
        assert f.unresolved and f.fault is None and not f.definite
        assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    @pytest.mark.parametrize(
        "instruction, sig, branch",
        [
            # a clear-unknown or TOP partner may be a clear zero, which
            # absorbs a blinded operand: the product may be clear
            ("mul r3, r1, r2", "r1=B,r2=C", "branch condition or target may be blinded"),
            ("and r3, r1, r2", "r1=C,r2=B", "branch condition or target may be blinded"),
            ("and r3, r1, r2", "r1=B,r2=T", "branch condition or target may be blinded"),
            ("mul r3, r1, r2", "r1=T,r2=C", "branch condition or target may be blinded"),
            ("mul r3, r1, r2", "r1=B,r2=B", "blinded value controls a branch"),
            ("and r3, r1, r2", "r1=C,r2=C", None),
        ],
    )
    def test_absorbing_operand(self, instruction, sig, branch):
        image = assemble(f".entry 1\nhalt\n{instruction}\nbz r3, r0\nhalt\n")
        report = analyze(image, parse_signature(sig), HW)
        if branch is None:
            assert report.findings == ()
            assert report.verdict is Verdict.COMPLIANT
            return
        (f,) = report.findings
        assert f.reason == branch and f.fault is FaultKind.BLINDED_BRANCH
        if f.definite:
            assert report.verdict is Verdict.DEFINITELY_FAULTS
            assert_witness_replays(report, HW)
        else:
            assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    # Each operand class a transfer sees: a clear zero (an unnamed
    # register), a signature tag, or K, a nonzero constant loaded from word
    # 0 (the halt word, 0xffffff00).
    OPERAND_CLASSES = ("0", "C", "B", "T", "K")

    @staticmethod
    def transfer_case(op, a, b):
        """``op r3, r1, r2`` on operands of classes ``a`` and ``b`` (the
        aliased ``op r3, r1, r1`` when ``b`` is None), then ``bz r3, r0``."""
        operands = ((1, a),) if b is None else ((1, a), (2, b))
        loads = "".join(f"load r{i}, r0\n" for i, kind in operands if kind == "K")
        second = "r1" if b is None else "r2"
        image = assemble(f".entry 1\nhalt\n{loads}{op} r3, r1, {second}\nbz r3, r0\nhalt\n")
        sig = TaintSignature({i: SigTag(kind) for i, kind in operands if kind in ("C", "B", "T")})
        return image, sig

    def test_arithmetic_transfers_are_pinned(self):
        # The branch on r3 reports the class of each ALU result; the digest
        # covers every report field, the replayed witness included.
        h = hashlib.sha256()
        for op in ARITHMETIC:
            for a in self.OPERAND_CLASSES:
                for b in (*self.OPERAND_CLASSES, None):
                    image, sig = self.transfer_case(op.name.lower(), a, b)
                    for cfg in (HW, MODEL):
                        r = analyze(image, sig, cfg)
                        fields = (r.verdict, r.findings, r.iterations, r.bound_exceeded, r.witness)
                        h.update(repr(fields).encode())
        assert h.hexdigest() == (
            "80c237aaaefcaf357a9f02dcb7db15419a99b2875e5b47d25c3c4bdff3df6b06"
        )

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

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_refused_rblnd_out_of_range_is_a_range_fault(self, cfg):
        # The machine bounds-checks a tag-edit address before it refuses a
        # raw unblind, so the range fault is the one that happens.
        report = analyze(assemble(pool_program("    rblnd r2", [100])), EMPTY_SIG, cfg)
        f = finding(report, "tag-edit address out of range")
        assert f.fault is FaultKind.OUT_OF_RANGE and f.definite
        assert report.findings == (f,)
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert report.witness.fault is FaultKind.OUT_OF_RANGE
        assert_witness_replays(report, cfg)

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

    def test_possibly_blinded_store_may_hit_an_unblindable_range(self):
        cfg = MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((48, 52),))
        image = assemble(".entry 0\nstore r1, r2\nhalt\n")
        report = analyze(image, parse_signature("r1=C,r2=B"), cfg)
        assert finding(report, "store address unresolved").unresolved
        f = finding(report, "possibly blinded store may hit an unblindable range")
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


class TestJoin:
    WORDS = (0, 1, 2**64 - 1, SigTag.CLEAR, SigTag.BLINDED, SigTag.TOP)

    @staticmethod
    def below(a, b):
        """a is below b in CONST(v) < CLEAR < TOP, BLINDED < TOP."""
        return a == b or b is SigTag.TOP or (type(a) is int and b is SigTag.CLEAR)

    def test_join_is_a_semilattice(self):
        for a in self.WORDS:
            assert join(a, a) == a
            for b in self.WORDS:
                assert join(a, b) == join(b, a)
                for c in self.WORDS:
                    assert join(join(a, b), c) == join(a, join(b, c))

    def test_join_is_the_least_upper_bound(self):
        for a in self.WORDS:
            for b in self.WORDS:
                j = join(a, b)
                assert self.below(a, j) and self.below(b, j)
                for c in self.WORDS:
                    if self.below(a, c) and self.below(b, c):
                        assert self.below(j, c)


class TestSignatureParsing:
    def test_parse(self):
        sig = parse_signature("r1=B, r2=C, s0=T")
        assert sig.registers == {1: SigTag.BLINDED, 2: SigTag.CLEAR}
        assert sig.segments == {0: SigTag.TOP}

    def test_empty(self):
        sig = parse_signature("")
        assert not sig.registers and not sig.segments

    def test_errors(self):
        for bad in ("r1", "x3=B", "r99=B", "r1=Q", "r²=B", "s4294967296=B"):
            with pytest.raises(ValueError):
                parse_signature(bad)

    def test_leading_zeros_name_the_same_index(self):
        sig = parse_signature("r01=B,s000=C,r0=T")
        assert sig.registers == {1: SigTag.BLINDED, 0: SigTag.TOP}
        assert sig.segments == {0: SigTag.CLEAR}

    @pytest.mark.parametrize("text", ["r1=B,r1=C", "r1=B,r01=B", "s0=T,s00=C"])
    def test_a_register_or_segment_named_twice_is_refused(self, text):
        with pytest.raises(ValueError, match="twice"):
            parse_signature(text)

    def test_a_later_entry_cannot_clear_a_blinded_branch_operand(self):
        # The first entry alone makes the branch on r1 a definite fault.
        image = assemble("bz r1, r2\nhalt\n")
        assert analyze(image, parse_signature("r1=B"), HW).verdict is Verdict.DEFINITELY_FAULTS
        with pytest.raises(ValueError, match="signature names r1 twice"):
            parse_signature("r1=B,r1=C")

    @pytest.mark.parametrize("kind, what", [("r", "register"), ("s", "segment")])
    def test_an_index_past_ints_digit_limit_is_out_of_range(self, kind, what):
        with pytest.raises(ValueError, match=f"^{what} out of range in "):
            parse_signature(f"{kind}{'9' * 5000}=B")

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

    def test_signature_states_are_pinned(self):
        # Every draw signature_state makes, in order, and what it builds:
        # a change to either changes this digest.  A clear segment keeps
        # each word's payload and drops its tag.
        h = hashlib.sha256()
        rng = random.Random(2025)
        cleared = 0
        for entry in curated_corpus():
            image = assemble(entry.source)
            last = len(image.segments) - 1
            sigs = [
                "r1=B,r2=C,r5=C", "s0=C", "s0=B,r3=C", f"s{last}=C,r1=B,r2=T", f"s{last}=T,r4=C",
            ]
            for mode in Mode:
                cfg = MachineConfig(mode=mode, memory_words=entry.memory_words, cache_lines=8)
                for text in sigs:
                    for randomize_clear in (False, True):
                        s = signature_state(image, parse_signature(text), cfg, rng, randomize_clear)
                        h.update(repr(s).encode())
                        if text == "s0=C":
                            seg = image.segments[0]
                            for offset, w in enumerate(seg.words):
                                assert s.memory[seg.base + offset] == TaggedWord(w.value, False)
                                cleared += w.blinded
        h.update(repr(rng.random()).encode())
        assert cleared > 0
        assert h.hexdigest() == (
            "e5e018c00d3b44898d0ce81cdccead0795a340f8e3105f6b4e2d168d450bf7e9"
        )


class TestEquivalentPairs:
    def test_pairs_equivalent_by_construction(self):
        for seed in range(200):
            s1, s2 = generate_equivalent_pair(seed)
            assert state_equiv(s1, s2)
            assert s1.status is Status.RUNNING

    def test_no_blinded_means_bitwise_identical(self):
        s = SystemState.initial(64, 8).edit(
            pc=5, registers=[(1, clear(7))], memory=[(3, clear(9))], lines=[(2, 3)]
        )
        assert rerandomize_blinded(s, random.Random(3)) == s

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

    @pytest.mark.parametrize("memory_words", [0, -1])
    def test_a_machine_without_memory_is_refused(self, memory_words):
        with pytest.raises(ValueError):
            generate_equivalent_pair(0, memory_words=memory_words)

    @pytest.mark.parametrize("cache_lines", [0, -3])
    def test_a_machine_without_a_cache_line_is_refused(self, cache_lines):
        # As MachineConfig refuses it: a load or store on such a state
        # crashed run with ZeroDivisionError.
        with pytest.raises(ValueError, match="memory_words and cache_lines must be positive"):
            generate_equivalent_pair(0, memory_words=64, cache_lines=cache_lines)

    def test_rerandomize_preserves_equivalence(self):
        rng = random.Random(8)
        s1, _ = generate_equivalent_pair(5)
        s2 = rerandomize_blinded(s1, rng)
        assert state_equiv(s1, s2)

    @pytest.mark.parametrize("blind", [False, True], ids=["no-blinded-word", "every-word-blinded"])
    def test_redraw_is_the_word_by_word_draw(self, blind):
        # The documented order, spelled out: registers, then memory, each
        # blinded word drawing rng.random() and then its payload.
        def by_word(s, rng):
            def redraw(words):
                return tuple(
                    (TaggedWord(rng.getrandbits(64), True) if rng.random() < 0.7
                     else TaggedWord(rng.randrange(4), True)) if w.blinded else w
                    for w in words
                )
            return replace(
                s, registers=replace(s.registers, regs=redraw(s.registers.regs)),
                memory=replace(s.memory, words=redraw(s.memory.words)),
            )

        tagged, spelled = random.Random(12), random.Random(12)
        for seed in range(20):
            s, _ = generate_equivalent_pair(seed)
            s = s.edit(
                registers=[(i, TaggedWord(w.value, blind)) for i, w in enumerate(s.registers)],
                memory=[(i, TaggedWord(w.value, blind)) for i, w in enumerate(s.memory)],
            )
            assert rerandomize_blinded(s, tagged) == by_word(s, spelled)
        assert tagged.getstate() == spelled.getstate()

    def test_program_pair_loads_image(self):
        image = assemble(branchless_select())
        rng = random.Random(9)
        s1, s2 = pair_for_program(image, HW, rng, blinded_regs=(1, 2))
        assert state_equiv(s1, s2)
        assert s1.registers[1].blinded and s2.registers[1].blinded
        assert s1.pc == image.entry_pc

    def test_pair_draws_are_pinned(self):
        # Every draw the harness makes, in order: a change to the draw
        # order (or to what a draw builds) changes this digest.
        h = hashlib.sha256()
        for seed in range(200):
            h.update(repr(generate_equivalent_pair(seed)).encode())
            h.update(repr(generate_equivalent_pair(seed, 1024, 16)).encode())
        rng = random.Random(2024)
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
                for _ in range(3):
                    pair = pair_for_program(image, cfg, rng, entry.blinded_regs)
                    h.update(repr(pair).encode())
        h.update(repr(rng.random()).encode())
        assert h.hexdigest() == (
            "769f90de540f9e54993dfc46925e106ef79e7f423f4c63589f60fb455b8605e2"
        )


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

    def test_shrink_pair_keeps_a_minimal_pair_and_shrinks_a_wide_one(self):
        mutant = mutants.add_drops_taint
        result = check_noninterference(None, trials=200, steps=64, cfg=HW, seed=0, semantics=mutant)
        s1, s2 = result.counterexample.initial_pair
        assert shrink_pair(s1, s2, HW, 64, mutant) == (s1, s2)
        assert reference_lockstep(s1, s2, HW, 64, mutant) is not None
        assert len(payload_delta(s1, s2)) == result.counterexample.delta_words >= 1
        # Every blinded payload redrawn: the shrunk pair still diverges on
        # fewer differing words.
        wide = rerandomize_blinded(s1, random.Random(0))
        assert reference_lockstep(s1, wide, HW, 64, mutant) is not None
        t1, t2 = shrink_pair(s1, wide, HW, 64, mutant)
        assert t1 == s1 and reference_lockstep(t1, t2, HW, 64, mutant) is not None
        assert 1 <= len(payload_delta(t1, t2)) < len(payload_delta(s1, wide))

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_a_pair_shares_one_decode_per_address(self, cfg, decode_calls):
        # Both sides of a pair and every trial of one check step the same
        # code through one decode slot, so the check decodes every executed
        # address once, not once per side or per trial.
        image = assemble(add_one_pipeline(4, (10, 20, 30, 40)))
        trace = run(boot_image(image, cfg), cfg, 1000).trace
        fetched = {e.pc for e in trace if isinstance(e, Fetch)}
        decode_calls.clear()
        result = check_noninterference(image, trials=3, steps=1000, cfg=cfg, seed=2)
        assert result.passed
        assert len(decode_calls) == len(fetched)

    # The add at ``patch`` runs once, is overwritten by the word at
    # ``newcode`` and runs again as that add, which sets r7 so the branch
    # falls through to the halt.  Every trial boots the old word again.
    SELF_MODIFYING = """
.entry start
.word pool
start:
    load r10, r0
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r12, r10       # &patch
    add  r10, r10, r11
    load r13, r10       # &newcode
    load r14, r13       # the word that replaces patch
patch:
    add  r3, r3, r1     # r1 is blinded
    store r12, r14
    bz   r7, r12        # r7 == 0: run patch again
    halt
newcode:
    add  r7, r7, r11
pool:
    .word 1
    .word patch
    .word newcode
"""

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_code_overwritten_in_one_trial_is_decoded_again_in_the_next(self, cfg, decode_calls):
        image = assemble(self.SELF_MODIFYING)
        trace = run(boot_image(image, cfg), cfg, 100).trace
        fetches = [e for e in trace if isinstance(e, Fetch)]
        old, new = (e.word for e in fetches if e.pc == 8)  # patch
        decode_calls.clear()
        result = check_noninterference(
            image, trials=4, steps=100, cfg=cfg, seed=3, blinded_regs=(1,)
        )
        assert (result.passed, result.trials, result.counterexample) == (True, 4, None)
        # Each trial fetches the booted word at patch, which the slot no
        # longer holds, and then the stored one.
        assert decode_calls.count(old) == decode_calls.count(new) == 4
        assert len(decode_calls) == len({e.pc for e in fetches}) + 1 + 2 * 3

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
                    candidate = current.edit(registers=[(i, s1.registers[i])])
                else:
                    candidate = current.edit(memory=[(i, s1.memory[i])])
                if reference_lockstep(s1, candidate, cfg, steps, semantics) is not None:
                    current = candidate
            found = (trial, *divergence, len(payload_delta(s1, current)), (s1, current))
            return False, trial + 1, found
    return True, trials, None


def counting(semantics):
    """``semantics`` with a call count in its ``calls`` attribute."""

    def counted(d, inputs, mode):
        counted.calls += 1
        return semantics(d, inputs, mode)

    counted.calls = 0
    return counted


class TestUnwindingMatchesFullEquivalence:
    """The harness compares only what each step wrote; a reference that
    calls ``state_equiv`` after every step must agree on every verdict
    and counterexample, and make as many semantics calls: the harness
    steps neither more nor less than the reference."""

    @staticmethod
    def assert_same_as_reference(program, trials, steps, cfg, seed, semantics, blinded_regs=()):
        harness, reference = counting(semantics), counting(semantics)
        result = check_noninterference(
            program, trials=trials, steps=steps, cfg=cfg, seed=seed,
            semantics=harness, blinded_regs=blinded_regs,
        )
        passed, n, found = reference_check(program, trials, steps, cfg, seed, reference, blinded_regs)
        assert (result.passed, result.trials) == (passed, n)
        assert harness.calls == reference.calls
        ce = result.counterexample
        if found is None:
            assert ce is None
        else:
            assert (ce.trial, ce.step, ce.reason, ce.delta_words, ce.initial_pair) == found
        return result

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "mutant",
        [
            mutants.add_drops_taint,
            mutants.bz_ignores_blinded_condition,
            mutants.cache_sees_blinded_addresses,
            mutants.tag_edit_at_blinded_address,
        ],
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
        # these mutants differ from the shipped semantics in model mode only
        model_only = (mutants.cache_sees_blinded_addresses, mutants.tag_edit_at_blinded_address)
        applies = mutant not in model_only or mode is Mode.MODEL
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

    def test_the_end_of_trial_check_catches_a_wrong_unwinding(self, monkeypatch):
        # ADD writes r1's payload to r3 as a clear word, which no trace
        # event shows; with the per-step check made to pass everything,
        # only the full comparison at the end of the trial sees it.
        monkeypatch.setattr("blindsim.checker._unwinding_holds", lambda *args: True)
        image = assemble("add r3, r1, r2\nhalt\n")
        with pytest.raises(RuntimeError) as excinfo:
            check_noninterference(
                image, trials=10, steps=10, cfg=HW, semantics=mutants.add_drops_taint, blinded_regs=(1,)
            )
        assert str(excinfo.value) == "unwinding check passed a pair that state_equiv rejects"


# A 4-word machine whose every word and register is blinded.
ALL_BLINDED = ".word 0 blinded\n" * 4


class TestTrialPairs:
    """Every trial runs the pair the public functions draw from its seed:
    :func:`pair_for_program` over a program, and otherwise
    :func:`generate_equivalent_pair` of the next 48 bits."""

    TRIALS = 4

    def trial_pairs(self, monkeypatch, program, cfg, seed, blinded_regs=()):
        pairs = []

        def record(s1, s2, *rest):
            pairs.append((s1, s2))
            return None

        monkeypatch.setattr("blindsim.checker._lockstep_divergence", record)
        result = check_noninterference(
            program, self.TRIALS, 10, cfg, seed=seed, blinded_regs=blinded_regs
        )
        assert result.passed and len(pairs) == self.TRIALS
        return pairs

    @pytest.mark.parametrize("mode", list(Mode))
    def test_corpus_programs(self, monkeypatch, mode):
        for seed, entry in enumerate(curated_corpus()):
            image = assemble(entry.source)
            cfg = MachineConfig(
                mode=mode,
                memory_words=entry.memory_words,
                cache_lines=8,
                unblindable_ranges=entry.unblindable,
                mmio_console=entry.mmio_console,
            )
            rng = random.Random(seed)
            expected = [pair_for_program(image, cfg, rng, entry.blinded_regs) for _ in range(self.TRIALS)]
            assert self.trial_pairs(monkeypatch, image, cfg, seed, entry.blinded_regs) == expected, entry.name

    @pytest.mark.parametrize("mode", list(Mode))
    def test_random_machines(self, monkeypatch, mode):
        for seed in range(3):
            cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
            rng = random.Random(seed)
            expected = [
                generate_equivalent_pair(rng.getrandbits(48), memory_words=64, cache_lines=8)
                for _ in range(self.TRIALS)
            ]
            assert self.trial_pairs(monkeypatch, None, cfg, seed) == expected

    @pytest.mark.parametrize(
        "source, memory_words, blinded_regs",
        [(trivial_halt(), 64, ()), (ALL_BLINDED, 4, tuple(range(32)))],
        ids=["no-blinded-word", "every-word-blinded"],
    )
    def test_states_with_no_and_every_word_blinded(self, monkeypatch, source, memory_words, blinded_regs):
        image = assemble(source)
        cfg = MachineConfig(memory_words=memory_words, cache_lines=1)
        rng = random.Random(5)
        expected = [pair_for_program(image, cfg, rng, blinded_regs) for _ in range(self.TRIALS)]
        pairs = self.trial_pairs(monkeypatch, image, cfg, 5, blinded_regs)
        assert pairs == expected
        for s1, s2 in pairs:
            words = (*s1.registers, *s1.memory)
            assert all(w.blinded for w in words) if blinded_regs else not any(w.blinded for w in words)
            assert (s1 == s2) == (not blinded_regs)


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
