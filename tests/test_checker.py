"""Static analysis verdicts, witness replay, and the lockstep harness."""

import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from blindsim import checker
from blindsim.assembler import ProgramImage, Segment, assemble
from blindsim.checker import (
    SigTag,
    _unwinding_holds,
    TaintSignature,
    Verdict,
    analyze,
    check_noninterference,
    generate_equivalent_pair,
    join,
    pair_for_program,
    parse_signature,
    signature_state,
)
from blindsim.corpus import (
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
    trivial_halt,
)
from blindsim.isa import ARITHMETIC, SHAPES, Mode, Opcode, instruction_semantics
from blindsim.machine import (
    Fault,
    Fetch,
    ListMachine,
    LoadError,
    MachineConfig,
    boot_image,
    overlay_image,
    run,
    step,
)
from blindsim.model import (
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

import draw_reference
import mutants
from helpers import BLINDED_CONSOLE_IMAGE, BLND_CONSOLE, blindsim_calls, redraw_blinded, widening_loop

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
        report = analyze(assemble(blinded_store_unblindable_fault()), EMPTY_SIG, cfg)
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert report.witness.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE

    def test_rblnd_gating(self):
        image = assemble(rblnd_refused())
        assert analyze(image, EMPTY_SIG, HW).verdict is Verdict.DEFINITELY_FAULTS

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
        # The budget is 16 iterations per image word, and this loop widens
        # one register per pass for 24 passes.
        image = assemble(widening_loop())
        assert image.word_count() == 33
        report = analyze(image, EMPTY_SIG, HW)
        assert report.bound_exceeded
        assert report.iterations == 33 * 16
        assert report.verdict is Verdict.MAY_FAULT
        assert any(f.reason == "fixpoint iteration bound (528) exceeded" for f in report.findings)

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
                blinded_store_unblindable_fault(),
                MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((48, 52),)),
            ),
        ]:
            assert_witness_replays(analyze(assemble(source), EMPTY_SIG, cfg), cfg)

    def test_one_run_confirms_every_definite_finding(self, monkeypatch):
        # Two definite findings, one per side of a branch on a clear input.
        # The witness's r1 is 0, so only the second finding's fault occurs:
        # one run shows it, and the first finding needs no run of its own.
        source = """
.entry start
.word pool
start:
    load r10, r0        # pool base
    load r11, r10       # constant 1
    add  r10, r10, r11
    load r2, r10        # blinded secret
    add  r10, r10, r11
    load r3, r10        # &taken
    add  r10, r10, r11
    load r5, r10        # unblindable address
    bz   r1, r3         # clear input, 0 in the witness: taken
    store r5, r2        # not taken: blinded store to unblindable
    halt
taken:
    .word 0x29          # does not decode
pool:
    .word 1
    .word 7 blinded
    .word taken
    .word 0x30
"""
        image, sig = assemble(source), parse_signature("r1=C")
        cfg = replace(HW, unblindable_ranges=((0x30, 0x34),))
        runs = []
        monkeypatch.setattr(checker, "run", lambda *args: runs.append(args) or run(*args))
        report = analyze(image, sig, cfg)
        assert [(f.pc, f.fault, f.definite) for f in report.findings] == [
            (10, FaultKind.BLINDED_STORE_TO_UNBLINDABLE, True),
            (12, FaultKind.DECODE_ERROR, True),
        ]
        assert len(runs) == 1
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        w = report.witness
        assert (w.fault, w.steps, w.pc) == (FaultKind.DECODE_ERROR, 10, 12)
        assert snapshot(w.initial) == snapshot(signature_state(image, sig, cfg, random.Random(0)))


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

    @pytest.mark.parametrize("instruction", ["blnd r1", "rblnd r1"])
    def test_tag_edit_address_unresolved(self, instruction):
        # A clear address the analysis cannot pin down may edit any word,
        # the next instruction included: blnd may blind it.  An rblnd is
        # refused wherever it points.
        image = assemble(f".entry 0\n{instruction}\nhalt\n")
        report = analyze(image, parse_signature("r1=C"), HW)
        if instruction == "rblnd r1":
            f = finding(report, "raw unblinding is disabled and faults")
            assert f.fault is FaultKind.DECODE_ERROR and f.definite
            assert report.findings == (f,)
            assert report.verdict is Verdict.DEFINITELY_FAULTS
            assert report.witness.fault is FaultKind.DECODE_ERROR
            assert_witness_replays(report, HW)
            return
        f = finding(report, "tag-edit address unresolved")
        assert f.unresolved and f.fault is None and not f.definite
        fetch = "instruction fetch may read a blinded word"
        (f,) = [x for x in report.findings if x.reason == fetch and x.pc == 1]
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

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_a_definite_finding_that_no_replay_reaches(self, cfg):
        # The bz at 4 always sees the blinded r2, but a replay gives the
        # signature-clear r1 the value 0, so the bz at 3 always jumps past it.
        src = """
.entry start
.word pool
start:
    load r10, r0
    load r5, r10
    bz r1, r5
    bz r2, r5
skip:
    halt
pool:
    .word skip
"""
        report = analyze(assemble(src), parse_signature("r1=C,r2=B"), cfg)
        f = finding(report, "blinded value controls a branch")
        assert f.pc == 4 and f.definite and f.fault is FaultKind.BLINDED_BRANCH
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
        # covers every report field, the replayed witness included, its
        # initial state as a snapshot.
        h = hashlib.sha256()
        for op in ARITHMETIC:
            for a in self.OPERAND_CLASSES:
                for b in (*self.OPERAND_CLASSES, None):
                    image, sig = self.transfer_case(op.name.lower(), a, b)
                    for cfg in (HW, MODEL):
                        r = analyze(image, sig, cfg)
                        w = r.witness
                        witness = w and (snapshot(w.initial), w.fault, w.steps, w.pc)
                        fields = (r.verdict, r.findings, r.iterations, r.bound_exceeded, witness)
                        h.update(repr(fields).encode())
        assert h.hexdigest() == (
            "14426dd242585be390534a1f528f5d038c80ba34722202b694fa1b364458504e"
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

    @pytest.mark.parametrize("mode", list(Mode))
    def test_blnd_into_an_unblindable_range_definitely_faults(self, mode):
        # A tag edit's value is blinded: the store's range findings cover it.
        cfg = BLND_CONSOLE.config(mode)
        report = analyze(assemble(BLND_CONSOLE.source), EMPTY_SIG, cfg)
        f = finding(report, "blinded tag-edit into an unblindable range")
        assert f.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE and f.definite
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert report.witness.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE
        assert_witness_replays(report, cfg)

    def test_blnd_may_hit_an_unblindable_range(self):
        cfg = MachineConfig(memory_words=64, cache_lines=8, unblindable_ranges=((48, 52),))
        report = analyze(assemble(".entry 0\nblnd r1\nhalt\n"), parse_signature("r1=C"), cfg)
        assert finding(report, "tag-edit address unresolved").unresolved
        f = finding(report, "possibly blinded tag-edit may hit an unblindable range")
        assert f.fault is FaultKind.BLINDED_STORE_TO_UNBLINDABLE and not f.definite
        assert report.verdict is Verdict.MAY_FAULT and report.witness is None

    def test_execution_runs_off_the_end_of_memory(self):
        image = assemble(".entry 63\n.org 63\nxor r1, r1, r1\n")
        report = analyze(image, EMPTY_SIG, HW)
        f = finding(report, "execution runs off the end of memory")
        assert f.fault is FaultKind.OUT_OF_RANGE and f.definite
        assert report.verdict is Verdict.DEFINITELY_FAULTS
        assert_witness_replays(report, HW)

    @pytest.mark.parametrize(
        "source, sig, message",
        [
            (
                ".entry 0\nbz r1, r0\n.org 100\n.word 5\n", "r1=B",
                r"segment \[0x64, 0x65\) exceeds memory of 0x40 words",
            ),
            (".entry 100\n.org 100\nhalt\n", "", r"segment \[0x64, 0x65\) exceeds memory of 0x40 words"),
            (".entry 70\nhalt\n", "", r"entry pc 0x46 out of range"),
        ],
        ids=["definite-finding", "segment", "entry"],
    )
    def test_an_image_that_cannot_load_is_refused(self, source, sig, message):
        # No verdict holds for an image the machine cannot load: the first
        # would be a definite finding with no witness to boot, and the
        # others, analysed alone, are a lone halt.  Each is refused with
        # the error that loading it raises.
        image = assemble(source)
        with pytest.raises(LoadError, match=message):
            boot_image(image, HW)
        with pytest.raises(LoadError, match=message):
            analyze(image, parse_signature(sig), HW)

    @pytest.mark.parametrize(
        "load",
        [
            lambda image, cfg: boot_image(image, cfg),
            lambda image, cfg: analyze(image, EMPTY_SIG, cfg),
            lambda image, cfg: check_noninterference(image, trials=5, steps=10, cfg=cfg),
            lambda image, cfg: pair_for_program(image, cfg, random.Random(0)),
            lambda image, cfg: overlay_image(SystemState.initial(cfg.memory_words, 8), image, cfg=cfg),
        ],
        ids=["boot_image", "analyze", "check_noninterference", "pair_for_program", "overlay_image"],
    )
    def test_an_image_with_a_blinded_word_in_an_unblindable_range_is_refused(self, load):
        # Each loads the image through overlay_image given the config, the
        # gate that a session's compute loads through too, and it refuses
        # the image as the CLI and the session do.
        cfg = BLINDED_CONSOLE_IMAGE.config(Mode.HARDWARE)
        with pytest.raises(ValueError, match=r"^image segment \[0x30, 0x31\) overlaps an unblindable range$"):
            load(assemble(BLINDED_CONSOLE_IMAGE.source), cfg)

    def test_a_segment_below_address_zero_is_refused(self):
        # The assembler makes no such image; the library takes one as given.
        image = ProgramImage(0, (Segment(-1, (clear(1), clear(2))),))
        with pytest.raises(LoadError, match=r"segment \[-0x1, 0x1\) starts below address 0"):
            analyze(image, parse_signature(""), HW)


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

    @pytest.mark.parametrize("text", ["r\u0661=B", "s\u0660=C", "r0\u0663=T", "r\uff11=B"])
    def test_non_ascii_numerals_are_refused(self, text):
        # ``isdecimal`` and ``int()`` alone would read r\u0661 as r1.
        with pytest.raises(ValueError, match="^bad signature entry "):
            parse_signature(text)

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

    def test_signature_states_are_pinned(self):
        # Every draw signature_state makes, in order, and what it builds,
        # as a snapshot (exact at each entry's sizes): a change to either
        # changes this digest.  A clear segment keeps each word's payload
        # and drops its tag.
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
                    s = signature_state(image, parse_signature(text), cfg, rng)
                    h.update(snapshot(s).encode())
                    if text == "s0=C":
                        seg = image.segments[0]
                        for offset, w in enumerate(seg.words):
                            assert s.memory[seg.base + offset] == TaggedWord(w.value, False)
                            cleared += w.blinded
        h.update(repr(rng.random()).encode())
        assert cleared > 0
        assert h.hexdigest() == (
            "56802051ebfc0e4e783b03b1f4e0d12e242883c50a007fd833b9c7c7c2087a61"
        )


class TestEquivalentPairs:
    def test_pairs_equivalent_by_construction(self):
        for seed in range(200):
            s1, s2 = generate_equivalent_pair(seed)
            assert state_equiv(s1, s2)
            assert s1.status is Status.RUNNING

    @pytest.mark.parametrize("words, lines", [(64, 8), (1024, 16)])
    def test_drawn_words_are_tagged_words(self, words, lines):
        # Both states' words are built inline with the slot setters, the
        # twin's redrawn ones too; each must be the constructor's word.
        for seed in range(20):
            for s in generate_equivalent_pair(seed, words, lines):
                for w in (*s.registers, *s.memory):
                    ref = TaggedWord(w.value, w.blinded)
                    assert type(w) is TaggedWord and type(w.blinded) is bool
                    assert (repr(w), hash(w)) == (repr(ref), hash(ref)) and w == ref

    def test_no_blinded_means_bitwise_identical(self):
        s = SystemState.initial(64, 8).edit(
            pc=5, registers=[(1, clear(7))], memory=[(3, clear(9))], lines=[(2, 3)]
        )
        assert redraw_blinded(s, random.Random(3)) == s

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
        s2 = redraw_blinded(s1, rng)
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
                s, registers=redraw(s.registers),
                memory=replace(s.memory, words=redraw(s.memory.words)),
            )

        tagged, spelled = random.Random(12), random.Random(12)
        for seed in range(20):
            s, _ = generate_equivalent_pair(seed)
            s = s.edit(
                registers=[(i, TaggedWord(w.value, blind)) for i, w in enumerate(s.registers)],
                memory=[(i, TaggedWord(w.value, blind)) for i, w in enumerate(s.memory)],
            )
            assert redraw_blinded(s, tagged) == by_word(s, spelled)
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
        # order (or to what a draw builds) changes this digest.  A state
        # enters as its snapshot, which is exact at fixed sizes.
        def pair_text(pair):
            return "".join(map(snapshot, pair)).encode()

        h = hashlib.sha256()
        for seed in range(200):
            h.update(pair_text(generate_equivalent_pair(seed)))
            h.update(pair_text(generate_equivalent_pair(seed, 1024, 16)))
        rng = random.Random(2024)
        for entry in curated_corpus():
            image = assemble(entry.source)
            for mode in Mode:
                cfg = entry.config(mode)
                for _ in range(3):
                    h.update(pair_text(pair_for_program(image, cfg, rng, entry.blinded_regs)))
        h.update(repr(rng.random()).encode())
        assert h.hexdigest() == (
            "6b525b328bc2253709eac64399d409e237c33ef6db25642c896695e10adfb789"
        )


class TestDrawsMatchTheReference:
    """The shipped pair draws against the word-by-word originals kept in
    ``draw_reference``: the same states and snapshots, the caller's
    generator left in the same state, and the same words shared."""

    SIZES = (1, 2, 3, 24, 63, 64, 65, 1024, 4096)
    LINES = (1, 3, 8, 16)

    @staticmethod
    def assert_same(ours, theirs):
        assert ours == theirs
        assert list(map(snapshot, ours)) == list(map(snapshot, theirs))

    @staticmethod
    def assert_shared_alike(ours, theirs, memory_words):
        """Each word of ``ours`` is a shared object exactly where the same
        word of ``theirs`` is: a small value is its ``_small_words`` entry
        on side 1 and a redrawn one its ``_SMALL_BLINDED`` entry on the
        twin, and every clear word of the twin is side 1's.  Returns how
        many small values side 1 shares."""
        small = checker._small_words(memory_words)
        shared_small = 0
        for component in ("registers", "memory"):
            first, twin = (tuple(getattr(s, component)) for s in ours)
            ref_first, ref_twin = (tuple(getattr(s, component)) for s in theirs)
            for a, b, ra, rb in zip(first, twin, ref_first, ref_twin):
                if a.value < memory_words:
                    entry = small[a.value][a.blinded]
                    assert (a is entry) == (ra is entry)
                    shared_small += a is entry
                if not b.blinded:
                    assert b is a
                elif b.value < 4:
                    entry = checker._SMALL_BLINDED[b.value]
                    assert (b is entry) == (rb is entry)
        return shared_small

    def test_random_pairs_and_redraws_match(self):
        shared_small = 0
        for words in self.SIZES:
            for lines in self.LINES:
                for seed in range(min(48, 4096 // words)):
                    ours = generate_equivalent_pair(seed, words, lines)
                    theirs = draw_reference.generate_equivalent_pair(seed, words, lines)
                    self.assert_same(ours, theirs)
                    shared_small += self.assert_shared_alike(ours, theirs, words)
                    s1 = ours[0]
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    redrawn = redraw_blinded(s1, rng)
                    expected = draw_reference._redraw(
                        s1, *checker._blinded_positions(s1), ref_rng
                    )
                    self.assert_same((redrawn,), (expected,))
                    assert rng.getstate() == ref_rng.getstate()
        assert shared_small > 0

    def test_program_pairs_match(self):
        rng, ref_rng = random.Random(31), random.Random(31)
        lines = itertools.cycle(self.LINES)
        for entry in curated_corpus():
            image = assemble(entry.source)
            for words in self.SIZES:
                if words < entry.memory_words:
                    continue
                cfg = MachineConfig(
                    mode=Mode.MODEL,
                    memory_words=words,
                    cache_lines=next(lines),
                    unblindable_ranges=entry.unblindable,
                    mmio_console=entry.mmio_console,
                )
                ours = pair_for_program(image, cfg, rng, entry.blinded_regs)
                booted = checker._booted(image, cfg, entry.blinded_regs)
                at = checker._blinded_positions(booted)
                s1 = draw_reference._redraw(booted, *at, ref_rng)
                theirs = (s1, draw_reference._redraw(s1, *at, ref_rng))
                self.assert_same(ours, theirs)
                for ours_w, s1_w in zip(ours[1].memory, ours[0].memory):
                    if not ours_w.blinded:
                        assert ours_w is s1_w
                assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("memory_words", [64, 1024])
    def test_calls_per_pair_are_pinned(self, memory_words):
        # A pair makes the same Python-level calls into blindsim whatever
        # its size: the function, the size check, the valid-bit list, two
        # SystemState and two MemoryImage constructions, _redraw and one
        # _redrawn per component; every bounded draw, the pc's included,
        # runs inline.  A per-word helper frame changes this count, not
        # only a timing.
        generate_equivalent_pair(0, memory_words, 8)  # fills the small-word cache
        # Seeds whose pairs have blinded registers and blinded memory.
        assert [
            blindsim_calls(generate_equivalent_pair, seed, memory_words, 8) for seed in range(5)
        ] == [10] * 5


class TestNoninterference:
    def test_trivial_halt_passes(self):
        image = assemble(trivial_halt())
        result = check_noninterference(image, trials=10, steps=10, cfg=HW)
        assert result.passed and result.trials == 10

    def test_corpus_passes_both_modes(self):
        for entry in curated_corpus():
            image = assemble(entry.source)
            for mode in Mode:
                cfg = entry.config(mode)
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
            out, memop, control = instruction_semantics(d, inputs, mode)
            if d.opcode is Opcode.ADD and out is not None:
                out = TaggedWord(out.value, False)
            return out, memop, control

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
        assert checker._shrink(s1, s2, HW, 64, mutant, {}) == (s1, s2)
        assert reference_lockstep(s1, s2, HW, 64, mutant) is not None
        assert len(payload_delta(s1, s2)) == result.counterexample.delta_words >= 1
        # Every blinded payload redrawn: the shrunk pair still diverges on
        # fewer differing words.
        wide = redraw_blinded(s1, random.Random(0))
        assert reference_lockstep(s1, wide, HW, 64, mutant) is not None
        t1, t2 = checker._shrink(s1, wide, HW, 64, mutant, {})
        assert t1 == s1 and reference_lockstep(t1, t2, HW, 64, mutant) is not None
        assert 1 <= len(payload_delta(t1, t2)) < len(payload_delta(s1, wide))

    def test_a_shrink_checks_equivalence_once(self, monkeypatch):
        # A candidate copies one payload blinded on both sides, so it is
        # not re-checked: one end-of-trial cross-check, for the one
        # candidate that does not diverge.
        mutant = mutants.add_drops_taint
        result = check_noninterference(None, trials=200, steps=64, cfg=HW, seed=0, semantics=mutant)
        s1, _ = result.counterexample.initial_pair
        wide = redraw_blinded(s1, random.Random(0))
        assert len(payload_delta(s1, wide)) == 24
        calls = []
        real = checker.state_equiv

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(checker, "state_equiv", counted)
        t1, t2 = checker._shrink(s1, wide, HW, 64, mutant, {})
        assert len(calls) == 1
        assert t1 == s1 and len(payload_delta(t1, t2)) == 1

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

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    @pytest.mark.parametrize(
        "source, steps_per_trial",
        [(blinded_fetch_loop(), 0), (blinded_fetch_trap(), 4)],
        ids=["word-0-blinded", "word-0-halts"],
    )
    def test_a_trial_ends_at_the_blinded_fetch_fixed_point(
        self, monkeypatch, cfg, source, steps_per_trial
    ):
        # A machine at pc 0 whose word 0 is blinded traps to pc 0 on every
        # step, so its trial ends before the first step.  A trap whose
        # handler at 0 is clear runs on to the halt: two steps a side.
        steps = []
        real = ListMachine.step

        def counted(self, *args):
            steps.append(self.pc)
            return real(self, *args)

        monkeypatch.setattr(ListMachine, "step", counted)
        result = check_noninterference(assemble(source), trials=5, steps=10_000, cfg=cfg)
        assert (result.passed, result.trials) == (True, 5)
        assert len(steps) == 5 * steps_per_trial

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
            cfg = entry.config(Mode.HARDWARE)
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
        # This variant writes a register on one side only, which does not
        # show in the trace events.
        def add_skips_write_on_odd_secret(d, inputs, mode):
            out, memop, control = instruction_semantics(d, inputs, mode)
            if d.opcode is Opcode.ADD and any(w.blinded and w.value & 1 for w in inputs):
                return None, memop, control
            return out, memop, control

        cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
        for seed in range(3):
            result = self.assert_same_as_reference(None, 200, 64, cfg, seed, add_skips_write_on_odd_secret)
            assert result.counterexample.reason == "successor states not equivalent", seed

    @pytest.mark.parametrize("mode", list(Mode))
    def test_passing_corpus_programs(self, mode):
        for entry in curated_corpus():
            cfg = entry.config(mode)
            result = self.assert_same_as_reference(
                assemble(entry.source), 8, 200, cfg, 13, instruction_semantics, entry.blinded_regs
            )
            assert result.passed, entry.name

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_blinded_fetch_loop_over_a_long_budget(self, mode):
        # The reference steps every trap to the budget; the harness stops
        # at once.  Neither calls the semantics.
        cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
        image = assemble(blinded_fetch_loop())
        result = self.assert_same_as_reference(image, 3, 2_000, cfg, 4, instruction_semantics)
        assert result.passed

    @pytest.mark.parametrize("mode", list(Mode))
    def test_writes_at_different_indices(self, mode):
        # The mutant's register write lands at an index a blinded payload
        # bit picks, so the two sides write different registers while
        # their events match; comparing the two written values alone
        # would miss that the successors differ.
        cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
        mutant = mutants.load_target_follows_secret
        reasons = set()
        for seed in range(3):
            result = self.assert_same_as_reference(None, 200, 64, cfg, seed, mutant)
            reasons.add(result.counterexample and result.counterexample.reason)
        image = assemble("add r3, r1, r2\nhalt\n")
        result = self.assert_same_as_reference(image, 20, 10, cfg, 0, mutant, blinded_regs=(2,))
        reasons.add(result.counterexample.reason)
        assert reasons == {None, "successor states not equivalent"}

    # An equivalent pair at 4 words and 2 lines: r1 clear 5 and r2
    # blinded (8 on one side, 9 on the other), m[1] clear 6 and m[2]
    # clear 5, line 0 holding address 1 and line 1 invalid.
    UNWINDING_PAIR = tuple(
        SystemState(
            pc=0,
            registers=(clear(0), clear(5), blinded(payload)) + (clear(0),) * 29,
            memory=MemoryImage((clear(0), clear(6), clear(5), clear(0))),
            addresses=(1, 0),
            valid=(True, False),
        )
        for payload in (8, 9)
    )
    # Each side's possible writes: none, or one at index 1 or 2 of a clear
    # word or of a blinded one; a line write of address 1 or 2 to line 0
    # or 1.
    WORD_WRITES = (None, (1, clear(5)), (2, clear(5)), (1, blinded(7)), (2, clear(6)))
    LINE_WRITES = (None, (0, 1), (1, 1), (0, 2))

    def test_unwinding_agrees_with_state_equiv_on_every_write_pattern(self):
        # Both sides write any register, word and line from the tables, so
        # the indices match in some patterns and differ in the others, the
        # line writes included: no semantics makes those differ while the
        # events match, since a line write follows from the address the
        # events show and the cache both sides share.
        s1, s2 = self.UNWINDING_PAIR
        assert state_equiv(s1, s2)
        patterns = [
            (register, memory, line)
            for register in self.WORD_WRITES
            for memory in self.WORD_WRITES
            for line in self.LINE_WRITES
        ]
        verdicts = {True: 0, False: 0}
        for writes1 in patterns:
            for writes2 in patterns:
                m1, m2 = ListMachine(s1), ListMachine(s2)
                for m, (register, memory, line) in ((m1, writes1), (m2, writes2)):
                    if register is not None:
                        m.registers[register[0]] = register[1]
                    if memory is not None:
                        m.memory[memory[0]] = memory[1]
                    if line is not None:
                        m.addresses[line[0]], m.valid[line[0]] = line[1], True
                holds = _unwinding_holds(m1, m2, ((), *writes1), ((), *writes2))
                assert holds == state_equiv(m1.state(), m2.state()), (writes1, writes2)
                verdicts[holds] += 1
        assert verdicts == {True: 294, False: 9706}

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


class TestOneEquivalenceForStatesAndMachines:
    """``state_equiv`` judges two :class:`ListMachine` values as it judges
    the two states they hold, wherever a pair-step leaves them."""

    SEMANTICS = (
        instruction_semantics,
        mutants.add_drops_taint,
        mutants.bz_ignores_blinded_condition,
        mutants.cache_sees_blinded_addresses,
        mutants.tag_edit_at_blinded_address,
        mutants.load_target_follows_secret,
    )

    @staticmethod
    def pairs(mode):
        """(config, pair): seeded random pairs, three pairs of each corpus
        program, and pairs of programs that compute on blinded registers."""
        cfg = MachineConfig(mode=mode, memory_words=64, cache_lines=8)
        out = [(cfg, generate_equivalent_pair(seed)) for seed in range(100)]
        rng = random.Random(27)
        for source, blinded_regs in (
            (blinded_branch_fault(), ()),
            (blinded_load_fault(), ()),
            ("add r3, r1, r2\nhalt\n", (2,)),
        ):
            image = assemble(source)
            out += [(cfg, pair_for_program(image, cfg, rng, blinded_regs)) for _ in range(10)]
        for entry in curated_corpus():
            cfg = entry.config(mode)
            image = assemble(entry.source)
            out += [(cfg, pair_for_program(image, cfg, rng, entry.blinded_regs)) for _ in range(3)]
        return out

    @pytest.mark.parametrize("mode", list(Mode))
    def test_after_every_pair_step(self, mode):
        verdicts = set()
        pairs = self.pairs(mode)
        for semantics in self.SEMANTICS:
            for cfg, (s1, s2) in pairs:
                m1, m2 = ListMachine(s1), ListMachine(s2)
                for k in range(48):
                    if m1.status is not Status.RUNNING or m2.status is not Status.RUNNING:
                        break
                    m1.step(cfg, k, semantics)
                    m2.step(cfg, k, semantics)
                    verdict = state_equiv(m1, m2)
                    assert verdict == state_equiv(m1.state(), m2.state()), (semantics, k)
                    # The shipped semantics keeps every pair equivalent.
                    assert verdict or semantics is not instruction_semantics
                    verdicts.add(verdict)
        assert verdicts == {True, False}


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
            return 0, "budget", None

        monkeypatch.setattr("blindsim.checker._run_pair", record)
        result = check_noninterference(
            program, self.TRIALS, 10, cfg, seed=seed, blinded_regs=blinded_regs
        )
        assert result.passed and len(pairs) == self.TRIALS
        return pairs

    @pytest.mark.parametrize("mode", list(Mode))
    def test_corpus_programs(self, monkeypatch, mode):
        for seed, entry in enumerate(curated_corpus()):
            image = assemble(entry.source)
            cfg = entry.config(mode)
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


class TestBrokenDrawsAreReported:
    """A drawn pair runs with no start-of-trial equivalence gate, so a
    draw whose twin differs from side 1 in a clear word must still fail
    the check: a difference that lasts to the end of the trial fails the
    end-of-trial cross-check, and one that a step reads makes the trial
    diverge.  A difference that a step overwrites goes
    unseen by the check; the pinned draw digests and the reference
    draws guard against that."""

    @staticmethod
    def assert_reported(check):
        try:
            result = check()
        except RuntimeError as e:
            assert str(e) == "unwinding check passed a pair that state_equiv rejects"
        else:
            assert not result.passed
            assert result.counterexample is not None

    def test_a_program_twin_that_differs_in_a_clear_register(self, monkeypatch):
        real = checker._redraw
        draws = []

        def broken(s, regs_at, mem_at, rng):
            out = real(s, regs_at, mem_at, rng)
            draws.append(out)
            if len(draws) % 2:
                return out  # side 1
            # r31 is clear and trivial_halt never names it.
            assert not out.registers[31].blinded
            return out.edit(registers=[(31, clear(out.registers[31].value ^ 1))])

        monkeypatch.setattr(checker, "_redraw", broken)
        image = assemble(trivial_halt())
        self.assert_reported(lambda: check_noninterference(image, trials=3, steps=8, cfg=HW))
        assert draws

    def test_a_random_twin_that_differs_in_a_clear_register(self, monkeypatch):
        # At seed 0, r0 of the first pair is clear and the trial neither
        # reads nor writes it, so the difference lasts to the end.
        real = checker.generate_equivalent_pair
        draws = []

        def broken(*args, **kwargs):
            s1, s2 = real(*args, **kwargs)
            draws.append(s1)
            assert not s2.registers[0].blinded
            return s1, s2.edit(registers=[(0, clear(s2.registers[0].value ^ 1))])

        monkeypatch.setattr(checker, "generate_equivalent_pair", broken)
        self.assert_reported(lambda: check_noninterference(None, trials=1, steps=64, cfg=HW, seed=0))
        assert len(draws) == 1


class TestWhatACheckRan:
    """A check reports the pair-steps it stepped and one stop per trial,
    read from each trial's loop exit."""

    def test_halted(self):
        result = check_noninterference(assemble(trivial_halt()), trials=10, steps=10, cfg=HW)
        assert (result.passed, result.pair_steps, result.stops) == (True, 10, ("halted",) * 10)

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_faulted(self, cfg):
        image = assemble(blinded_branch_fault())
        length = run(boot_image(image, cfg), cfg, 100).steps
        result = check_noninterference(image, trials=4, steps=100, cfg=cfg)
        assert result.passed
        assert (result.pair_steps, result.stops) == (4 * length, ("faulted",) * 4)

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_fixed_point(self, cfg):
        result = check_noninterference(assemble(blinded_fetch_loop()), trials=5, steps=100, cfg=cfg)
        assert (result.passed, result.pair_steps, result.stops) == (True, 0, ("fixed-point",) * 5)

    def test_budget(self):
        image = assemble(add_one_pipeline(4, (10, 20, 30, 40)))
        assert run(boot_image(image, HW), HW, 1000).steps > 7
        result = check_noninterference(image, trials=3, steps=7, cfg=HW, seed=1)
        assert (result.passed, result.pair_steps, result.stops) == (True, 21, ("budget",) * 3)

    def test_a_halt_on_the_last_step_is_halted(self):
        image = assemble(trivial_halt())
        result = check_noninterference(image, trials=2, steps=1, cfg=HW)
        assert (result.pair_steps, result.stops) == (2, ("halted",) * 2)

    @pytest.mark.parametrize("cfg", [HW, MODEL], ids=["hardware", "model"])
    def test_pair_steps_are_the_program_length_per_trial(self, cfg):
        # The identity the benchmark's ni-loop-1k invariant checks.
        image = assemble(add_one_pipeline(4, (10, 20, 30, 40)))
        length = run(boot_image(image, cfg), cfg, 1000).steps
        result = check_noninterference(image, trials=6, steps=1000, cfg=cfg, seed=3)
        assert result.passed
        assert (result.pair_steps, result.stops) == (6 * length, ("halted",) * 6)

    def test_a_failing_check_ends_with_diverged(self):
        result = check_noninterference(
            None, trials=200, steps=64, cfg=HW, seed=0, semantics=mutants.add_drops_taint
        )
        assert not result.passed
        assert len(result.stops) == result.trials
        assert result.stops[-1] == "diverged"
        assert "diverged" not in result.stops[:-1]
        assert result.pair_steps >= result.counterexample.step + 1

    def test_the_fields_have_defaults(self):
        result = checker.NoninterferenceResult(passed=True, trials=3)
        assert (result.counterexample, result.pair_steps, result.stops) == (None, 0, ())

    def test_calls_per_drawn_trial_are_pinned(self):
        # A drawn trial runs no start-of-trial state_equiv (7 calls with
        # its list_equiv and MemoryImage calls), and counting its
        # pair-steps and stop adds no call.  Host load cannot move these.
        image = assemble(trivial_halt())
        check_noninterference(image, trials=1, steps=8, cfg=HW, seed=0)
        check_noninterference(None, trials=1, steps=8, cfg=HW, seed=0)
        assert [
            blindsim_calls(check_noninterference, image, trials=trials, steps=8, cfg=HW, seed=0)
            for trials in (1, 2, 3)
        ] == [39, 54, 69]
        assert blindsim_calls(check_noninterference, None, trials=1, steps=8, cfg=HW, seed=0) == 35


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
                s = signature_state(image, sig, cfg, rng)
                result = run(s, cfg, 1000)
                assert not any(isinstance(e, Fault) for e in result.trace)


def random_program(rng):
    """A random program in the shape of a constant-pool program: a pool
    pointer at word 0, 1-8 random instructions over r0-r5 from word 1, a
    halt, then up to 6 data words, about a third of them blinded; one
    data word may hold a code address, so that a ``bz`` can loop back.
    Returns its source, a random signature over r1-r5 and the data base."""
    n = rng.randint(1, 8)
    base = n + 2
    lines = [".entry 1", f".word {base}"]
    for _ in range(n):
        op = rng.choice(RANDOM_OPCODES)
        arity, writes = SHAPES[op]
        operands = ", ".join(f"r{rng.randrange(6)}" for _ in range(arity + writes))
        lines.append(f"{op.name.lower()} {operands}")
    lines.append("halt")
    code_word = rng.randrange(3) if rng.random() < 0.5 else None
    for j in range(rng.randrange(7)):
        if j == code_word:
            value = rng.randint(1, n)
        else:
            value = rng.choice((0, 1, 2, base + rng.randrange(6), rng.getrandbits(64)))
        lines.append(f".word {value}" + (" blinded" if rng.random() < 0.3 else ""))
    sig = TaintSignature({i: rng.choice(list(SigTag)) for i in range(1, 6) if rng.random() < 0.4})
    return "\n".join(lines) + "\n", sig, base


# Loads, stores and branches are drawn more often than the rest, so that
# programs follow pointers, write memory and loop.
RANDOM_OPCODES = (
    *[Opcode.LOAD] * 3, *[Opcode.STORE] * 2, *[Opcode.BZ] * 2, *ARITHMETIC, Opcode.BLND, Opcode.RBLND,
)


class TestRandomPrograms:
    PROGRAMS = 1000

    @pytest.fixture(scope="class")
    def reports(self):
        """(source, cfg, image, sig, report, runs) for each seeded random
        program, in a drawn mode, with or without an unblindable range
        over its first data words; ``runs`` counts the analysis's calls
        of ``checker.run``.  The data words under the range lose their
        blinded tag, since the loader refuses a blinded word there, so
        every program is analyzed.  Each is analyzed once per class."""
        records, runs = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checker, "run", lambda *args: runs.append(args) or run(*args))
            rng = random.Random(37)
            for _ in range(self.PROGRAMS):
                source, sig, base = random_program(rng)
                ranges = ((base, base + 3),) if rng.random() < 0.5 else ()
                if ranges:
                    code, _, data = source.partition("halt\n")
                    words = data.splitlines(keepends=True)
                    cleared = [w.replace(" blinded", "") for w in words[:3]]
                    source = code + "halt\n" + "".join(cleared + words[3:])
                cfg = MachineConfig(rng.choice(list(Mode)), 64, 8, unblindable_ranges=ranges)
                image = assemble(source)
                runs.clear()
                report = analyze(image, sig, cfg)
                records.append((source, cfg, image, sig, report, len(runs)))
        return records

    def test_reports_are_pinned(self, reports):
        # Every report field, the witness's initial state as a snapshot,
        # over programs that load, store, edit tags and branch on every
        # operand class a signature can name.  On a subset, each witness
        # replays to its fault and each compliant program runs without a
        # fault from states with any clear values in its C registers.
        h = hashlib.sha256()
        verdicts = dict.fromkeys(Verdict, 0)
        rng = random.Random(38)
        for n, (source, cfg, image, sig, r, _) in enumerate(reports):
            verdicts[r.verdict] += 1
            w = r.witness
            witness = w and (snapshot(w.initial), w.fault, w.steps, w.pc)
            fields = (source, r.verdict, r.findings, r.iterations, r.bound_exceeded, witness)
            h.update(repr(fields).encode())
            if w is not None and n % 8 == 0:
                result = run(w.initial, cfg, 10_000)
                assert w.fault in [e.kind for e in result.trace if isinstance(e, Fault)], source
            if r.verdict is Verdict.COMPLIANT and n % 4 == 0:
                # Any clear value is consistent with a C-named register.
                cleared = [i for i, tag in sig.registers.items() if tag is SigTag.CLEAR]
                for _ in range(5):
                    values = (0, 1, 2, rng.randrange(64), rng.getrandbits(64))
                    s = signature_state(image, sig, cfg, rng).edit(
                        registers=[(i, TaggedWord(rng.choice(values), False)) for i in cleared]
                    )
                    result = run(s, cfg, 500)
                    assert not any(isinstance(e, Fault) for e in result.trace), (source, snapshot(s))
        assert list(verdicts.values()) == [345, 224, 431]
        assert h.hexdigest() == (
            "592a958e1b9d43d2971147b629cfb61eca251afa50468682010dcbaac12b3139"
        )

    def test_analyze_runs_at_most_one_replay(self, reports):
        # One draw confirms every definite finding, so a report with one
        # costs one run and a report without one costs none.
        replayed = 0
        for source, cfg, image, sig, r, runs in reports:
            definite = any(f.definite and f.fault is not None for f in r.findings)
            assert runs == definite, source
            replayed += definite
        assert replayed > 0

    def test_fixpoint_states_are_canonical(self):
        # No state keeps a word that reads as its summary, so the
        # fixpoint's ``==`` is "reads alike at every register and word".
        rng = random.Random(39)
        states = 0
        for _ in range(300):
            source, sig, base = random_program(rng)
            for mode in Mode:
                analysis = checker._Analysis(assemble(source), sig, MachineConfig(mode, 64, 8))
                analysis.run()
                for s in analysis.states.values():
                    assert all(v != s.rest for v in s.cells.values()), source
                    states += 1
        assert states > 1000
