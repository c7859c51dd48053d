"""Encoding round-trips and the taint rules of the instruction semantics."""

import hashlib
import itertools
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blindsim.isa import (
    ARITHMETIC,
    SHAPES,
    DecodeError,
    DecodedInstruction,
    EncodeError,
    MemKind,
    MemoryOperation,
    Mode,
    Opcode,
    decode,
    encode,
    instruction_semantics,
)
from blindsim.model import (
    MASK64,
    REG_COUNT,
    ZERO,
    FaultKind,
    Status,
    TaggedWord,
    blinded,
    clear,
    value_equiv,
)

from conftest import random_word, twin_word
from draw_reference import _below, _instruction_word
from helpers import ORACLE_ALU, random_instruction, untagged_semantics


class TestEncode:
    def test_add_layout(self):
        d = DecodedInstruction(Opcode.ADD, (2, 3), 1)
        assert encode(d) == 0x0000_0000_0302_0104

    def test_halt_layout(self):
        assert encode(DecodedInstruction(Opcode.HALT, (), None)) == 0x0000_0000_FFFF_FF00

    def test_xor_same_register_layout(self):
        d = DecodedInstruction(Opcode.XOR, (2, 2), 1)
        assert encode(d) == 0x0000_0000_0202_0108

    def test_store_layout(self):
        d = DecodedInstruction(Opcode.STORE, (4, 5), None)
        assert encode(d) == 0x0000_0000_0504_FF01

    def test_bz_layout(self):
        d = DecodedInstruction(Opcode.BZ, (6, 7), None)
        assert encode(d) == 0x0000_0000_0706_FF03

    def test_register_out_of_range(self):
        with pytest.raises(EncodeError):
            encode(DecodedInstruction(Opcode.ADD, (32, 0), 1))

    def test_unknown_opcode(self):
        with pytest.raises(EncodeError, match="^unknown opcode 66$"):
            encode(DecodedInstruction(0x42, (), None))

    def test_bad_arity(self):
        with pytest.raises(EncodeError):
            encode(DecodedInstruction(Opcode.ADD, (1,), 2))
        with pytest.raises(EncodeError):
            encode(DecodedInstruction(Opcode.HALT, (1,), None))
        with pytest.raises(EncodeError):
            encode(DecodedInstruction(Opcode.BZ, (1, 2), 3))
        with pytest.raises(EncodeError):
            encode(DecodedInstruction(Opcode.ADD, (1, 2), None))


class TestDecode:
    def test_add_example(self):
        assert decode(0x0000_0000_0302_0104) == DecodedInstruction(
            Opcode.ADD, (2, 3), 1
        )

    def test_unknown_opcode(self):
        with pytest.raises(DecodeError):
            decode(0x7F)

    def test_reserved_bytes_must_be_zero(self):
        good = encode(DecodedInstruction(Opcode.ADD, (2, 3), 1))
        with pytest.raises(DecodeError):
            decode(good | (1 << 32))

    def test_register_out_of_range(self):
        # ADD with input1 byte = 0x20 (== REG_COUNT)
        with pytest.raises(DecodeError):
            decode(0x0000_0000_0320_0104)

    def test_absent_marker_enforced(self):
        # HALT with output byte 0x00 instead of 0xFF
        with pytest.raises(DecodeError):
            decode(0x0000_0000_FFFF_0000)
        # plain zero word is not a valid HALT
        with pytest.raises(DecodeError):
            decode(0)

    def test_roundtrip_10k_random_instructions(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            d = random_instruction(rng)
            assert decode(encode(d)) == d

    def test_accept_set_over_operand_sweep(self):
        # Every opcode byte against registers at the edges of the range,
        # out-of-range indices and the absent marker: 5 legal register
        # values give 1 halt + 3 x 25 two-slot + 5 x 125 arithmetic +
        # 2 x 5 tag-edit words.
        operands = (0, 1, 2, 30, 31, 32, 33, 0x7F, 0xFE, 0xFF)
        accepted = 0
        for b0 in range(256):
            for b1, b2, b3 in itertools.product(operands, repeat=3):
                word = b0 | b1 << 8 | b2 << 16 | b3 << 24
                try:
                    d = decode(word)
                except DecodeError:
                    continue
                accepted += 1
                assert encode(d) == word
        assert accepted == 711

    def test_decode_over_a_grid_is_pinned(self):
        # Each result or DecodeError message over every opcode byte in use
        # and its neighbours, operand bytes at the register and marker
        # edges, each reserved-bits pattern, and both ends of the range.
        operands = (0, 31, 32, 0xFE, 0xFF)
        words = [
            b0 | b1 << 8 | b2 << 16 | b3 << 24 | reserved
            for b0 in (*range(0x13), 0xFF)
            for b1, b2, b3 in itertools.product(operands, repeat=3)
            for reserved in (0, 1 << 32, 1 << 63)
        ]
        h = hashlib.sha256()
        for word in (*words, -1, 1 << 64):
            try:
                text = repr(decode(word))
            except DecodeError as exc:
                text = f"DecodeError: {exc}"
            h.update(f"{text}\n".encode())
        assert h.hexdigest() == (
            "01ba81fc25b1c9aa75507d25a87ca3a5ec01c9cc2230d65e5a452311453b343b"
        )

    @given(st.integers(0, (1 << 64) - 1))
    def test_decode_encode_identity_on_valid_words(self, word):
        try:
            d = decode(word)
        except DecodeError:
            return
        assert encode(d) == word


class TestRandomInstruction:
    def test_seeded_stream_is_pinned(self):
        # Seeded tests and the checker's pair generator draw their states
        # from this stream; the digest pins the opcode and register draws.
        rng = random.Random(2024)
        h = hashlib.sha256()
        for _ in range(10_000):
            d = random_instruction(rng)
            h.update(f"{d.opcode.name} {d.inputs} {d.output}\n".encode())
        assert h.hexdigest() == (
            "ae6d22c8d153745dcc04c593c14135c197d84b56bb51c7e0ec66600a9e9e41de"
        )

    def test_word_draw_is_the_instruction_draw(self):
        # The documented order, spelled out: opcode, inputs, register output.
        def by_shape(rng):
            op = rng.choice(tuple(Opcode))
            n_inputs, writes = SHAPES[op]
            inputs = tuple(rng.randrange(REG_COUNT) for _ in range(n_inputs))
            output = rng.randrange(REG_COUNT) if writes else None
            return encode(DecodedInstruction(op, inputs, output))

        words, spelled = random.Random(31), random.Random(31)
        for _ in range(10_000):
            assert _instruction_word(words.getrandbits) == by_shape(spelled)
        assert words.getstate() == spelled.getstate()


# Bounds with every bit length up to 2**70, stressing powers of two
# (where half the draws are rejected) and powers of two plus one.
BOUNDS = st.one_of(
    st.integers(1, 2**70),
    st.integers(0, 70).map(lambda k: 2**k),
    st.integers(0, 70).map(lambda k: 2**k + 1),
)


class TestBoundedDraw:
    @given(n=BOUNDS, seed=st.integers(0, 2**64))
    def test_draw_is_randrange(self, n, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [_below(ours.getrandbits, n) for _ in range(3)] == [
            theirs.randrange(n) for _ in range(3)
        ]
        assert ours.random() == theirs.random()

    @given(size=st.integers(1, 300), seed=st.integers(0, 2**64))
    def test_indexed_draw_is_choice(self, size, seed):
        seq = tuple(range(size))
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [seq[_below(ours.getrandbits, len(seq))] for _ in range(3)] == [
            theirs.choice(seq) for _ in range(3)
        ]
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n", [0, -1, -2**70])
    def test_an_empty_range_raises_like_randrange(self, n):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            rng.randrange(n)
        with pytest.raises(ValueError):
            _below(rng.getrandbits, n)


class TestSpecialCases:
    def test_xor_same_register_blinded_yields_clear_zero(self):
        d = DecodedInstruction(Opcode.XOR, (4, 4), 1)
        w = blinded(0xDEAD)
        out, memop, control = instruction_semantics(d, [w, w])
        assert out == clear(0) and memop is None and control is None

    def test_sub_same_register_blinded_yields_clear_zero(self):
        d = DecodedInstruction(Opcode.SUB, (7, 7), 2)
        w = blinded(99)
        out, _, _ = instruction_semantics(d, [w, w])
        assert out == clear(0)

    def test_sub_equal_values_different_registers_stays_blinded(self):
        d = DecodedInstruction(Opcode.SUB, (1, 2), 3)
        out, _, _ = instruction_semantics(d, [blinded(5), blinded(5)])
        assert out == blinded(0)

    def test_mul_clear_zero_absorbs_blinded(self):
        d = DecodedInstruction(Opcode.MUL, (1, 2), 3)
        out, _, _ = instruction_semantics(d, [clear(0), blinded(77)])
        assert out == clear(0)
        out, _, _ = instruction_semantics(d, [blinded(77), clear(0)])
        assert out == clear(0)

    def test_and_clear_zero_absorbs_blinded(self):
        d = DecodedInstruction(Opcode.AND, (1, 2), 3)
        out, _, _ = instruction_semantics(d, [blinded(0xFFFF), clear(0)])
        assert out == clear(0)

    def test_blinded_zero_does_not_absorb(self):
        d = DecodedInstruction(Opcode.MUL, (1, 2), 3)
        out, _, _ = instruction_semantics(d, [blinded(0), clear(7)])
        assert out == blinded(0)

    def test_add_default_propagation(self):
        d = DecodedInstruction(Opcode.ADD, (1, 2), 3)
        out, memop, control = instruction_semantics(d, [blinded(3), clear(4)])
        assert out == blinded(7) and memop is None and control is None

    def test_add_wraps_mod_2_64(self):
        d = DecodedInstruction(Opcode.ADD, (1, 2), 3)
        out, _, _ = instruction_semantics(d, [clear((1 << 64) - 1), clear(2)])
        assert out == clear(1)

    def test_bz_blinded_condition_traps(self):
        d = DecodedInstruction(Opcode.BZ, (1, 2), None)
        out, memop, control = instruction_semantics(d, [blinded(0), clear(64)])
        assert out is None and memop is None
        assert control is FaultKind.BLINDED_BRANCH

    def test_bz_blinded_target_traps_even_when_not_taken(self):
        d = DecodedInstruction(Opcode.BZ, (1, 2), None)
        _, _, control = instruction_semantics(d, [clear(1), blinded(64)])
        assert control is FaultKind.BLINDED_BRANCH

    def test_bz_taken_and_not_taken(self):
        d = DecodedInstruction(Opcode.BZ, (1, 2), None)
        _, _, control = instruction_semantics(d, [clear(0), clear(64)])
        assert type(control) is int and control == 64
        _, _, control = instruction_semantics(d, [clear(5), clear(64)])
        assert control is None

    def test_store_blinded_address_model_noop(self):
        d = DecodedInstruction(Opcode.STORE, (1, 2), None)
        out, memop, control = instruction_semantics(
            d, [blinded(8), clear(5)], mode=Mode.MODEL
        )
        assert out is None and memop is None and control is None

    def test_store_blinded_address_hardware_faults(self):
        d = DecodedInstruction(Opcode.STORE, (1, 2), None)
        _, memop, control = instruction_semantics(
            d, [blinded(8), clear(5)], mode=Mode.HARDWARE
        )
        assert memop is None
        assert control is FaultKind.BLINDED_ADDRESS

    def test_load_blinded_address_both_modes(self):
        d = DecodedInstruction(Opcode.LOAD, (1,), 2)
        _, memop, control = instruction_semantics(d, [blinded(8)], mode=Mode.MODEL)
        assert memop is None and control is None
        _, memop, control = instruction_semantics(d, [blinded(8)], mode=Mode.HARDWARE)
        assert memop is None and control is FaultKind.BLINDED_ADDRESS

    def test_store_clear_address_emits_memop(self):
        d = DecodedInstruction(Opcode.STORE, (1, 2), None)
        out, memop, control = instruction_semantics(d, [clear(8), blinded(5)])
        assert out is None and control is None
        assert memop == MemoryOperation(MemKind.STORE, 8, 2)

    def test_load_clear_address_emits_memop(self):
        d = DecodedInstruction(Opcode.LOAD, (1,), 2)
        out, memop, control = instruction_semantics(d, [clear(8)])
        assert out is None and control is None
        assert memop == MemoryOperation(MemKind.LOAD, 8, 2)

    def test_blnd_rblnd_blinded_address_follow_address_rule(self):
        for op in (Opcode.BLND, Opcode.RBLND):
            d = DecodedInstruction(op, (1,), None)
            _, memop, control = instruction_semantics(d, [blinded(4)], Mode.MODEL)
            assert memop is None and control is None
            _, _, control = instruction_semantics(d, [blinded(4)], Mode.HARDWARE)
            assert control is FaultKind.BLINDED_ADDRESS

    def test_blnd_rblnd_clear_address_emit_a_tag_edit(self):
        # The tag edit names the address register, not a data register.
        for op, kind in ((Opcode.BLND, MemKind.BLIND), (Opcode.RBLND, MemKind.UNBLIND)):
            d = DecodedInstruction(op, (1,), None)
            for mode in Mode:
                out, memop, control = instruction_semantics(d, [clear(4)], mode)
                assert out is None and control is None
                assert memop == MemoryOperation(kind, 4, 1)

    def test_halt(self):
        d = DecodedInstruction(Opcode.HALT, (), None)
        out, memop, control = instruction_semantics(d, [])
        assert out is None and memop is None
        assert control is Status.HALTED


# The policy's arithmetic over ``ORACLE_ALU``, its result word built by the
# ``TaggedWord`` constructor.
def _oracle_arithmetic(d, inputs):
    op = d.opcode
    a, b = inputs
    if op in (Opcode.SUB, Opcode.XOR) and d.inputs[0] == d.inputs[1]:
        return ZERO, None, None
    if op in (Opcode.MUL, Opcode.AND) and (
        (not a.blinded and a.value == 0) or (not b.blinded and b.value == 0)
    ):
        return ZERO, None, None
    return TaggedWord(ORACLE_ALU[op](a.value, b.value), a.blinded or b.blinded), None, None


class TestArithmeticOracle:
    def test_every_operand_class_pair_matches_the_oracle(self):
        # Clear 0, 1, 2**63, MASK64 and random, blinded 0 and random, as
        # either operand, from the same register and from two.
        rng = random.Random(2029)
        cases = 0
        for _ in range(8):
            classes = [
                clear(0), clear(1), clear(2**63), clear(MASK64), clear(rng.getrandbits(64)),
                blinded(0), blinded(rng.getrandbits(64)),
            ]
            for op, mode, regs in itertools.product(ARITHMETIC, Mode, ((3, 3), (3, 4))):
                d = DecodedInstruction(op, regs, 5)
                for a, b in itertools.product(classes, classes):
                    out, memop, control = instruction_semantics(d, [a, b], mode)
                    expected, expected_memop, expected_control = _oracle_arithmetic(d, [a, b])
                    assert type(out) is TaggedWord
                    assert (out.value, out.blinded) == (expected.value, expected.blinded)
                    assert 0 <= out.value <= MASK64
                    assert memop == expected_memop and control == expected_control
                    cases += 1
        assert cases == 8 * len(ARITHMETIC) * 2 * 2 * 49


    @pytest.mark.parametrize("b_blind", [False, True])
    @pytest.mark.parametrize("a_blind", [False, True])
    def test_alu_word_is_a_tagged_word(self, a_blind, b_blind):
        # The ALU word is built inline with the slot setters; it must be
        # the constructor's word, frozen, tagged as the join of its inputs.
        rng = random.Random(2031)
        for op, mode in itertools.product(ARITHMETIC, Mode):
            d = DecodedInstruction(op, (3, 4), 5)
            for _ in range(20):
                # Nonzero operands from two registers reach the ALU itself.
                a = TaggedWord(rng.getrandbits(64) | 1, a_blind)
                b = TaggedWord(rng.getrandbits(64) | 1, b_blind)
                out, _, _ = instruction_semantics(d, [a, b], mode)
                ref = TaggedWord(out.value, a_blind or b_blind)
                assert type(out) is TaggedWord
                assert (repr(out), hash(out)) == (repr(ref), hash(ref)) and out == ref
                with pytest.raises(FrozenInstanceError):
                    out.value = 1


class TestPolicyIsThePlainIsaOnClearWords:
    """On clear inputs the shipped semantics is the ISA without its tag
    policy (``helpers.untagged_semantics``) for every opcode but ``blnd``
    and ``rblnd``, which are tag edits by definition.  So the precision
    cases ``SELF_ZEROING`` and ``ZERO_ABSORBING`` never change a clear
    result."""

    TAG_EDITS = (Opcode.BLND, Opcode.RBLND)

    @staticmethod
    def assert_plain(d, values, mode):
        """Both semantics agree on ``d`` with register ``r`` holding clear
        ``values[r]``; the inputs of a same-register instruction are equal."""
        inputs = [clear(values[r]) for r in d.inputs]
        policy = instruction_semantics(d, inputs, mode)
        plain = untagged_semantics(d, inputs, mode)
        assert policy == plain and type(policy[2]) is type(plain[2]), (d, inputs, mode)

    def test_every_operand_class(self):
        # Clear 0, 1, 2**63, MASK64 and random in each input register, the
        # registers the same and two.
        rng = random.Random(2034)
        cases = 0
        for _ in range(8):
            classes = [0, 1, 2**63, MASK64, rng.getrandbits(64)]
            for op, mode in itertools.product(Opcode, Mode):
                if op in self.TAG_EDITS:
                    continue
                n_inputs, writes = SHAPES[op]
                for regs in sorted({(3, 3)[:n_inputs], (3, 4)[:n_inputs]}):
                    d = DecodedInstruction(op, regs, 5 if writes else None)
                    for combo in itertools.product(classes, repeat=len(set(regs))):
                        self.assert_plain(d, dict(zip((3, 4), combo)), mode)
                        cases += 1
        # Per mode: halt 1, load 5, and store, bz and the five arithmetic
        # opcodes 5 + 25 each.
        assert cases == 8 * 2 * (1 + 5 + 7 * 30)

    def test_random_instructions(self):
        rng = random.Random(2035)
        opcodes, same_register = set(), 0
        for i in range(2000):
            d = random_instruction(rng)
            while d.opcode in self.TAG_EDITS:
                d = random_instruction(rng)
            values = {
                r: rng.choice((0, 1, 2**63, MASK64, rng.getrandbits(64))) for r in d.inputs
            }
            self.assert_plain(d, values, Mode.MODEL if i % 2 else Mode.HARDWARE)
            opcodes.add(d.opcode)
            same_register += len(set(d.inputs)) < len(d.inputs)
        assert opcodes == set(Opcode) - set(self.TAG_EDITS) and same_register > 0


def _random_inputs(rng, d):
    return [random_word(rng) for _ in d.inputs]


def _equivalent_twin_inputs(rng, inputs):
    return [twin_word(rng, w) for w in inputs]


class TestSemanticsSafety:
    """Equivalent inputs must yield equivalent outputs, identical memory
    operations, and identical control, for every opcode and both modes."""

    def test_randomized_pairs_all_opcodes(self):
        rng = random.Random(20240)
        cases_per_opcode = 10_000
        for opcode in Opcode:
            for i in range(cases_per_opcode):
                d = random_instruction(rng)
                while d.opcode is not opcode:
                    d = random_instruction(rng)
                mode = Mode.MODEL if i % 2 else Mode.HARDWARE
                ins1 = _random_inputs(rng, d)
                ins2 = _equivalent_twin_inputs(rng, ins1)
                out1, mem1, ctl1 = instruction_semantics(d, ins1, mode)
                out2, mem2, ctl2 = instruction_semantics(d, ins2, mode)
                assert (out1 is None) == (out2 is None), (d, ins1, ins2)
                assert out1 is None or value_equiv(out1, out2), (d, ins1, ins2)
                assert mem1 == mem2, (d, ins1, ins2)
                assert type(ctl1) is type(ctl2) and ctl1 == ctl2, (d, ins1, ins2)

    def test_blindedness_monotone_outside_special_cases(self):
        rng = random.Random(77)
        checked = 0
        while checked < 20_000:
            d = random_instruction(rng)
            if d.opcode not in ARITHMETIC:
                continue
            if d.opcode in (Opcode.SUB, Opcode.XOR) and d.inputs[0] == d.inputs[1]:
                continue
            ins = _random_inputs(rng, d)
            if not any(w.blinded for w in ins):
                continue
            if d.opcode in (Opcode.MUL, Opcode.AND) and any(
                not w.blinded and w.value == 0 for w in ins
            ):
                continue
            out, _, _ = instruction_semantics(d, ins)
            assert out.blinded, (d, ins)
            checked += 1

    def test_memops_never_carry_blinded_addresses(self):
        rng = random.Random(88)
        for _ in range(20_000):
            d = random_instruction(rng)
            ins = _random_inputs(rng, d)
            for mode in Mode:
                _, memop, _ = instruction_semantics(d, ins, mode)
                if memop is not None:
                    assert not ins[0].blinded
                    assert memop.address == ins[0].value

    def test_arity_mismatch_rejected(self):
        d = DecodedInstruction(Opcode.ADD, (1, 2), 3)
        with pytest.raises(ValueError):
            instruction_semantics(d, [clear(1)])
