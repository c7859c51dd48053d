"""Assembler grammar, diagnostics, round-trips, and the image format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim.assembler import (
    AssemblyError,
    ImageFormatError,
    ProgramImage,
    Segment,
    assemble,
    decode_image,
    disassemble,
    encode_image,
)
from blindsim.corpus import curated_corpus
from blindsim.isa import decode
from blindsim.machine import LoadError, MachineConfig, boot_image, overlay_image
from blindsim.model import TaggedWord, blinded, clear

from conftest import MUTATIONS, mutated
from draw_reference import _instruction_word
from helpers import random_instruction


def diag_positions(source):
    with pytest.raises(AssemblyError) as exc:
        assemble(source)
    return [(d.line, d.column, d.message) for d in exc.value.diagnostics]


class TestAssemble:
    def test_xor_encoding_example(self):
        image = assemble("xor r1, r2, r2\n")
        assert image.segments[0].words[0] == clear(0x0000_0000_0202_0108)

    def test_blinded_word_directive(self):
        image = assemble(".org 0x10\n.word 42 blinded\n")
        seg = image.segments[0]
        assert seg.base == 0x10 and seg.words == (blinded(42),)

    def test_labels_resolve_to_addresses(self):
        src = """
        .entry start
        .word pool          # word 0: pointer to the pool
        start:
        load r1, r0
        halt
        pool:
        .word 1
        """
        image = assemble(src)
        assert image.entry_pc == 1
        seg = image.segments[0]
        assert seg.base == 0
        assert seg.words[0] == clear(3)  # pool label address
        assert seg.words[3] == clear(1)

    def test_label_on_same_line_as_statement(self):
        image = assemble("start: halt\n.entry start\n")
        assert image.entry_pc == 0
        assert decode(image.segments[0].words[0].value).opcode.name == "HALT"

    def test_comments_and_blank_lines(self):
        image = assemble("# nothing\n\n   # more nothing\nhalt  # stop\n")
        assert image.word_count() == 1

    def test_entry_defaults_to_zero(self):
        assert assemble("halt\n").entry_pc == 0

    def test_separate_org_blocks_make_segments(self):
        image = assemble(".org 0\nhalt\n.org 8\n.word 7\n")
        assert [s.base for s in image.segments] == [0, 8]

    def test_contiguous_orgs_merge(self):
        image = assemble(".org 0\nhalt\n.org 1\n.word 7\n")
        assert len(image.segments) == 1
        assert len(image.segments[0].words) == 2

    def test_empty_source_is_legal(self):
        image = assemble("")
        assert image.segments == () and image.entry_pc == 0

    def test_all_mnemonics(self):
        src = (
            "halt\nstore r1, r2\nload r3, r4\nbz r5, r6\n"
            "add r7, r8, r9\nsub r1, r2, r3\nmul r4, r5, r6\n"
            "and r7, r8, r9\nxor r1, r2, r3\nblnd r4\nrblnd r5\n"
        )
        image = assemble(src)
        assert image.word_count() == 11
        ops = [decode(w.value).opcode.name for w in image.segments[0].words]
        assert ops == [
            "HALT", "STORE", "LOAD", "BZ", "ADD", "SUB", "MUL", "AND", "XOR",
            "BLND", "RBLND",
        ]


class TestDiagnostics:
    def test_unknown_mnemonic_position(self):
        [(line, col, msg)] = diag_positions("halt\n  frobnicate r1\n")
        assert (line, col) == (2, 3) and "unknown mnemonic" in msg

    def test_bad_register(self):
        [(line, col, msg)] = diag_positions("add r1, r2, r32\n")
        assert (line, col) == (1, 13) and "bad register" in msg

    def test_a_register_name_past_the_int_digit_limit_is_a_diagnostic(self):
        # 5,000 digits exceed int()'s string conversion limit.
        [(line, col, msg)] = diag_positions("halt\nadd r1, r2, r" + "9" * 5000 + "\n")
        assert (line, col) == (2, 13) and "bad register" in msg

    @pytest.mark.parametrize("name", ["r01", "r" + "0" * 5000 + "1"], ids=["r01", "r0...01"])
    def test_leading_zeros_name_a_register(self, name):
        assert assemble(f"add {name}, r2, r3\n") == assemble("add r1, r2, r3\n")

    # The grammar's numerals are ASCII: ``\d`` and ``int()`` alone would
    # read any Unicode decimal digit, so ``r\u0663`` would name r3 and
    # ``\u0661\u0662`` (Arabic-Indic) or ``\uff11\uff12`` (fullwidth)
    # would be 12.
    @pytest.mark.parametrize(
        "source, position, message",
        [
            ("add r1, r2, r\u0663\n", (1, 13), "bad register 'r\u0663'"),
            ("halt\nadd r\u0661, r2, r3\n", (2, 5), "bad register 'r\u0661'"),
            ("halt\nstore r1, r\uff12\n", (2, 11), "bad register 'r\uff12'"),
            (".word \u0661\u0662\n", (1, 7), "bad value '\u0661\u0662'"),
            ("halt\n.word \uff11\uff12\n", (2, 7), "bad value '\uff11\uff12'"),
            (".org 1\u0662\n", (1, 6), "bad value '1\u0662'"),
            (".entry \u0660\nhalt\n", (1, 8), "bad value '\u0660'"),
        ],
        ids=["register", "register-leading", "fullwidth-register", "word", "fullwidth-word",
             "org", "entry"],
    )
    def test_non_ascii_numerals_are_refused(self, source, position, message):
        [(line, col, msg)] = diag_positions(source)
        assert (line, col) == position and msg.startswith(message), msg

    def test_duplicate_label(self):
        [(line, col, msg)] = diag_positions("x:\nhalt\nx:\n")
        assert line == 3 and "duplicate label" in msg

    def test_undefined_label(self):
        [(line, _, msg)] = diag_positions(".word missing\n")
        assert line == 1 and "undefined label" in msg

    def test_wrong_operand_count(self):
        [(line, _, msg)] = diag_positions("add r1, r2\n")
        assert line == 1 and "takes 3 operand(s)" in msg

    def test_org_rejects_label(self):
        [(line, _, msg)] = diag_positions("x:\n.org x\n")
        assert line == 2 and "label not allowed" in msg

    def test_overlapping_writes(self):
        msgs = diag_positions(".org 0\nhalt\n.org 0\n.word 1\n")
        assert any("already written" in m for _, _, m in msgs)

    def test_multiple_diagnostics_collected(self):
        diags = diag_positions("bogus r1\nadd r1, r2\nstore r99, r1\n")
        assert len(diags) == 3
        assert [d[0] for d in diags] == [1, 2, 3]

    def test_value_out_of_range(self):
        [(line, _, msg)] = diag_positions(".word 0x1ffffffffffffffff\n")
        assert "out of 64-bit range" in msg

    def test_stable_diagnostics(self):
        src = "bogus r1\nadd r1, r2\n"
        assert diag_positions(src) == diag_positions(src)

    @pytest.mark.parametrize(
        "source, position, message",
        [
            (".org\n", (1, 1), ".org takes one address"),
            ("halt\n  .org 1, 2\n", (2, 3), ".org takes one address"),
            (".word\n", (1, 1), ".word takes one value"),
            (".word 1 2 blinded\n", (1, 1), ".word takes one value"),
            (".entry\n", (1, 1), ".entry takes one address"),
            (".entry 1 2\n", (1, 1), ".entry takes one address"),
            ("halt\n.text\n", (2, 1), "unknown directive '.text'"),
            (".word 12abc\n", (1, 7), "bad value '12abc'"),
            (".org 0xffffffffffffffff\nhalt\n  halt\n", (3, 3), "address overflows 64 bits"),
            (".entry start\nhalt\n", (1, 8), "undefined label 'start'"),
        ],
        ids=[
            "org-no-arg", "org-two-args", "word-no-arg", "word-two-args",
            "entry-no-arg", "entry-two-args", "unknown-directive", "bad-value",
            "address-past-2**64", "undefined-entry-label",
        ],
    )
    def test_directive_and_value_errors(self, source, position, message):
        assert diag_positions(source) == [(*position, message)]


class TestDisassemble:
    def test_simple_listing(self):
        image = assemble("add r1, r2, r3\nhalt\n")
        text = disassemble(image)
        assert "add r1, r2, r3" in text and "halt" in text

    def test_blinded_word_rendering(self):
        image = assemble(".word 42 blinded\n")
        assert ".word 0x2a blinded" in disassemble(image)

    def test_undecodable_word_rendering(self):
        image = assemble(".word 0xdeadbeef\n")
        assert ".word 0xdeadbeef" in disassemble(image)

    def test_roundtrip_on_corpus(self):
        rng = random.Random(99)
        for _ in range(50):
            image = self._random_image(rng)
            once = assemble(disassemble(image))
            assert once == image
            twice = assemble(disassemble(once))
            assert twice == once

    def test_decoder_agrees_with_assembler_ast(self):
        # random instruction -> canonical text -> assembler -> word ->
        # decoder must reproduce the original instruction exactly
        from blindsim.assembler import render_instruction

        rng = random.Random(101)
        for _ in range(2000):
            d = random_instruction(rng)
            image = assemble(render_instruction(d) + "\n")
            word = image.segments[0].words[0]
            assert not word.blinded
            assert decode(word.value) == d

    @staticmethod
    def _random_image(rng):
        segments = []
        base = 0
        for _ in range(rng.randint(1, 3)):
            base += rng.randint(0, 16)
            words = []
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.6:
                    words.append(TaggedWord(_instruction_word(rng.getrandbits), False))
                else:
                    words.append(
                        TaggedWord(rng.getrandbits(64), rng.random() < 0.3)
                    )
            segments.append(Segment(base, tuple(words)))
            base += len(words) + 1  # keep segments disjoint and separated
        return ProgramImage(rng.randrange(8), tuple(segments))


class TestImageFormat:
    def test_store_load_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            image = TestDisassemble._random_image(rng)
            assert decode_image(encode_image(image)) == image

    def test_header_layout(self):
        image = ProgramImage(5, (Segment(2, (clear(9), blinded(1))),))
        data = encode_image(image)
        assert data[:4] == b"BLIM"
        assert data[4:6] == (1).to_bytes(2, "little")
        assert data[6:14] == (5).to_bytes(8, "little")
        assert data[14:18] == (1).to_bytes(4, "little")
        # segment: base, count, 2 values, 1 bitmap byte (word 1 blinded)
        assert data[18:26] == (2).to_bytes(8, "little")
        assert data[26:34] == (2).to_bytes(8, "little")
        assert data[34:42] == (9).to_bytes(8, "little")
        assert data[42:50] == (1).to_bytes(8, "little")
        assert data[50:] == b"\x02"

    def test_bad_magic(self):
        with pytest.raises(ImageFormatError, match="magic"):
            decode_image(b"NOPE" + bytes(14))

    def test_bad_version(self):
        data = bytearray(encode_image(ProgramImage(0, ())))
        data[4] = 9
        with pytest.raises(ImageFormatError, match="version"):
            decode_image(bytes(data))

    def test_truncation(self):
        data = encode_image(ProgramImage(0, (Segment(0, (clear(1),)),)))
        with pytest.raises(ImageFormatError, match="truncated"):
            decode_image(data[:-1])

    def test_trailing_bytes(self):
        data = encode_image(ProgramImage(0, ()))
        with pytest.raises(ImageFormatError, match="trailing"):
            decode_image(data + b"\x00")

    def test_empty_image_loads_to_clear_memory(self):
        image = decode_image(encode_image(ProgramImage(0, ())))
        s = boot_image(image, MachineConfig(memory_words=16, cache_lines=2))
        assert all(w == clear(0) for w in s.memory)

    def test_empty_segment_rejected(self):
        empty = ProgramImage(0, (Segment(0, (clear(1),)), Segment(5, ())))
        with pytest.raises(ImageFormatError, match="empty segment"):
            decode_image(encode_image(empty))

    def test_overlapping_segments_rejected(self):
        bad = ProgramImage(0, (Segment(0, (clear(1), clear(2))), Segment(1, (clear(3),))))
        with pytest.raises(ImageFormatError, match="overlap"):
            decode_image(encode_image(bad))

    def test_segment_past_the_address_space_rejected(self):
        last = ProgramImage(0, (Segment((1 << 64) - 1, (clear(1),)),))
        assert decode_image(encode_image(last)) == last
        bad = ProgramImage(0, (Segment((1 << 64) - 1, (clear(1), clear(2))),))
        with pytest.raises(ImageFormatError, match="overflows the address space"):
            decode_image(encode_image(bad))


CORPUS_IMAGES = [encode_image(assemble(entry.source)) for entry in curated_corpus()]


class TestImageFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(CORPUS_IMAGES), st.lists(MUTATIONS, min_size=1, max_size=4))
    def test_mutated_image_decodes_or_raises_image_format_error(self, data, mutations):
        try:
            image = decode_image(bytes(mutated(data, mutations)))
        except ImageFormatError:
            return
        assert decode_image(encode_image(image)) == image


CORPUS_SOURCES = [entry.source for entry in curated_corpus()]


class TestAssemblyTextFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CORPUS_SOURCES), st.lists(MUTATIONS, min_size=1, max_size=4))
    def test_mutated_source_assembles_or_gives_positioned_diagnostics(self, source, mutations):
        text = bytes(mutated(source.encode(), mutations)).decode(errors="replace")
        try:
            assemble(text)
        except AssemblyError as exc:
            lines = text.splitlines()
            assert exc.diagnostics
            for d in exc.diagnostics:
                assert 1 <= d.line <= len(lines)
                assert 1 <= d.column <= len(lines[d.line - 1])


class TestLoading:
    def test_boot_image_sets_entry_and_words(self):
        image = assemble(".entry 1\n.word 8\nhalt\n.org 8\n.word 7 blinded\n")
        cfg = MachineConfig(memory_words=16, cache_lines=2)
        s = boot_image(image, cfg)
        assert s.pc == 1
        assert s.memory[0] == clear(8)
        assert s.memory[8] == blinded(7)

    def test_segment_beyond_memory_fails(self):
        image = assemble(".org 20\n.word 1\n")
        with pytest.raises(LoadError):
            boot_image(image, MachineConfig(memory_words=16, cache_lines=2))

    def test_entry_out_of_range_fails(self):
        image = assemble(".entry 100\nhalt\n")
        with pytest.raises(LoadError):
            boot_image(image, MachineConfig(memory_words=16, cache_lines=2))

    @pytest.mark.parametrize("load", ["boot", "overlay"])
    def test_segment_below_address_zero_fails(self, load):
        # A negative base would index memory from its end.
        image = ProgramImage(0, (Segment(-1, (clear(1), clear(2))),))
        cfg = MachineConfig(memory_words=64, cache_lines=8)
        with pytest.raises(LoadError, match=r"segment \[-0x1, 0x1\) starts below address 0"):
            if load == "boot":
                boot_image(image, cfg)
            else:
                overlay_image(boot_image(ProgramImage(0, ()), cfg), image)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, (1 << 64) - 1), st.booleans()),
        min_size=0,
        max_size=6,
    ),
    st.integers(0, 7),
)
def test_image_binary_roundtrip_property(words, entry):
    image = ProgramImage(
        entry,
        (Segment(3, tuple(TaggedWord(v, b) for v, b in words)),) if words else (),
    )
    assert decode_image(encode_image(image)) == image
