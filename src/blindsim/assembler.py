"""Assembly text and binary image formats for the model ISA.

Grammar, one statement per line, ``#`` starts a comment:

    label:                     optional, may precede a statement
    halt
    store rA, rS               mem[rA] <- rS
    load  rD, rA               rD <- mem[rA]
    bz    rC, rT               if rC == 0 jump to rT
    add|sub|mul|and|xor rD, rA, rB
    blnd  rA                   set the tag of mem[rA]
    rblnd rA                   clear the tag of mem[rA] (always refused)
    .org ADDR                  place following words at ADDR
    .word VALUE [blinded]      a data word, optionally tagged
    .entry ADDR|LABEL          initial pc (defaults to 0)

The ISA has no immediates, so labels resolve to plain address values and
are legal wherever a register-free address literal is: in ``.word`` and
``.entry``.  Constants reach registers through the standard prologue
idiom: word 0 holds a pointer to a constant pool whose first entry is 1,
so ``load rP, r0`` then ``load rONE, rP`` bootstraps pointer arithmetic.

Diagnostics carry 1-based line and column positions and are collected
rather than stopping at the first error.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from .isa import SHAPES, DecodedInstruction, DecodeError, decode, encode
from .model import MASK64, REG_COUNT, TaggedWord, word_value

_MNEMONICS = {op.name.lower(): op for op in SHAPES}

_LABEL_RE = re.compile(r"^\s*([A-Za-z_]\w*):")
_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")


@dataclass(frozen=True, slots=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class AssemblyError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("\n".join(str(d) for d in diagnostics))


@dataclass(frozen=True, slots=True)
class Segment:
    base: int
    words: tuple[TaggedWord, ...]


@dataclass(frozen=True, slots=True)
class ProgramImage:
    """Loadable program: entry pc plus disjoint word segments."""

    entry_pc: int
    segments: tuple[Segment, ...]

    def word_count(self) -> int:
        return sum(len(seg.words) for seg in self.segments)


# ---------------------------------------------------------------------------
# Assembling
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    """(token, 1-based column) pairs; commas separate, '#' ends the line."""
    tokens = []
    for m in re.finditer(r"[^\s,#]+|#", text):
        if m.group() == "#":
            break
        tokens.append((m.group(), m.start() + 1))
    return tokens


class _Assembler:
    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []
        self.labels: dict[str, int] = {}
        # (line_no, col, address, payload) where payload is either a
        # DecodedInstruction or a (value-or-label, blinded) data word.
        self.statements: list[tuple] = []
        self.entry: tuple = (0, 0, 0)  # (line, value-or-label, col)
        self.address = 0

    def err(self, line: int, col: int, msg: str) -> None:
        self.diags.append(Diagnostic(line, col, msg))

    def parse_value(self, tok: str, line: int, col: int, allow_label: bool):
        """Integer literal or (when allowed) a label name; None on error.
        A literal's digits are ASCII: ``int()`` alone reads any Unicode
        decimal digit."""
        try:
            if not tok.isascii():
                raise ValueError(tok)
            value = int(tok, 0)
        except ValueError:
            if _NAME_RE.match(tok):
                if allow_label:
                    return tok
                self.err(line, col, f"label not allowed here: {tok!r}")
            else:
                self.err(line, col, f"bad value {tok!r}")
            return None
        try:
            return word_value(value)
        except ValueError:
            self.err(line, col, f"value out of 64-bit range: {tok}")
            return None

    def parse_register(self, tok: str, line: int, col: int) -> int | None:
        # Leading zeros are allowed (r01 is r1), so only the last two
        # digits may be nonzero; int() never sees a long digit string.
        # The digits are ASCII: ``\d`` alone matches any Unicode digit.
        m = re.match(r"^r(\d+)$", tok, re.ASCII)
        if not m or any(map(int, m.group(1)[:-2])) or int(m.group(1)[-2:]) >= REG_COUNT:
            self.err(line, col, f"bad register {tok!r} (expected r0..r{REG_COUNT - 1})")
            return None
        return int(m.group(1)[-2:])

    def first_pass(self, source: str) -> None:
        for line_no, raw in enumerate(source.splitlines(), start=1):
            text = raw
            m = _LABEL_RE.match(text)
            if m:
                name = m.group(1)
                col = m.start(1) + 1
                if name in self.labels:
                    self.err(line_no, col, f"duplicate label {name!r}")
                else:
                    self.labels[name] = self.address
                text = text[: m.start(1)] + " " * (m.end() - m.start(1)) + text[m.end():]
            tokens = _tokenize(text)
            if not tokens:
                continue
            head, col = tokens[0]
            args = tokens[1:]
            if head.startswith("."):
                self.directive(line_no, col, head, args)
            else:
                self.instruction(line_no, col, head, args)

    def directive(self, line_no: int, col: int, head: str, args) -> None:
        if head == ".org":
            if len(args) != 1:
                self.err(line_no, col, ".org takes one address")
                return
            value = self.parse_value(args[0][0], line_no, args[0][1], allow_label=False)
            if value is not None:
                self.address = value
        elif head == ".word":
            blind = False
            if args and args[-1][0] == "blinded":
                blind = True
                args = args[:-1]
            if len(args) != 1:
                self.err(line_no, col, ".word takes one value")
                return
            value = self.parse_value(args[0][0], line_no, args[0][1], allow_label=True)
            if value is not None:
                self.emit(line_no, args[0][1], (value, blind))
        elif head == ".entry":
            if len(args) != 1:
                self.err(line_no, col, ".entry takes one address")
                return
            value = self.parse_value(args[0][0], line_no, args[0][1], allow_label=True)
            if value is not None:
                self.entry = (line_no, value, args[0][1])
        else:
            self.err(line_no, col, f"unknown directive {head!r}")

    def instruction(self, line_no: int, col: int, head: str, args) -> None:
        """Operands are the register output, if any, then the inputs."""
        mnemonic = head.lower()
        op = _MNEMONICS.get(mnemonic)
        if op is None:
            self.err(line_no, col, f"unknown mnemonic {head!r}")
            return
        n_inputs, writes = SHAPES[op]
        arity = n_inputs + writes
        if len(args) != arity:
            self.err(line_no, col, f"{mnemonic} takes {arity} operand(s), got {len(args)}")
            return
        regs = []
        for tok, tok_col in args:
            r = self.parse_register(tok, line_no, tok_col)
            if r is None:
                return
            regs.append(r)
        output = regs.pop(0) if writes else None
        self.emit(line_no, col, DecodedInstruction(op, tuple(regs), output))

    def emit(self, line_no: int, col: int, payload) -> None:
        if self.address > MASK64:
            self.err(line_no, col, "address overflows 64 bits")
            return
        self.statements.append((line_no, col, self.address, payload))
        self.address += 1

    def second_pass(self) -> ProgramImage:
        words: dict[int, TaggedWord] = {}
        writers: dict[int, int] = {}
        for line_no, col, addr, payload in self.statements:
            if addr in words:
                self.err(
                    line_no,
                    col,
                    f"address {addr:#x} already written at line {writers[addr]}",
                )
                continue
            if isinstance(payload, DecodedInstruction):
                word = TaggedWord(encode(payload), False)
            else:
                value, blind = payload
                if isinstance(value, str):
                    if value not in self.labels:
                        self.err(line_no, col, f"undefined label {value!r}")
                        continue
                    value = self.labels[value]
                word = TaggedWord(value, blind)
            words[addr] = word
            writers[addr] = line_no

        line_no, entry, col = self.entry
        if isinstance(entry, str):
            if entry not in self.labels:
                self.err(line_no, col, f"undefined label {entry!r}")
                entry = 0
            else:
                entry = self.labels[entry]

        segments = []
        run_base, run_words = None, []
        for addr in sorted(words):
            if run_base is not None and addr == run_base + len(run_words):
                run_words.append(words[addr])
            else:
                if run_base is not None:
                    segments.append(Segment(run_base, tuple(run_words)))
                run_base, run_words = addr, [words[addr]]
        if run_base is not None:
            segments.append(Segment(run_base, tuple(run_words)))
        return ProgramImage(entry, tuple(segments))


def assemble(source: str) -> ProgramImage:
    """Assemble source text; raises :class:`AssemblyError` with positioned
    diagnostics when anything is wrong."""
    a = _Assembler()
    a.first_pass(source)
    image = a.second_pass()
    if a.diags:
        a.diags.sort(key=lambda d: (d.line, d.column))
        raise AssemblyError(a.diags)
    return image


# ---------------------------------------------------------------------------
# Disassembling
# ---------------------------------------------------------------------------


def render_instruction(d: DecodedInstruction) -> str:
    """Canonical assembly text for one decoded instruction."""
    mnemonic = d.opcode.name.lower()
    regs = d.inputs if d.output is None else (d.output, *d.inputs)
    if not regs:
        return mnemonic
    return f"{mnemonic} " + ", ".join(f"r{r}" for r in regs)


def disassemble(image: ProgramImage) -> str:
    """Re-assemblable listing; undecodable or tagged words become .word."""
    lines = [f".entry {image.entry_pc:#x}"]
    for seg in image.segments:
        lines.append(f".org {seg.base:#x}")
        for w in seg.words:
            if not w.blinded:
                try:
                    lines.append(f"    {render_instruction(decode(w.value))}")
                    continue
                except DecodeError:
                    pass
            suffix = " blinded" if w.blinded else ""
            lines.append(f"    .word {w.value:#x}{suffix}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Binary image format
#
#   magic "BLIM" | version u16 | entry u64 | segment count u32
#   per segment: base u64 | count u64 | count x value u64
#                | taint bitmap, ceil(count/8) bytes, LSB-first
# All integers little-endian.
# ---------------------------------------------------------------------------

MAGIC = b"BLIM"
VERSION = 1


class ImageFormatError(ValueError):
    pass


def encode_image(image: ProgramImage) -> bytes:
    parts = [MAGIC, struct.pack("<HQI", VERSION, image.entry_pc, len(image.segments))]
    for seg in image.segments:
        parts.append(struct.pack("<QQ", seg.base, len(seg.words)))
        parts.append(struct.pack(f"<{len(seg.words)}Q", *(w.value for w in seg.words)))
        bitmap = bytearray((len(seg.words) + 7) // 8)
        for i, w in enumerate(seg.words):
            if w.blinded:
                bitmap[i // 8] |= 1 << (i % 8)
        parts.append(bytes(bitmap))
    return b"".join(parts)


def decode_image(data: bytes) -> ProgramImage:
    """Parse the binary image format; strict about magic, version,
    truncation, trailing bytes, empty segments, and segment overlap."""
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ImageFormatError("truncated image")
        chunk = view[pos: pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise ImageFormatError("bad magic")
    (version,) = struct.unpack("<H", take(2))
    if version != VERSION:
        raise ImageFormatError(f"unsupported version {version}")
    entry, seg_count = struct.unpack("<QI", take(12))
    segments = []
    for _ in range(seg_count):
        base, count = struct.unpack("<QQ", take(16))
        if count == 0:
            raise ImageFormatError("empty segment")
        if count > (len(view) - pos) // 8:
            raise ImageFormatError("truncated image")
        values = struct.unpack(f"<{count}Q", take(8 * count))
        bitmap = bytes(take((count + 7) // 8))
        words = tuple(
            TaggedWord(v, bool(bitmap[i // 8] >> (i % 8) & 1))
            for i, v in enumerate(values)
        )
        if base + count > (1 << 64):
            raise ImageFormatError("segment overflows the address space")
        segments.append(Segment(base, words))
    if pos != len(view):
        raise ImageFormatError("trailing bytes after image")
    spans = sorted((s.base, s.base + len(s.words)) for s in segments)
    for (_, e1), (s2, _) in zip(spans, spans[1:]):
        if s2 < e1:
            raise ImageFormatError("overlapping segments")
    return ProgramImage(entry, tuple(segments))
