"""The lockstep pair draws as they were written before they were inlined.

``generate_equivalent_pair``, ``_redraw`` and ``_redrawn`` are kept here
in that form, with the instruction draw ``_instruction_word`` they
called, so that a test can compare the shipped draws with them word for
word: every word goes through the ``TaggedWord`` constructor and every
bounded integer through ``_below``, the ``randrange`` reference, or its
loop.  The tests that draw a random instruction word call
``_instruction_word`` too.  Test-only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import random
from typing import Sequence

from blindsim.checker import _DRAWS, _DRAWS_BITS, _N_DRAWS, _REG_BITS, _SMALL_BLINDED, _small_words
from blindsim.model import REG_COUNT, MemoryImage, SystemState, TaggedWord, check_machine_size


def _below(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` through ``rng``'s bound ``getrandbits``.

    CPython's ``_randbelow`` rejection loop: draw ``n.bit_length()`` bits
    until the draw is below ``n``.  It gives the same value and leaves the
    generator in the same state as ``randrange(n)`` (and ``choice(seq)``
    is ``seq[_below(getrandbits, len(seq))]``).  Raises ValueError for
    ``n <= 0``, as ``randrange`` does, where the bare loop would never end.
    """
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _instruction_word(getrandbits) -> int:
    r = getrandbits(_DRAWS_BITS)
    while r >= _N_DRAWS:
        r = getrandbits(_DRAWS_BITS)
    word, shifts = _DRAWS[r]
    for shift in shifts:
        r = getrandbits(_REG_BITS)
        while r >= REG_COUNT:
            r = getrandbits(_REG_BITS)
        word |= r << shift
    return word


def _redraw(s: SystemState, regs_at: Sequence[int], mem_at: Sequence[int], rng) -> SystemState:
    registers, memory = s.registers, s.memory
    if regs_at:
        registers = _redrawn(registers, regs_at, rng)
    if mem_at:
        memory = MemoryImage(_redrawn(memory.words, mem_at, rng))
    return SystemState(s.pc, registers, memory, s.addresses, s.valid, s.status, s.fault)


def _redrawn(words: tuple[TaggedWord, ...], at: Sequence[int], rng) -> tuple[TaggedWord, ...]:
    rand, getrandbits = rng.random, rng.getrandbits
    out = list(words)
    for i in at:
        out[i] = (TaggedWord(getrandbits(64), True) if rand() < 0.7
                  else _SMALL_BLINDED[_below(getrandbits, 4)])
    return tuple(out)


def generate_equivalent_pair(
    seed: int,
    memory_words: int = 64,
    cache_lines: int = 8,
) -> tuple[SystemState, SystemState]:
    check_machine_size(memory_words, cache_lines)
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits
    small = _small_words(memory_words)
    # A word is an instruction word (memory only), a small value or a
    # 64-bit value; the last two are the data words registers draw.
    words: list[TaggedWord] = []
    blinded_at: list[int] = []
    for i in range(memory_words + REG_COUNT):
        if i < memory_words and rand() < 0.65:
            w = TaggedWord(_instruction_word(getrandbits), rand() < 0.15)
        elif rand() < 0.5:
            w = small[_below(getrandbits, memory_words)][rand() < 0.3]
        else:
            w = TaggedWord(getrandbits(64), rand() < 0.3)
        if w.blinded:
            blinded_at.append(i)
        words.append(w)
    addresses = tuple([_below(getrandbits, memory_words) for _ in range(cache_lines)])
    valid = tuple([rand() < 0.5 for _ in range(cache_lines)])
    s1 = SystemState(
        pc=_below(getrandbits, memory_words),
        registers=tuple(words[memory_words:]),
        memory=MemoryImage(tuple(words[:memory_words])),
        addresses=addresses,
        valid=valid,
    )
    regs_at = [i - memory_words for i in blinded_at if i >= memory_words]
    mem_at = [i for i in blinded_at if i < memory_words]
    return s1, _redraw(s1, regs_at, mem_at, rng)
