"""Shared randomized-state generators and byte mutations for the test suite."""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import strategies as st

from blindsim import machine
from blindsim.model import TaggedWord

# Hypothesis's pytest plugin imports this module to explain a failing
# test, and it imports libcst when libcst is installed; libcst raises a
# DeprecationWarning on import, which ``-W error`` turns into a pytest
# INTERNALERROR that hides the failure.  Import it once here with that
# warning ignored for this import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def random_word(rng: random.Random, blind_p: float = 0.4, small_p: float = 0.3) -> TaggedWord:
    """Random tagged word; values biased toward small ones so they double
    as plausible addresses."""
    value = rng.randrange(64) if rng.random() < small_p else rng.getrandbits(64)
    return TaggedWord(value, rng.random() < blind_p)


def twin_word(rng: random.Random, w: TaggedWord) -> TaggedWord:
    """Equivalent word: same tag, fresh payload if blinded."""
    return TaggedWord(rng.getrandbits(64), True) if w.blinded else w


@pytest.fixture
def decode_calls(monkeypatch) -> list[int]:
    """Every word the machine decodes from now on, in call order."""
    calls: list[int] = []
    real = machine.decode

    def counting(word: int):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(machine, "decode", counting)
    return calls


#: One edit of a valid encoding: flip a bit, truncate, or append bytes.
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
)


def mutated(data: bytes, mutations) -> bytearray:
    """``data`` with each of ``mutations`` (drawn from MUTATIONS) applied
    in order."""
    out = bytearray(data)
    for kind, *args in mutations:
        if kind == "flip" and out:
            out[args[0] % len(out)] ^= 1 << args[1]
        elif kind == "truncate":
            del out[args[0] % (len(out) + 1):]
        elif kind == "extend":
            out += args[0]
    return out
