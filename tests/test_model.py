"""Properties of tagged words, state equivalence, and redaction."""

import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim.model import (
    MASK64,
    REG_COUNT,
    FaultKind,
    MemoryImage,
    Status,
    SystemState,
    TaggedWord,
    _new_object,
    _set_blinded,
    _set_value,
    blinded,
    clear,
    list_equiv,
    redact,
    snapshot,
    state_equiv,
    value_equiv,
)

words = st.builds(TaggedWord, st.integers(0, MASK64), st.booleans())
word_lists = st.lists(words, max_size=8)


@st.composite
def aliased_pairs(draw) -> tuple[list[TaggedWord], list[TaggedWord]]:
    """Two lists over one small pool of words: one list twice, or a list
    and a copy of it whose entries are each the same object, an equal but
    distinct word, or another pool word, perhaps with one more word."""
    pool = draw(st.lists(words, min_size=1, max_size=4))
    index = st.integers(0, len(pool) - 1)
    xs = [pool[i] for i in draw(st.lists(index, max_size=8))]
    if draw(st.booleans()):
        return xs, xs
    ys = []
    for x in xs:
        how = draw(st.sampled_from(("same", "copy", "other")))
        if how == "copy":
            x = TaggedWord(x.value, x.blinded)
        ys.append(pool[draw(index)] if how == "other" else x)
    ys += [pool[i] for i in draw(st.lists(index, max_size=1))]
    return (xs, ys) if draw(st.booleans()) else (ys, xs)


def random_state(rng: random.Random, regs: int = 8, mem: int = 16, lines: int = 4) -> SystemState:
    def w() -> TaggedWord:
        return TaggedWord(rng.getrandbits(64), rng.random() < 0.4)

    status = rng.choice([Status.RUNNING, Status.HALTED, Status.FAULTED])
    fault = rng.choice(list(FaultKind)) if status is Status.FAULTED else None
    return SystemState(
        pc=rng.randrange(mem),
        registers=tuple(w() for _ in range(regs)),
        memory=MemoryImage(tuple(w() for _ in range(mem))),
        addresses=tuple(rng.getrandbits(16) for _ in range(lines)),
        valid=tuple(rng.random() < 0.5 for _ in range(lines)),
        status=status,
        fault=fault,
    )


def equivalent_twin(rng: random.Random, s: SystemState) -> SystemState:
    """Re-randomize every blinded payload; equivalent by construction."""
    def twin(ws):
        return tuple(
            TaggedWord(rng.getrandbits(64), True) if w.blinded else w for w in ws
        )

    return SystemState(
        pc=s.pc,
        registers=twin(s.registers),
        memory=MemoryImage(twin(s.memory.words)),
        addresses=s.addresses,
        valid=s.valid,
        status=s.status,
        fault=s.fault,
    )


class TestValueEquiv:
    def test_both_blinded_ignores_payload(self):
        assert value_equiv(blinded(5), blinded(9))

    def test_equal_clear_values(self):
        assert value_equiv(clear(7), clear(7))

    def test_tag_mismatch(self):
        assert not value_equiv(clear(7), blinded(7))
        assert not value_equiv(blinded(7), clear(7))

    def test_unequal_clear_values(self):
        assert not value_equiv(clear(7), clear(8))

    @given(words)
    def test_reflexive(self, a):
        assert value_equiv(a, a)

    @given(words, words)
    def test_symmetric(self, a, b):
        assert value_equiv(a, b) == value_equiv(b, a)

    @given(words, words, words)
    def test_transitive(self, a, b, c):
        if value_equiv(a, b) and value_equiv(b, c):
            assert value_equiv(a, c)


class TestListEquiv:
    def test_pointwise(self):
        assert list_equiv([blinded(1), clear(2)], [blinded(8), clear(2)])

    def test_length_mismatch(self):
        assert not list_equiv([clear(2)], [clear(2), clear(2)])

    def test_empty(self):
        assert list_equiv([], [])

    @given(word_lists)
    def test_reflexive(self, xs):
        assert list_equiv(xs, xs)

    @given(word_lists, word_lists)
    def test_symmetric(self, xs, ys):
        assert list_equiv(xs, ys) == list_equiv(ys, xs)

    @given(word_lists, word_lists, word_lists)
    def test_transitive(self, xs, ys, zs):
        if list_equiv(xs, ys) and list_equiv(ys, zs):
            assert list_equiv(xs, zs)

    @given(word_lists, word_lists)
    def test_agrees_with_value_equiv(self, xs, ys):
        expected = len(xs) == len(ys) and all(
            value_equiv(a, b) for a, b in zip(xs, ys)
        )
        assert list_equiv(xs, ys) == expected

    @given(aliased_pairs())
    def test_shared_words_agree_with_value_equiv(self, pair):
        # list_equiv passes a shared word without reading it.
        xs, ys = pair
        assert list_equiv(xs, ys) == (len(xs) == len(ys) and all(map(value_equiv, xs, ys)))


class TestStateEquiv:
    def test_blinded_payload_may_differ(self):
        rng = random.Random(11)
        # Force at least one blinded memory word, then vary only its payload.
        s1 = random_state(rng).edit(memory=[(3, blinded(0xAAAA))])
        s2 = s1.edit(memory=[(3, blinded(0x5555))])
        assert state_equiv(s1, s2)

    def test_pc_difference(self):
        s = SystemState.initial(8, 2)
        assert not state_equiv(s, s.edit(pc=s.pc + 1))

    def test_reflexive(self):
        rng = random.Random(5)
        for _ in range(50):
            s = random_state(rng)
            assert state_equiv(s, s)

    def test_symmetric_transitive_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(200):
            s = random_state(rng)
            t = equivalent_twin(rng, s)
            u = equivalent_twin(rng, s)
            assert state_equiv(s, t) and state_equiv(t, s)
            assert state_equiv(t, u)  # transitivity through s
            v = random_state(rng)
            assert state_equiv(s, v) == state_equiv(v, s)

    def test_clear_value_difference_detected(self):
        s = SystemState.initial(8, 2)
        assert not state_equiv(s, s.edit(memory=[(2, clear(9))]))

    def test_tag_difference_detected(self):
        s = SystemState.initial(8, 2)
        assert not state_equiv(s, s.edit(memory=[(2, blinded(0))]))


class TestRedact:
    def test_blinded_register_zeroed(self):
        s = SystemState.initial(8, 2).edit(registers=[(3, blinded(42))])
        r = redact(s)
        assert r.registers[3] == blinded(0)
        assert r.registers[0] == clear(0)
        assert r.memory == s.memory and r.pc == s.pc
        assert (r.addresses, r.valid) == (s.addresses, s.valid)

    def test_identity_on_clear_states(self):
        s = SystemState.initial(8, 2)
        assert redact(s) == s

    def test_idempotent_and_equivalent(self):
        rng = random.Random(23)
        for _ in range(300):
            s = random_state(rng)
            r = redact(s)
            assert state_equiv(s, r)
            assert redact(r) == r

    def test_canonical_form_for_equivalence_classes(self):
        rng = random.Random(29)
        for _ in range(300):
            s1 = random_state(rng)
            s2 = equivalent_twin(rng, s1)
            assert redact(s1) == redact(s2)


class TestSnapshot:
    def test_golden(self):
        s = SystemState.initial(8, cache_lines=2).edit(
            pc=1,
            registers=[(2, blinded(42)), (3, clear(7))],
            memory=[(5, clear(0x10)), (6, blinded(0))],
            lines=[(1, 0x23)],
            status=Status.HALTED,
        )
        assert snapshot(s) == (
            "pc=0x1\n"
            "r2=B:0x2a\n"
            "r3=C:0x7\n"
            "m5=C:0x10\n"
            "m6=B:0x0\n"
            "cache1=1:0x23\n"
            "status=halted\n"
        )

    def test_fault_status_word(self):
        s = SystemState.initial(4, 2).edit(
            status=Status.FAULTED, fault=FaultKind.BLINDED_BRANCH
        )
        assert snapshot(s).splitlines()[-1] == "status=faulted:blinded-branch"

    def test_equivalent_states_redact_to_identical_snapshots(self):
        rng = random.Random(31)
        for _ in range(100):
            s1 = random_state(rng)
            s2 = equivalent_twin(rng, s1)
            assert snapshot(redact(s1)) == snapshot(redact(s2))


class TestContainers:
    def test_tagged_word_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TaggedWord(1 << 64)
        with pytest.raises(ValueError):
            TaggedWord(-1)

    @pytest.mark.parametrize("blind", [False, True])
    def test_slot_built_word_is_a_tagged_word(self, blind):
        # The inline build that the ALU word and the pair draw use: a word
        # whose slots are filled without __init__ is the constructor's word.
        rng = random.Random(11)
        for value in [0, MASK64, *(rng.getrandbits(64) for _ in range(100)), *range(8)]:
            w = _new_object(TaggedWord)
            _set_value(w, value)
            _set_blinded(w, blind)
            ref = TaggedWord(value, blind)
            assert type(w) is TaggedWord
            assert (repr(w), hash(w)) == (repr(ref), hash(ref)) and w == ref
            with pytest.raises(FrozenInstanceError):
                w.value = 1
            with pytest.raises(FrozenInstanceError):
                w.blinded = not blind

    def test_constructors_mask(self):
        # A negative value is taken in two's complement, as word_value
        # takes it; a value outside [-2**63, 2**64) is refused, not wrapped.
        assert blinded(-1).value == MASK64 and clear(-1) == clear(MASK64)
        for make, value in [(clear, 1 << 64), (blinded, 1 << 64), (clear, -(1 << 63) - 1)]:
            with pytest.raises(ValueError, match="out of 64-bit range"):
                make(value)

    def test_memory_store_out_of_range(self):
        m = MemoryImage.zeros(4)
        with pytest.raises(IndexError):
            m.store(4, clear(1))

    def test_store_shares_structure(self):
        m = MemoryImage.zeros(4)
        m2 = m.store(1, clear(5))
        assert m[1] == clear(0) and m2[1] == clear(5)
        assert m2[0] is m[0]

    @pytest.mark.parametrize("memory_words, cache_lines", [(64, 0), (64, -3), (0, 8)])
    def test_a_machine_without_a_cache_line_or_memory_is_refused(self, memory_words, cache_lines):
        # As MachineConfig refuses it: a load or store on a state with no
        # cache line crashed run with ZeroDivisionError.
        with pytest.raises(ValueError, match="memory_words and cache_lines must be positive"):
            SystemState.initial(memory_words, cache_lines)


class TestEdit:
    """``SystemState.edit``, the one way to write words into a state."""

    @staticmethod
    def state() -> SystemState:
        return SystemState.initial(8, cache_lines=4).edit(pc=2)

    @pytest.mark.parametrize(
        "component, index, value",
        [
            pytest.param("registers", -1, clear(1), id="register-below"),
            pytest.param("registers", REG_COUNT, clear(1), id="register-above"),
            pytest.param("memory", -1, clear(1), id="memory-below"),
            pytest.param("memory", 8, clear(1), id="memory-above"),
            pytest.param("lines", -1, 0x23, id="line-below"),
            pytest.param("lines", 4, 0x23, id="line-above"),
        ],
    )
    def test_out_of_range_index_raises(self, component, index, value):
        with pytest.raises(IndexError):
            self.state().edit(**{component: [(index, value)]})

    def test_writes_apply_in_order(self):
        s = self.state().edit(
            registers=[(1, clear(5)), (1, blinded(6))],
            memory=[(7, blinded(1)), (0, clear(2)), (7, clear(3))],
            lines=[(3, 0x23), (3, 0x0B)],
        )
        assert s.registers == (clear(0), blinded(6)) + (clear(0),) * (REG_COUNT - 2)
        assert s.memory == MemoryImage((clear(2),) + (clear(0),) * 6 + (clear(3),))
        assert (s.addresses, s.valid) == ((0, 0, 0, 0x0B), (False, False, False, True))
        assert s.pc == 2 and s.status is Status.RUNNING

    def test_line_write_makes_the_line_valid(self):
        s = self.state().edit(lines=[(1, 0)])
        assert (s.addresses, s.valid) == ((0,) * 4, (False, True, False, False))

    def test_input_unchanged_and_unwritten_components_shared(self):
        s = random_state(random.Random(3))
        t = s.edit(memory=[(2, clear(9))])
        assert s == random_state(random.Random(3))
        assert t.memory[2] == clear(9) and t.memory[0] is s.memory[0]
        assert t.registers is s.registers
        assert t.addresses is s.addresses and t.valid is s.valid
        u = s.edit(pc=1, registers=[(0, clear(1))], lines=[(0, 5)])
        assert u.memory is s.memory and (u.status, u.fault) == (s.status, s.fault)
        assert s.edit() == s and s.edit().memory is s.memory

    def test_status_and_fault_are_set_or_kept(self):
        s = self.state().edit(status=Status.FAULTED, fault=FaultKind.OUT_OF_RANGE)
        assert (s.pc, s.status, s.fault) == (2, Status.FAULTED, FaultKind.OUT_OF_RANGE)
        assert s.edit(pc=0) == SystemState(
            0, s.registers, s.memory, s.addresses, s.valid, s.status, s.fault
        )

    def test_a_status_without_a_fault_clears_the_fault(self):
        faulted = self.state().edit(status=Status.FAULTED, fault=FaultKind.OUT_OF_RANGE)
        restarted = faulted.edit(status=Status.RUNNING)
        assert (restarted.status, restarted.fault) == (Status.RUNNING, None)
        assert faulted.edit(fault=FaultKind.DECODE_ERROR).fault is FaultKind.DECODE_ERROR

    @pytest.mark.parametrize(
        "status", [None, Status.RUNNING, Status.HALTED], ids=["kept", "running", "halted"]
    )
    def test_a_fault_without_faulted_is_refused(self, status):
        with pytest.raises(ValueError, match="does not fit fault out-of-range"):
            self.state().edit(status=status, fault=FaultKind.OUT_OF_RANGE)

    def test_faulted_without_a_fault_is_refused(self):
        with pytest.raises(ValueError, match="status faulted does not fit fault None"):
            self.state().edit(status=Status.FAULTED)

    def test_every_state_has_reg_count_registers(self):
        assert len(self.state().registers) == REG_COUNT == len(SystemState.initial(1, 1).registers)
        with pytest.raises(TypeError):
            SystemState.initial(8, 2, registers=4)


@settings(max_examples=50)
@given(st.integers(0, MASK64), st.booleans())
def test_snapshot_word_roundtrip_via_format(value, tag):
    # The snapshot is a serialization of (value, tag): both survive in text.
    s = SystemState.initial(2, 2).edit(registers=[(0, TaggedWord(value, tag))])
    text = snapshot(s)
    if value == 0 and not tag:
        assert "r0=" not in text
    else:
        assert f"r0={'B' if tag else 'C'}:{value:#x}\n" in text
