"""Deliberately broken semantics/engine variants for detector validation.

Each mutant models a realistic implementation slip.  The acceptance suite
asserts that the harness catches every one of them; none of these are
reachable from library code.
"""

from __future__ import annotations

from blindsim.engine import EncryptionEngine, seal_envelope, words_to_bytes
from blindsim.isa import MemKind, MemoryOperation, Mode, Opcode, instruction_semantics
from blindsim.model import FaultKind, TaggedWord


def add_drops_taint(d, inputs, mode=Mode.HARDWARE):
    """ADD forgets to propagate the blindedness bit."""
    out, memop, control = instruction_semantics(d, inputs, mode)
    if d.opcode is Opcode.ADD and out is not None:
        out = TaggedWord(out.value, False)
    return out, memop, control


def bz_ignores_blinded_condition(d, inputs, mode=Mode.HARDWARE):
    """BZ branches on the payload of a blinded condition instead of
    trapping."""
    if d.opcode is Opcode.BZ:
        cond, target = inputs
        if target.blinded:
            return None, None, FaultKind.BLINDED_BRANCH
        return None, None, target.value if cond.value == 0 else None
    return instruction_semantics(d, inputs, mode)


def cache_sees_blinded_addresses(d, inputs, mode=Mode.HARDWARE):
    """Model-mode LOAD/STORE with a blinded address emits the memory
    operation anyway, pushing the secret payload into the cache path."""
    if (
        mode is Mode.MODEL
        and d.opcode in (Opcode.STORE, Opcode.LOAD)
        and inputs[0].blinded
    ):
        if d.opcode is Opcode.STORE:
            memop = MemoryOperation(MemKind.STORE, inputs[0].value, d.inputs[1])
        else:
            memop = MemoryOperation(MemKind.LOAD, inputs[0].value, d.output)
        return None, memop, None
    return instruction_semantics(d, inputs, mode)


def tag_edit_at_blinded_address(d, inputs, mode=Mode.HARDWARE):
    """Model-mode BLND/RBLND with a blinded address retags the word the
    secret payload names instead of doing nothing."""
    if mode is Mode.MODEL and d.opcode in (Opcode.BLND, Opcode.RBLND) and inputs[0].blinded:
        kind = MemKind.BLIND if d.opcode is Opcode.BLND else MemKind.UNBLIND
        return None, MemoryOperation(kind, inputs[0].value, d.inputs[0]), None
    return instruction_semantics(d, inputs, mode)


def load_target_follows_secret(d, inputs, mode=Mode.HARDWARE):
    """ADD with a clear first operand and a blinded second one loads from
    the first operand's address, into its output register or the one next
    to it as the blinded payload's low bit says.  Both sides of a pair
    emit the same events, but their register writes land at different
    indices."""
    if d.opcode is Opcode.ADD and not inputs[0].blinded and inputs[1].blinded:
        register = d.output ^ (inputs[1].value & 1)
        return None, MemoryOperation(MemKind.LOAD, inputs[0].value, register), None
    return instruction_semantics(d, inputs, mode)


class ExportLeaksKeyEngine(EncryptionEngine):
    """Export reuses session-key bytes as the nonce, leaking them into the
    exported artifact."""

    def export_region(self, memory, src: int, n: int) -> bytes:
        key = self._require_key()
        payload = words_to_bytes(w.value for w in memory[src: src + n])
        nonce = key.key[:12]
        return seal_envelope(key.key, nonce, payload)


class ImportWritesClearEngine(EncryptionEngine):
    """Import decrypts correctly but forgets to set the blindedness tags."""

    def import_region(self, memory, dst: int, envelope: bytes) -> list:
        writes = super().import_region(memory, dst, envelope)
        return [(a, TaggedWord(w.value, False)) for a, w in writes]
