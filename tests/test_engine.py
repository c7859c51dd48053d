"""Engine behavior: import/export round-trips, sealing, nonce discipline.

The AEAD cross-checks use the independent RFC-construction oracle in
``aead_oracle``; the engine itself is backed by the cryptography library,
so agreement between the two is meaningful.
"""

import hmac
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsim.engine import (
    SEAL_LABEL,
    AuthError,
    EncryptionEngine,
    EngineError,
    NoKeyError,
    RangeError,
    SealedKey,
    SessionKey,
    bytes_to_words,
    client_decrypt,
    client_encrypt,
    key_id_for,
    seal_envelope,
    words_to_bytes,
)
from blindsim.model import MemoryImage, blinded, clear

import aead_oracle
from conftest import MUTATIONS, mutated

RFC_KEY = bytes.fromhex(
    "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
)
RFC_NONCE = bytes.fromhex("070000004041424344454647")
RFC_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
RFC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC_TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")
RFC_CT_PREFIX = bytes.fromhex("d31a8d34648e60db7b86afbc53ef7ec2")


def make_engine(root=b"R" * 32, key=b"K" * 32):
    engine = EncryptionEngine(root)
    session = SessionKey.from_bytes(key)
    engine.install_session_key(session)
    return engine, session


class TestOracleItself:
    def test_rfc_vector(self):
        out = aead_oracle.aead_encrypt(RFC_KEY, RFC_NONCE, RFC_PLAINTEXT, RFC_AAD)
        assert out[-16:] == RFC_TAG
        assert out[:16] == RFC_CT_PREFIX
        assert aead_oracle.aead_decrypt(RFC_KEY, RFC_NONCE, out, RFC_AAD) == RFC_PLAINTEXT

    def test_tamper_detected(self):
        out = bytearray(aead_oracle.aead_encrypt(RFC_KEY, RFC_NONCE, b"hi" * 8))
        out[3] ^= 1
        with pytest.raises(ValueError):
            aead_oracle.aead_decrypt(RFC_KEY, RFC_NONCE, bytes(out))


class TestImportExport:
    def test_import_of_export_is_identity_with_tags(self):
        # An export is opened and re-sealed by the client: the engine
        # imports only client-direction envelopes.
        engine, session = make_engine()
        mem = MemoryImage(tuple(clear(v) for v in range(16)))
        words = client_decrypt(session, engine.export_region(mem, src=4, n=3))
        envelope = client_encrypt(session, words, counter=0)
        out = engine.import_region(mem, dst=10, envelope=envelope)
        assert [w.value for w in out.words[10:13]] == [4, 5, 6]
        assert all(w.blinded for w in out.words[10:13])
        assert out.words[:10] == mem.words[:10]

    def test_flipped_tag_bit_leaves_memory_unchanged(self):
        engine, session = make_engine()
        mem = MemoryImage.zeros(8)
        envelope = bytearray(client_encrypt(session, [0, 0], counter=0))
        envelope[-1] ^= 0x80
        with pytest.raises(AuthError):
            engine.import_region(mem, 0, bytes(envelope))

    def test_import_client_encrypted_words_cross_checked(self):
        engine, session = make_engine()
        mem = MemoryImage.zeros(8)
        # build the envelope with the independent oracle, not the library
        nonce = bytes([0x43]) + session.key_id[:3] + struct.pack(">Q", 7)
        body = aead_oracle.aead_encrypt(
            session.key, nonce, words_to_bytes([1, 2, 3])
        )
        out = engine.import_region(mem, 2, nonce + body)
        assert out.words[2:5] == (blinded(1), blinded(2), blinded(3))

    def test_client_encrypt_matches_oracle(self):
        _, session = make_engine()
        envelope = client_encrypt(session, [9, 8], counter=5)
        nonce, body = envelope[:12], envelope[12:]
        expected = aead_oracle.aead_encrypt(session.key, nonce, words_to_bytes([9, 8]))
        assert body == expected

    def test_export_decrypts_with_oracle(self):
        engine, session = make_engine()
        mem = MemoryImage((clear(11), blinded(22), clear(33)))
        envelope = engine.export_region(mem, 0, 3)
        nonce, body = envelope[:12], envelope[12:]
        payload = aead_oracle.aead_decrypt(session.key, nonce, body)
        assert bytes_to_words(payload) == (11, 22, 33)

    def test_export_then_client_decrypt(self):
        engine, session = make_engine()
        mem = MemoryImage(tuple(blinded(v * 3) for v in range(6)))
        envelope = engine.export_region(mem, 1, 4)
        assert client_decrypt(session, envelope) == (3, 6, 9, 12)

    def test_two_exports_of_identical_plaintext_differ(self):
        engine, _ = make_engine()
        mem = MemoryImage.zeros(4)
        e1 = engine.export_region(mem, 0, 4)
        e2 = engine.export_region(mem, 0, 4)
        assert e1 != e2  # fresh nonce each time
        assert e1[:12] != e2[:12]

    def test_range_errors(self):
        # A negative dst, src or n would otherwise slice from the end: the
        # import would grow memory, the exports would read the wrong words.
        engine, session = make_engine()
        mem = MemoryImage.zeros(4)
        before = mem.words
        for src, n in ((2, 3), (-1, 1), (0, -1)):
            with pytest.raises(RangeError):
                engine.export_region(mem, src, n)
            assert mem.words == before
        for counter, (dst, values) in enumerate(((2, [0, 0, 0]), (-2, [7, 7, 7]))):
            envelope = client_encrypt(session, values, counter=counter)
            with pytest.raises(RangeError):
                engine.import_region(mem, dst, envelope)
            assert mem.words == before

    def test_no_key(self):
        engine = EncryptionEngine(b"R" * 32)
        mem = MemoryImage.zeros(4)
        with pytest.raises(NoKeyError):
            engine.export_region(mem, 0, 1)

    def test_import_rejects_misaligned_plaintext(self):
        engine, session = make_engine()
        nonce = bytes([0x43]) + session.key_id[:3] + struct.pack(">Q", 0)
        body = aead_oracle.aead_encrypt(session.key, nonce, b"12345")
        with pytest.raises(AuthError):
            engine.import_region(MemoryImage.zeros(4), 0, nonce + body)

    def test_import_is_all_or_nothing_region(self):
        engine, session = make_engine()
        mem = MemoryImage(tuple(clear(v) for v in range(8)))
        envelope = client_encrypt(session, range(4), counter=0)
        out = engine.import_region(mem, 4, envelope)
        # the full region is blinded; no partially-clear plaintext exists
        assert all(w.blinded for w in out.words[4:8])

    def test_reflected_export_is_refused(self):
        # The engine's own export authenticates under the session key, but
        # its nonce has the engine direction: it must not land as blinded
        # words.
        engine, _ = make_engine()
        mem = MemoryImage(tuple(clear(v) for v in range(8)))
        envelope = engine.export_region(mem, 0, 4)
        with pytest.raises(AuthError):
            engine.import_region(mem, 4, envelope)

    def test_client_nonce_of_another_key_is_refused(self):
        engine, session = make_engine()
        other = SessionKey.from_bytes(b"O" * 32)
        assert other.key_id[:3] != session.key_id[:3]
        nonce = bytes([0x43]) + other.key_id[:3] + struct.pack(">Q", 0)
        envelope = seal_envelope(session.key, nonce, words_to_bytes([1, 2]))
        with pytest.raises(AuthError):
            engine.import_region(MemoryImage.zeros(4), 0, envelope)


class TestNonceDiscipline:
    def test_export_counter_strictly_increases(self):
        engine, _ = make_engine()
        mem = MemoryImage.zeros(4)
        nonces = []
        for i in range(20):
            assert engine.export_counter == i
            nonces.append(engine.export_region(mem, 0, 1)[:12])
        assert len(set(nonces)) == 20

    def test_counter_survives_seal_load(self):
        engine, _ = make_engine()
        mem = MemoryImage.zeros(4)
        n1 = engine.export_region(mem, 0, 1)[:12]
        sealed = engine.seal_current_key()
        engine.load_sealed_key(sealed)
        n2 = engine.export_region(mem, 0, 1)[:12]
        assert n1 != n2

    def test_a_stale_blob_does_not_wind_the_counter_back(self):
        # Seal at counter 0, load, export, then load the counter-0 blob
        # again: the next export must not reuse the first export's nonce.
        engine, _ = make_engine()
        mem = MemoryImage(tuple(clear(v) for v in range(4)))
        stale = engine.seal_current_key()
        engine.load_sealed_key(stale)
        first = engine.export_region(mem, 0, 2)
        engine.load_sealed_key(stale)
        assert engine.export_counter == 1
        second = engine.export_region(mem, 2, 2)
        assert first[:12] != second[:12]
        engine.seal_current_key()
        engine.load_sealed_key(stale)
        assert engine.export_counter == 2

    def test_reinstalling_a_key_keeps_its_counter(self):
        engine, session = make_engine()
        mem = MemoryImage.zeros(4)
        first = engine.export_region(mem, 0, 1)
        engine.install_session_key(session)
        assert engine.export_counter == 1
        assert engine.export_region(mem, 0, 1)[:12] != first[:12]

    def test_another_key_is_refused_until_the_slot_is_sealed(self):
        engine, session = make_engine()
        other = SessionKey.from_bytes(b"O" * 32)
        with pytest.raises(EngineError, match="another session key"):
            engine.install_session_key(other)
        assert engine.current_key_id == session.key_id
        sealed = engine.seal_current_key()
        engine.install_session_key(other)
        assert engine.current_key_id == other.key_id
        with pytest.raises(EngineError):
            engine.install_session_key(session)
        engine.seal_current_key()
        engine.load_sealed_key(sealed)
        assert engine.current_key_id == session.key_id

    def test_a_blob_ahead_of_the_mark_raises_it(self):
        # A blob from another engine on the same root key, three exports on.
        ahead, session = make_engine()
        for _ in range(3):
            ahead.export_region(MemoryImage.zeros(4), 0, 1)
        engine, _ = make_engine()
        engine.export_region(MemoryImage.zeros(4), 0, 1)
        engine.load_sealed_key(ahead.seal_current_key())
        assert engine.current_key_id == session.key_id and engine.export_counter == 3

    def test_client_and_engine_nonce_spaces_disjoint(self):
        _, session = make_engine()
        client_nonce = client_encrypt(session, [0], counter=0)[:12]
        engine, _ = make_engine()
        engine_nonce = engine.export_region(MemoryImage.zeros(1), 0, 1)[:12]
        assert client_nonce[0] != engine_nonce[0]


class TestSealing:
    def test_seal_load_roundtrip(self):
        engine, session = make_engine()
        sealed = engine.seal_current_key()
        assert engine.current_key_id is None
        assert sealed.key_id == session.key_id
        engine.load_sealed_key(sealed)
        assert engine.current_key_id == session.key_id
        mem = MemoryImage(tuple(clear(v) for v in range(4)))
        envelope = engine.export_region(mem, 0, 4)
        assert client_decrypt(session, envelope) == (0, 1, 2, 3)

    def test_cross_root_key_fails(self):
        engine_a, _ = make_engine(root=b"A" * 32)
        sealed = engine_a.seal_current_key()
        engine_b = EncryptionEngine(b"B" * 32)
        with pytest.raises(AuthError):
            engine_b.load_sealed_key(sealed)

    def test_truncated_blob_fails(self):
        engine, _ = make_engine()
        sealed = engine.seal_current_key()
        with pytest.raises(AuthError):
            engine.load_sealed_key(SealedKey(sealed.blob[:-4], sealed.key_id))

    def test_seal_without_key_fails(self):
        engine = EncryptionEngine(b"R" * 32)
        with pytest.raises(NoKeyError):
            engine.seal_current_key()

    def test_swapped_blobs_load_but_key_id_reveals_it(self):
        # The engine loads any authentic blob sealed under its root key
        # into an empty slot; spotting a swap is the protocol layer's job,
        # via key_id.
        root = b"R" * 32
        engine = EncryptionEngine(root)
        k1 = SessionKey.from_bytes(b"1" * 32)
        k2 = SessionKey.from_bytes(b"2" * 32)
        engine.install_session_key(k1)
        sealed1 = engine.seal_current_key()
        engine.install_session_key(k2)
        sealed2 = engine.seal_current_key()
        engine.load_sealed_key(sealed1)
        assert engine.current_key_id == k1.key_id != k2.key_id
        engine.seal_current_key()
        engine.load_sealed_key(sealed2)
        assert engine.current_key_id == k2.key_id

    def test_loading_over_another_key_is_refused(self):
        # Loading A's blob while B sits unsealed in the slot would throw B
        # away, and B could then never be installed again.
        engine = EncryptionEngine(b"R" * 32)
        a = SessionKey.from_bytes(b"A" * 32)
        b = SessionKey.from_bytes(b"B" * 32)
        engine.install_session_key(a)
        sealed_a = engine.seal_current_key()
        engine.install_session_key(b)
        engine.export_region(MemoryImage.zeros(4), 0, 1)
        with pytest.raises(EngineError, match="another session key; seal it first"):
            engine.load_sealed_key(sealed_a)
        assert engine.current_key_id == b.key_id and engine.export_counter == 1
        sealed_b = engine.seal_current_key()
        engine.load_sealed_key(sealed_a)
        assert engine.current_key_id == a.key_id and engine.export_counter == 0
        engine.load_sealed_key(sealed_a)  # the key it holds may be reloaded
        engine.seal_current_key()
        engine.load_sealed_key(sealed_b)
        assert engine.current_key_id == b.key_id and engine.export_counter == 1

    def test_three_client_context_switch_scenario(self):
        root = b"Z" * 32
        engine = EncryptionEngine(root)
        rng = random.Random(4)
        clients = []
        for i in range(3):
            key = SessionKey.from_bytes(bytes([i + 1]) * 32)
            data = tuple(rng.getrandbits(64) for _ in range(4))
            clients.append({"key": key, "data": data, "sealed": None, "ct": None})

        # round 1: each client imports its data, then is switched out
        mem = MemoryImage.zeros(32)
        for i, c in enumerate(clients):
            engine.install_session_key(c["key"])
            envelope = client_encrypt(c["key"], c["data"], counter=0)
            mem = engine.import_region(mem, 8 * i, envelope)
            c["sealed"] = engine.seal_current_key()

        # round 2: interleaved wake-ups export their own regions
        for i in (2, 0, 1):
            c = clients[i]
            engine.load_sealed_key(c["sealed"])
            c["ct"] = engine.export_region(mem, 8 * i, 4)
            c["sealed"] = engine.seal_current_key()

        for c in clients:
            assert client_decrypt(c["key"], c["ct"]) == c["data"]

    def test_engines_sharing_a_root_seal_under_different_nonces(self):
        # Two fresh (or restarted) engines must not reuse a nonce under
        # the root key for different keys.
        blob_a = make_engine(key=b"A" * 32)[0].seal_current_key().blob
        blob_b = make_engine(key=b"B" * 32)[0].seal_current_key().blob
        assert blob_a[0] == blob_b[0] == 0x53
        assert blob_a[:12] != blob_b[:12]

    def test_blob_under_another_blobs_nonce_is_refused(self):
        # Authentic under the root key, but its nonce is not the one its
        # body determines: the nonce of another valid blob.
        root = b"R" * 32
        engine, session = make_engine(root=root)
        other = make_engine(root=root, key=b"O" * 32)[0].seal_current_key()
        body = session.key + session.key_id + struct.pack(">Q", 0)
        forged = seal_envelope(root, other.blob[:12], body, aad=SEAL_LABEL)
        with pytest.raises(AuthError):
            engine.load_sealed_key(SealedKey(forged, session.key_id))

    def test_same_body_seals_to_same_blob(self):
        # A synthetic IV is a function of the body: sealing is deterministic.
        engine, session = make_engine()
        first = engine.seal_current_key()
        engine.install_session_key(session)
        assert engine.seal_current_key() == first == make_engine()[0].seal_current_key()
        mem = MemoryImage(tuple(clear(v) for v in range(4)))
        engine.load_sealed_key(first)
        engine.export_region(mem, 0, 4)
        assert engine.seal_current_key().blob != first.blob  # the counter moved


def sealed_under(root, body):
    """``body`` sealed under ``root`` by the synthetic-IV construction in
    the engine's module docstring."""
    iv_key = hmac.digest(root, b"blindsim-seal-iv", "sha256")
    nonce = b"\x53" + hmac.digest(iv_key, SEAL_LABEL + body, "sha256")[:11]
    return seal_envelope(root, nonce, body, aad=SEAL_LABEL)


class TestSealedBody:
    """Authentic blobs whose bodies the engine itself would never seal."""

    ROOT = b"R" * 32

    def test_construction_matches_the_engine(self):
        engine, session = make_engine(root=self.ROOT)
        body = session.key + session.key_id + struct.pack(">Q", 0)
        assert sealed_under(self.ROOT, body) == engine.seal_current_key().blob

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"K" * 32 + key_id_for(b"K" * 32) + struct.pack(">Q", 0) + b"\0", "wrong shape"),
            (b"K" * 32 + key_id_for(b"O" * 32) + struct.pack(">Q", 0), "key identifier mismatch"),
        ],
        ids=["wrong-length", "key-id-mismatch"],
    )
    def test_bad_body_is_refused_and_the_slot_kept(self, body, message):
        engine, session = make_engine(root=self.ROOT, key=b"S" * 32)
        engine.export_region(MemoryImage.zeros(4), 0, 4)
        with pytest.raises(AuthError, match=message):
            engine.load_sealed_key(SealedKey(sealed_under(self.ROOT, body), session.key_id))
        assert engine.current_key_id == session.key_id and engine.export_counter == 1


class TestKeyHygiene:
    def test_repr_hides_key(self):
        key = SessionKey.from_bytes(b"S" * 32)
        assert b"S" * 8 not in repr(key).encode()

    def test_key_never_in_envelope(self):
        engine, session = make_engine(key=bytes(range(32)))
        mem = MemoryImage(tuple(clear(v) for v in range(8)))
        for _ in range(50):
            envelope = engine.export_region(mem, 0, 8)
            assert session.key not in envelope
            assert session.key[:8] not in envelope

    def test_key_id_is_hash(self):
        key = b"Q" * 32
        assert SessionKey.from_bytes(key).key_id == key_id_for(key)
        assert len(key_id_for(key)) == 16

    @pytest.mark.parametrize("length", [0, 31, 33])
    def test_a_key_of_the_wrong_length_is_refused(self, length):
        with pytest.raises(ValueError, match="^session key must be 32 bytes$"):
            SessionKey.from_bytes(b"K" * length)
        with pytest.raises(ValueError, match="^root key must be 32 bytes$"):
            EncryptionEngine(b"R" * length)


class TestWordCodec:
    def test_roundtrip(self):
        rng = random.Random(9)
        words = tuple(rng.getrandbits(64) for _ in range(9))
        assert bytes_to_words(words_to_bytes(words)) == words

    def test_little_endian_layout(self):
        assert words_to_bytes([1]) == b"\x01" + bytes(7)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            bytes_to_words(b"123")


FUZZ_ROOT = b"F" * 32
FUZZ_SEALED = make_engine(root=FUZZ_ROOT)[0].seal_current_key()
FUZZ_MEMORY = MemoryImage(tuple(clear(v) for v in range(4)))


class TestSealedBlobFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(MUTATIONS, min_size=1, max_size=4))
    def test_mutated_blob_is_refused_or_loads_the_original_key(self, mutations):
        engine = EncryptionEngine(FUZZ_ROOT)
        blob = bytes(mutated(FUZZ_SEALED.blob, mutations))
        try:
            engine.load_sealed_key(SealedKey(blob, FUZZ_SEALED.key_id))
        except EngineError:
            assert engine.current_key_id is None
            return
        # The original key and export counter: the same first export.
        original = EncryptionEngine(FUZZ_ROOT)
        original.load_sealed_key(FUZZ_SEALED)
        assert engine.export_region(FUZZ_MEMORY, 0, 4) == original.export_region(FUZZ_MEMORY, 0, 4)
