"""Handshake agreement, evidence verification, framing, and the session loop."""

import builtins
import dataclasses
import io
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

import blindsim
from blindsim.assembler import ProgramImage, Segment, assemble, decode_image, encode_image
from blindsim.corpus import demo_add_one
from blindsim.engine import EncryptionEngine, SessionKey, client_decrypt, client_encrypt
from blindsim.isa import DecodedInstruction, Mode, Opcode, encode
from blindsim import machine
from blindsim.machine import MachineConfig, RunOutcome
from blindsim.protocol import (
    _EVIDENCE_LABEL,
    Claims,
    ClientHello,
    ClientHandshake,
    ComputeRequest,
    ErrorResponse,
    ExportRequest,
    HsmHello,
    HsmResponder,
    ImportRequest,
    ProtocolError,
    ResultResponse,
    ServerSession,
    VerifyError,
    decode_frame,
    encode_compute_result,
    encode_frame,
    make_device_keypair,
    max_frame_length,
    parse_compute_result,
    read_frame,
    _transcript_hash,
)
from blindsim.model import Status, blinded, clear

from conftest import MUTATIONS, mutated

DEV_PRIV, DEV_PUB = make_device_keypair(seed=7)
# The all-zero X25519 point: any exchange with it gives an all-zero secret.
LOW_ORDER_HELLO = encode_frame(ClientHello(bytes(32)))


def loopback(seed_c=1, seed_h=2, claims=Claims(), **client_kwargs):
    """One handshake; the client's key and the engine the responder
    installed its key into."""
    client = ClientHandshake(DEV_PUB, seed=seed_c, **client_kwargs)
    engine = EncryptionEngine(b"R" * 32)
    responder = HsmResponder(DEV_PRIV, claims, seed=seed_h, engine=engine)
    client_key = client.finish(responder.respond(client.hello()))
    return client_key, engine


def assert_engine_holds(key: SessionKey, engine: EncryptionEngine) -> None:
    """The engine holds ``key``: the same key id, and ``key`` opens an
    export the engine made."""
    assert engine.current_key_id == key.key_id
    words = (1, 2**64 - 1, 5)
    assert client_decrypt(key, engine.export_region([clear(w) for w in words], 0, 3)) == words


class TestHandshake:
    def test_loopback_agreement(self):
        client_key, engine = loopback()
        assert_engine_holds(client_key, engine)

    def test_agreement_over_100_seeds(self):
        ids = set()
        for seed in range(100):
            ck, engine = loopback(seed_c=seed, seed_h=seed + 1000)
            assert_engine_holds(ck, engine)
            ids.add(ck.key_id)
        assert len(ids) == 100  # every session key distinct

    def test_signature_flip_rejected(self):
        client = ClientHandshake(DEV_PUB, seed=1)
        responder = HsmResponder(DEV_PRIV, Claims(), seed=2, engine=EncryptionEngine(b"R" * 32))
        reply = responder.respond(client.hello())
        tampered = bytearray(reply)
        tampered[-1] ^= 1
        with pytest.raises(VerifyError, match="signature"):
            client.finish(bytes(tampered))

    def test_missing_taint_extensions_rejected(self):
        with pytest.raises(VerifyError, match="taint"):
            loopback(claims=Claims(has_taint_extensions=False))

    def test_uncertified_os_rejected(self):
        with pytest.raises(VerifyError, match="certified"):
            loopback(claims=Claims(os_certified=False))

    def test_mode_policy(self):
        with pytest.raises(VerifyError, match="model"):
            loopback(
                claims=Claims(policy_mode=Mode.MODEL),
                required_mode=Mode.HARDWARE,
            )
        ck, _ = loopback(
            claims=Claims(policy_mode=Mode.HARDWARE),
            required_mode=Mode.HARDWARE,
        )
        assert ck is not None

    def test_wrong_device_key_rejected(self):
        _, other_pub = make_device_keypair(seed=99)
        client = ClientHandshake(other_pub, seed=1)
        responder = HsmResponder(DEV_PRIV, Claims(), seed=2, engine=EncryptionEngine(b"R" * 32))
        reply = responder.respond(client.hello())
        with pytest.raises(VerifyError, match="signature"):
            client.finish(reply)

    def test_fresh_ephemerals_per_seed(self):
        k1, _ = loopback(seed_c=1, seed_h=10)
        k2, _ = loopback(seed_c=2, seed_h=20)
        assert k1.key_id != k2.key_id

    def test_replayed_hello_gets_fresh_key(self):
        client = ClientHandshake(DEV_PUB, seed=5)
        engine = EncryptionEngine(b"R" * 32)
        responder = HsmResponder(DEV_PRIV, Claims(), seed=6, engine=engine)
        hello = client.hello()
        responder.respond(hello)
        key_a = engine.current_key_id
        engine.seal_current_key()  # the OS frees the slot for the replay
        responder.respond(hello)
        assert engine.current_key_id not in (None, key_a)

    def test_key_depends_on_transcript(self):
        # same DH inputs, different claims -> different transcript -> key
        k_hw, _ = loopback(seed_c=3, seed_h=4, claims=Claims(policy_mode=Mode.HARDWARE))
        k_md, _ = loopback(
            seed_c=3, seed_h=4, claims=Claims(policy_mode=Mode.MODEL),
            required_mode=None,
        )
        assert k_hw.key_id != k_md.key_id

    def test_client_hello_tamper_aborts(self):
        rng = random.Random(11)
        for _ in range(50):
            client = ClientHandshake(DEV_PUB, seed=rng.getrandbits(32))
            responder = HsmResponder(
                DEV_PRIV, Claims(), seed=rng.getrandbits(32), engine=EncryptionEngine(b"R" * 32)
            )
            hello = bytearray(client.hello())
            bit = rng.randrange(len(hello) * 8)
            hello[bit // 8] ^= 1 << (bit % 8)
            try:
                reply = responder.respond(bytes(hello))
            except ProtocolError:
                continue  # responder aborted: fine
            with pytest.raises(VerifyError):
                client.finish(reply)

    def test_installs_key_into_engine(self):
        engine = EncryptionEngine(b"R" * 32)
        responder = HsmResponder(DEV_PRIV, Claims(), seed=2, engine=engine)
        client = ClientHandshake(DEV_PUB, seed=1)
        key = client.finish(responder.respond(client.hello()))
        assert_engine_holds(key, engine)

    def test_low_order_device_ephemeral_rejected(self):
        # correctly signed evidence over an all-zero device ephemeral
        client = ClientHandshake(DEV_PUB, seed=1)
        hello = client.hello()
        claims = Claims()
        transcript = _transcript_hash(hello, bytes(32), claims)
        signature = Ed25519PrivateKey.from_private_bytes(DEV_PRIV).sign(
            _EVIDENCE_LABEL + claims.encode() + transcript
        )
        reply = encode_frame(HsmHello(bytes(32), claims, transcript, signature))
        with pytest.raises(VerifyError, match="low-order"):
            client.finish(reply)

    def test_finish_before_hello(self):
        client = ClientHandshake(DEV_PUB, seed=1)
        with pytest.raises(ProtocolError):
            client.finish(b"\x00\x00\x00\x01\x02")

    def test_each_side_refuses_a_frame_that_is_not_the_others_hello(self):
        client = ClientHandshake(DEV_PUB, seed=1)
        client.hello()
        with pytest.raises(VerifyError, match="^expected a device hello$"):
            client.finish(encode_frame(ResultResponse(b"")))
        responder = HsmResponder(DEV_PRIV, Claims(), seed=2, engine=EncryptionEngine(b"R" * 32))
        with pytest.raises(ProtocolError, match="^expected a client hello$"):
            responder.respond(encode_frame(ExportRequest(0, 0)))

    @pytest.mark.parametrize("seed", [-1, 2**256], ids=["negative", "2**256"])
    def test_a_seed_outside_256_bits_is_a_value_error(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*256\)"):
            make_device_keypair(seed)
        with pytest.raises(ValueError, match="seed must be in"):
            ClientHandshake(DEV_PUB, seed=seed)
        with pytest.raises(ValueError, match="seed must be in"):
            HsmResponder(DEV_PRIV, Claims(), seed=seed, engine=EncryptionEngine(b"R" * 32))

    def test_the_largest_seed_still_agrees(self):
        client_key, engine = loopback(seed_c=2**256 - 1, seed_h=2**256 - 1)
        assert_engine_holds(client_key, engine)
        assert make_device_keypair(2**256 - 1) != make_device_keypair(0)

    def test_a_second_handshake_runs_no_cryptography_import(self, monkeypatch):
        # The handshake's cryptography names are loaded once: a later
        # handshake, device key included, runs no import statement of it
        # in blindsim (cryptography's own lazy imports are not counted).
        loopback()
        imports = []
        real_import = builtins.__import__

        def counting(name, globals=None, locals=None, fromlist=(), level=0):
            importer = (globals or {}).get("__name__", "")
            if name.partition(".")[0] == "cryptography" and importer.startswith("blindsim"):
                imports.append(name)
            return real_import(name, globals, locals, fromlist, level)

        monkeypatch.setattr(builtins, "__import__", counting)
        make_device_keypair(seed=8)
        client_key, engine = loopback(seed_c=3, seed_h=4)
        assert_engine_holds(client_key, engine)
        assert imports == []


class TestFraming:
    def test_import_roundtrip(self):
        msg = ImportRequest(dst=0x100, ciphertext=b"\x01\x02\x03")
        assert decode_frame(encode_frame(msg)) == msg

    def test_compute_roundtrip_with_real_image(self):
        image = assemble(demo_add_one(3))
        raw = encode_image(image)
        msg = ComputeRequest(entry=image.entry_pc, image=raw)
        parsed = decode_frame(encode_frame(msg))
        assert parsed == msg
        assert decode_image(parsed.image) == image

    def test_export_roundtrip(self):
        msg = ExportRequest(src=0x180, count=4)
        assert decode_frame(encode_frame(msg)) == msg

    def test_truncated_import_rejected(self):
        frame = bytearray(encode_frame(ImportRequest(1, b"\xAA" * 8)))
        frame[-9] ^= 0xFF  # corrupt the declared ciphertext length
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_trailing_bytes_rejected(self):
        frame = encode_frame(ExportRequest(0, 0)) + b"\x00"
        with pytest.raises(ProtocolError):
            decode_frame(frame)

    def test_unknown_type_rejected(self):
        frame = bytearray(encode_frame(ResultResponse(b"")))
        frame[4] = 42
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_length_mismatch_rejected(self):
        frame = bytearray(encode_frame(ResultResponse(b"xy")))
        frame[3] += 1
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    @pytest.mark.parametrize(
        "ftype, body, message",
        [
            (1, bytes(31), "bad hello length"),
            (2, bytes(32 + 4 + 32 + 64 + 1), "bad hello length"),
            (4, bytes(11), "truncated compute frame"),
            (4, struct.pack(">QI", 0, 3) + b"ab", "compute image length mismatch"),
        ],
        ids=["client-hello", "hsm-hello", "truncated-compute", "compute-image-length"],
    )
    def test_a_malformed_body_is_refused(self, ftype, body, message):
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            decode_frame(header(1 + len(body)) + bytes([ftype]) + body)

    def test_a_non_message_cannot_be_encoded(self):
        with pytest.raises(ProtocolError, match="^cannot encode b'hello'$"):
            encode_frame(b"hello")

    @given(
        st.sampled_from(["import", "compute", "export", "result", "error"]),
        st.integers(0, (1 << 64) - 1),
        st.integers(0, (1 << 64) - 1),
        st.binary(max_size=64),
    )
    def test_random_roundtrips(self, kind, a, b, blob):
        msg = {
            "import": ImportRequest(a, blob),
            "compute": ComputeRequest(a, blob),
            "export": ExportRequest(a, b),
            "result": ResultResponse(blob),
            "error": ErrorResponse(blob.decode(errors="replace")),
        }[kind]
        assert decode_frame(encode_frame(msg)) == msg

    def test_claims_scheme_byte_is_fixed(self):
        assert Claims().encode()[3] == 1
        for scheme in (0, 2, 255):
            with pytest.raises(ProtocolError):
                Claims.parse(bytes([1, 1, 1, scheme]))

    @pytest.mark.parametrize(
        "payload",
        [b"", bytes(8), bytes(10), bytes([4]) + bytes(8), bytes([255]) + bytes(8)],
        ids=["empty", "short", "long", "unknown-outcome", "outcome-255"],
    )
    def test_bad_compute_result_rejected(self, payload):
        with pytest.raises(ProtocolError, match="bad compute result"):
            parse_compute_result(payload)

    def test_compute_result_bytes_are_pinned(self):
        # The wire byte of an outcome is its place in RunOutcome.
        names = [outcome.value for outcome in RunOutcome]
        assert names == ["halted", "faulted", "fault-loop", "step-limit"]
        for byte, name in enumerate(names):
            payload = encode_compute_result(name, 7)
            assert payload == bytes([byte]) + (7).to_bytes(8, "big")
            assert parse_compute_result(payload) == (name, 7)

    def test_claims_roundtrip(self):
        for ext in (False, True):
            for os_ok in (False, True):
                for mode in Mode:
                    c = Claims(ext, os_ok, mode)
                    assert Claims.parse(c.encode()) == c


class TestServerSession:
    def make_session(self, seed=3, mem=1024, unblindable=(), mmio=None):
        cfg = MachineConfig(memory_words=mem, cache_lines=16, unblindable_ranges=unblindable, mmio_console=mmio)
        engine = EncryptionEngine(b"T" * 32)
        return ServerSession(DEV_PRIV, Claims(), engine, cfg, seed=seed), cfg

    def test_full_session_add_one(self):
        session, _ = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        key = client.finish(session.handle_frame(client.hello()))

        words = (5, 10, 0xFFFFFFFFFFFFFFFF)
        ct = client_encrypt(key, words, counter=0)
        reply = decode_frame(session.handle_frame(encode_frame(ImportRequest(0x100, ct))))
        assert isinstance(reply, ResultResponse)

        image = assemble(demo_add_one(3, data_base=0x100, result_base=0x180))
        reply = decode_frame(
            session.handle_frame(
                encode_frame(ComputeRequest(image.entry_pc, encode_image(image)))
            )
        )
        outcome, steps = parse_compute_result(reply.payload)
        assert outcome == "halted" and steps > 0
        assert len(session.traces) == 1

        reply = decode_frame(session.handle_frame(encode_frame(ExportRequest(0x180, 3))))
        assert client_decrypt(key, reply.payload) == (6, 11, 0)

    def test_import_before_handshake_errors(self):
        session, _ = self.make_session()
        reply = decode_frame(session.handle_frame(encode_frame(ImportRequest(0, b"x" * 40))))
        assert isinstance(reply, ErrorResponse)

    @pytest.mark.parametrize(
        "request_", [ImportRequest(0, b"x" * 40), ExportRequest(0, 1)], ids=["import", "export"]
    )
    def test_request_before_handshake_names_the_handshake(self, request_):
        session, _ = self.make_session()
        reply = decode_frame(session.handle_frame(encode_frame(request_)))
        assert isinstance(reply, ErrorResponse) and "handshake" in reply.message

    def test_compute_before_handshake_errors_without_running(self):
        session, _ = self.make_session()
        image = assemble(".entry 0\nhalt\n")
        frame = encode_frame(ComputeRequest(0, encode_image(image)))
        reply = decode_frame(session.handle_frame(frame))
        assert isinstance(reply, ErrorResponse) and "handshake" in reply.message
        assert session.traces == []

    def test_the_session_key_goes_from_the_hsm_to_the_engine_only(self):
        # The responder returns the reply frame alone and installs the key
        # in its engine; after a handshake neither the server session nor
        # its responder holds a SessionKey.
        engine = EncryptionEngine(b"T" * 32)
        client = ClientHandshake(DEV_PUB, seed=21)
        reply = HsmResponder(DEV_PRIV, Claims(), seed=3, engine=engine).respond(client.hello())
        assert type(reply) is bytes
        assert_engine_holds(client.finish(reply), engine)

        session, _ = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        key = client.finish(session.handle_frame(client.hello()))
        assert_engine_holds(key, session.engine)
        assert session.key_id == key.key_id
        for holder in (session, session.responder):
            assert [name for name, v in vars(holder).items() if isinstance(v, SessionKey)] == []

    def test_a_refused_hello_is_no_handshake(self):
        session, _ = self.make_session()
        session.handle_frame(LOW_ORDER_HELLO)
        reply = decode_frame(session.handle_frame(encode_frame(ExportRequest(0, 1))))
        assert isinstance(reply, ErrorResponse) and "handshake" in reply.message

    @pytest.mark.parametrize("attested, runs", [(Mode.HARDWARE, Mode.MODEL), (Mode.MODEL, Mode.HARDWARE)])
    def test_claims_that_disagree_with_the_machine_are_refused(self, attested, runs):
        # A client that requires the attested mode must get that mode.
        cfg = MachineConfig(mode=runs, memory_words=1024, cache_lines=16)
        message = f"^claims attest {attested.value} mode, the machine runs {runs.value}$"
        with pytest.raises(ValueError, match=message):
            ServerSession(DEV_PRIV, Claims(policy_mode=attested), EncryptionEngine(b"T" * 32), cfg, seed=3)
        ServerSession(DEV_PRIV, Claims(policy_mode=runs), EncryptionEngine(b"T" * 32), cfg, seed=3)

    def test_every_machine_field_is_attested_or_named_by_the_threat_model(self):
        # `mode` is attested and bound by the check above; README's threat
        # model must name every other field as one that only sizes the
        # machine or adds refusals.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (bullet,) = [b for b in readme.split("\n* ") if "sizes the machine or adds refusals" in b]
        names = [f.name for f in dataclasses.fields(MachineConfig)]
        assert "mode" in names
        assert [name for name in names if name != "mode" and f"`{name}`" not in bullet] == []

    def test_handshake_is_per_session_not_per_engine(self):
        # Two sessions on one engine: one handshake serves only its own.
        first, cfg = self.make_session()
        second = ServerSession(DEV_PRIV, Claims(), first.engine, cfg, seed=4)
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(first.handle_frame(client.hello()))
        reply = decode_frame(second.handle_frame(encode_frame(ExportRequest(0, 1))))
        assert isinstance(reply, ErrorResponse) and "handshake" in reply.message
        reply = decode_frame(first.handle_frame(encode_frame(ExportRequest(0, 1))))
        assert isinstance(reply, ResultResponse)

    def test_import_and_export_need_the_sessions_own_key(self):
        # Sessions A and B on one engine: B's handshake installs B's key,
        # under which A's export would leave for client B to read.
        a, cfg = self.make_session()
        b = ServerSession(DEV_PRIV, Claims(), a.engine, cfg, seed=4)
        client_a, client_b = ClientHandshake(DEV_PUB, seed=21), ClientHandshake(DEV_PUB, seed=22)
        key_a = client_a.finish(a.handle_frame(client_a.hello()))
        envelope = client_encrypt(key_a, [0xA11CE, 0x5EC7E7], counter=0)
        reply = decode_frame(a.handle_frame(encode_frame(ImportRequest(8, envelope))))
        assert isinstance(reply, ResultResponse)
        sealed_a = a.engine.seal_current_key()
        client_b.finish(b.handle_frame(client_b.hello()))
        for request_ in (ExportRequest(8, 2), ImportRequest(16, envelope)):
            reply = decode_frame(a.handle_frame(encode_frame(request_)))
            assert isinstance(reply, ErrorResponse) and "another key" in reply.message
        assert a.state.memory.words[16].value == 0
        # Switched back by sealing B's key and loading A's, A's export
        # opens under A's key.
        a.engine.seal_current_key()
        a.engine.load_sealed_key(sealed_a)
        reply = decode_frame(a.handle_frame(encode_frame(ExportRequest(8, 2))))
        assert client_decrypt(key_a, reply.payload) == (0xA11CE, 0x5EC7E7)

    def test_a_second_hello_is_refused_until_the_key_is_sealed(self):
        # B's hello on A's engine would throw A's key away unsealed.
        a, cfg = self.make_session()
        b = ServerSession(DEV_PRIV, Claims(), a.engine, cfg, seed=4)
        client_a = ClientHandshake(DEV_PUB, seed=21)
        key_a = client_a.finish(a.handle_frame(client_a.hello()))
        envelope = client_encrypt(key_a, [0xA11CE, 0x5EC7E7], counter=0)
        a.handle_frame(encode_frame(ImportRequest(8, envelope)))
        reply = decode_frame(b.handle_frame(ClientHandshake(DEV_PUB, seed=22).hello()))
        assert isinstance(reply, ErrorResponse) and "EngineError" in reply.message
        assert b.key_id is None and a.engine.current_key_id == key_a.key_id
        reply = decode_frame(a.handle_frame(encode_frame(ExportRequest(8, 2))))
        assert client_decrypt(key_a, reply.payload) == (0xA11CE, 0x5EC7E7)
        # Once the OS seals A's key, B's hello succeeds with the bytes it
        # gets on a fresh engine: the refused hello used up no ephemeral.
        a.engine.seal_current_key()
        client_b = ClientHandshake(DEV_PUB, seed=22)
        accepted = b.handle_frame(client_b.hello())
        assert a.engine.current_key_id == client_b.finish(accepted).key_id == b.key_id
        fresh = ServerSession(DEV_PRIV, Claims(), EncryptionEngine(b"T" * 32), cfg, seed=4)
        assert fresh.handle_frame(ClientHandshake(DEV_PUB, seed=22).hello()) == accepted

    REFUSALS = {
        "flipped-tag-bit": "AuthError",
        "reflected-export": "AuthError",
        "dst-leaves-memory": "RangeError",
        "before-handshake": "handshake",
        "another-key": "another key",
        "unblindable-range": "ValueError: import [0x100, 0x102) overlaps an unblindable range",
    }

    @pytest.mark.parametrize("reason", list(REFUSALS))
    def test_a_refused_import_leaves_the_state_the_same_object(self, reason):
        # The unblindable range covers the region's last word only.
        unblindable = ((0x101, 0x108),) if reason == "unblindable-range" else ()
        session, cfg = self.make_session(unblindable=unblindable)
        if reason == "before-handshake":
            key = SessionKey.from_bytes(b"K" * 32)
        else:
            client = ClientHandshake(DEV_PUB, seed=21)
            key = client.finish(session.handle_frame(client.hello()))
        dst, envelope = 0x100, client_encrypt(key, (1, 2), counter=0)
        if reason == "flipped-tag-bit":
            envelope = envelope[:-1] + bytes([envelope[-1] ^ 1])
        elif reason == "reflected-export":
            export = encode_frame(ExportRequest(0x100, 2))
            envelope = decode_frame(session.handle_frame(export)).payload
        elif reason == "dst-leaves-memory":
            dst = cfg.memory_words - 1
        elif reason == "another-key":
            session.engine.seal_current_key()
            other = ServerSession(DEV_PRIV, Claims(), session.engine, cfg, seed=4)
            other_client = ClientHandshake(DEV_PUB, seed=22)
            other_client.finish(other.handle_frame(other_client.hello()))
        before = session.state
        reply = decode_frame(session.handle_frame(encode_frame(ImportRequest(dst, envelope))))
        assert isinstance(reply, ErrorResponse) and self.REFUSALS[reason] in reply.message
        assert session.state is before

    @pytest.mark.parametrize("dst", [0x2E, 0x34])
    def test_an_import_beside_an_unblindable_range_lands(self, dst):
        # Ranges are half-open: [0x30, 0x34) takes neither [0x2E, 0x30)
        # nor [0x34, 0x36), and an empty import at 0x30 writes nothing.
        session, _ = self.make_session(unblindable=((0x30, 0x34),))
        client = ClientHandshake(DEV_PUB, seed=21)
        key = client.finish(session.handle_frame(client.hello()))
        for counter, (at, words) in enumerate([(dst, (7, 8)), (0x30, ())]):
            frame = encode_frame(ImportRequest(at, client_encrypt(key, words, counter)))
            assert isinstance(decode_frame(session.handle_frame(frame)), ResultResponse)
        assert session.state.memory[dst: dst + 2] == (blinded(7), blinded(8))
        assert not any(w.blinded for w in session.state.memory[0x30: 0x34])

    @pytest.mark.parametrize(
        "data, refused",
        [
            (".org 0x30\n.word 7 blinded\n.word 8 blinded", "[0x30, 0x32)"),
            (".org 0x2F\n.word 1 blinded\n.word 7 blinded", "[0x2f, 0x31)"),
            (".org 0x33\n.word 7 blinded\n.word 0", "[0x33, 0x35)"),
            (".org 0x2E\n.word 7 blinded\n.word 8 blinded\n.word 9", None),
            (".org 0x30\n.word 7\n.word 8\n.word 9\n.word 10\n.word 11 blinded", None),
        ],
        ids=["in-range", "last-word-in", "first-word-in", "clear-word-in", "blinded-word-after"],
    )
    def test_a_compute_image_puts_no_blinded_word_in_an_unblindable_range(self, data, refused):
        # As an import may not: a refused compute runs nothing and leaves
        # the state and the last trace as they were.
        session, _ = self.make_session(unblindable=((0x30, 0x34),), mmio=0x30)
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(session.handle_frame(client.hello()))
        image = assemble(f".entry 0x40\n{data}\n.org 0x40\nhalt\n")
        before, traces = session.state, session.traces
        reply = decode_frame(session.handle_frame(encode_frame(ComputeRequest(0x40, encode_image(image)))))
        if refused:
            assert reply == ErrorResponse(f"ValueError: image segment {refused} overlaps an unblindable range")
            assert session.state is before and session.traces is traces
        else:
            assert parse_compute_result(reply.payload) == ("halted", 1)
            assert not any(w.blinded for w in session.state.memory[0x30:0x34])

    def test_an_accepted_import_is_one_edit_of_the_imported_words(self):
        # After a compute the registers, cache and status are not the
        # initial ones, so sharing them is not sharing the zero state.
        session, _ = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        key = client.finish(session.handle_frame(client.hello()))
        session.handle_frame(encode_frame(ImportRequest(0x100, client_encrypt(key, (5, 10), 0))))
        image = assemble(demo_add_one(2, data_base=0x100, result_base=0x180))
        session.handle_frame(encode_frame(ComputeRequest(image.entry_pc, encode_image(image))))
        before = session.state
        assert before.status is Status.HALTED and any(before.valid)

        words = (0, 7, 0xFFFFFFFFFFFFFFFF)
        ct = client_encrypt(key, words, counter=1)
        reply = decode_frame(session.handle_frame(encode_frame(ImportRequest(0x200, ct))))
        assert isinstance(reply, ResultResponse)
        after = session.state
        changed = [a for a, (x, y) in enumerate(zip(before.memory, after.memory)) if x != y]
        assert changed == [0x200, 0x201, 0x202]
        assert after.memory[0x200: 0x203] == tuple(blinded(v) for v in words)
        assert len(after.memory) == len(before.memory)
        assert after.registers is before.registers
        assert after.addresses is before.addresses and after.valid is before.valid
        assert (after.pc, after.status, after.fault) == (before.pc, before.status, before.fault)

    def test_tampered_ciphertext_errors(self):
        session, _ = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        key = client.finish(session.handle_frame(client.hello()))
        ct = bytearray(client_encrypt(key, (1, 2), counter=0))
        ct[-1] ^= 1
        reply = decode_frame(
            session.handle_frame(encode_frame(ImportRequest(0x100, bytes(ct))))
        )
        assert isinstance(reply, ErrorResponse) and "AuthError" in reply.message

    def test_out_of_range_export_errors(self):
        session, _ = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(session.handle_frame(client.hello()))
        reply = decode_frame(session.handle_frame(encode_frame(ExportRequest(2000, 4))))
        assert isinstance(reply, ErrorResponse) and "RangeError" in reply.message

    def test_garbage_frame_errors(self):
        session, _ = self.make_session()
        reply = decode_frame(session.handle_frame(b"\x00\x00\x00\x01\x63"))
        assert isinstance(reply, ErrorResponse)

    def test_low_order_hello_errors_and_session_continues(self):
        session, _ = self.make_session()
        reply = decode_frame(session.handle_frame(LOW_ORDER_HELLO))
        assert isinstance(reply, ErrorResponse) and "low-order" in reply.message
        client = ClientHandshake(DEV_PUB, seed=21)
        key = client.finish(session.handle_frame(client.hello()))
        assert session.engine.current_key_id == key.key_id

    def test_computes_are_observable_per_run(self):
        session, _ = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(session.handle_frame(client.hello()))
        image = assemble(".entry 0\nhalt\n")
        texts = []
        for _ in range(3):
            session.handle_frame(
                encode_frame(ComputeRequest(0, encode_image(image)))
            )
            texts.append(session.traces[-1])
            # Each compute's text replaces the last one's.
            assert session.traces == [texts[-1]]
        assert all(t == texts[0] for t in texts) and texts[1] is not texts[0]
        assert texts[0].count("kind=fetch") == 1

    def test_only_the_newest_traces_are_kept(self):
        session, _ = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(session.handle_frame(client.hello()))
        for n in range(1, 21):
            # n adds before the halt: each compute leaves a longer trace.
            image = assemble("add r1, r1, r1\n" * n + "halt\n")
            session.handle_frame(encode_frame(ComputeRequest(0, encode_image(image))))
        # The 20th compute only: 21 fetches.
        assert [t.count("kind=fetch") for t in session.traces] == [21]
        assert isinstance(session.traces, list)

    def test_retained_trace_memory_is_bounded(self):
        # An endless clear jump to 0 runs the whole budget: each compute's
        # text is about 0.4 MB, and the session holds the latest one only.
        session = ServerSession(
            DEV_PRIV, Claims(), EncryptionEngine(b"T" * 32),
            MachineConfig(memory_words=4096, cache_lines=16), seed=3, max_steps=10_000,
        )
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(session.handle_frame(client.hello()))
        frame = encode_frame(ComputeRequest(0, encode_image(assemble(".entry 0\nbz r0, r0\n"))))
        tracemalloc.start()
        try:
            session.handle_frame(frame)
            after_first, _ = tracemalloc.get_traced_memory()
            for _ in range(3):
                session.handle_frame(frame)
            after_fourth, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(session.traces) == 1
        assert after_fourth - after_first < len(session.traces[0])

    def test_a_compute_frees_the_previous_trace_before_it_runs(self):
        # The second compute's peak, over one baseline taken before the
        # first, would hold the first text too if the session kept it
        # through the run.
        session = ServerSession(
            DEV_PRIV, Claims(), EncryptionEngine(b"T" * 32),
            MachineConfig(memory_words=4096, cache_lines=16), seed=3, max_steps=20_000,
        )
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(session.handle_frame(client.hello()))
        frame = encode_frame(ComputeRequest(0, encode_image(assemble(".entry 0\nbz r0, r0\n"))))
        peaks = []
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(3):
                tracemalloc.reset_peak()
                session.handle_frame(frame)
                peaks.append(tracemalloc.get_traced_memory()[1] - baseline)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < len(session.traces[0]) // 2

    @pytest.mark.parametrize("kind", ["result", "hsm-hello"])
    def test_a_reply_frame_from_the_client_is_unexpected(self, kind):
        session, _ = self.make_session()
        if kind == "result":
            frame = encode_frame(ResultResponse(b""))
        else:
            responder = HsmResponder(DEV_PRIV, Claims(), seed=2, engine=EncryptionEngine(b"R" * 32))
            frame = responder.respond(ClientHandshake(DEV_PUB, seed=1).hello())
        reply = decode_frame(session.handle_frame(frame))
        assert isinstance(reply, ErrorResponse) and "unexpected message" in reply.message

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_a_step_budget_below_one_is_refused(self, max_steps):
        cfg = MachineConfig(memory_words=64, cache_lines=8)
        with pytest.raises(ValueError, match="max_steps must be positive"):
            ServerSession(DEV_PRIV, Claims(), EncryptionEngine(b"T" * 32), cfg, seed=3, max_steps=max_steps)

    def test_an_unexpected_exception_is_answered_and_the_session_serves_on(self, monkeypatch):
        session, key = fuzz_session()
        session.handle_frame(VALID_FRAMES["import"])

        def broken(*args, **kwargs):
            raise RuntimeError("the run broke")

        monkeypatch.setattr(machine, "run", broken)
        reply = decode_frame(session.handle_frame(VALID_FRAMES["compute"]))
        assert reply == ErrorResponse("RuntimeError: the run broke")
        assert session.traces == []
        reply = decode_frame(session.handle_frame(VALID_FRAMES["export"]))
        assert isinstance(reply, ResultResponse)
        assert len(client_decrypt(key, reply.payload)) == 3


# A handshaken session on a small machine, and valid frames for it.
FUZZ_CFG = MachineConfig(memory_words=128, cache_lines=8)


def fuzz_session():
    engine = EncryptionEngine(b"F" * 32)
    session = ServerSession(DEV_PRIV, Claims(), engine, FUZZ_CFG, seed=3, max_steps=500)
    client = ClientHandshake(DEV_PUB, seed=21)
    return session, client.finish(session.handle_frame(client.hello()))


_, FUZZ_KEY = fuzz_session()
FUZZ_IMAGE = assemble(demo_add_one(3, data_base=0x40, result_base=0x60))
VALID_FRAMES = {
    "import": encode_frame(ImportRequest(0x40, client_encrypt(FUZZ_KEY, (5, 10, 20), counter=0))),
    "compute": encode_frame(ComputeRequest(FUZZ_IMAGE.entry_pc, encode_image(FUZZ_IMAGE))),
    "export": encode_frame(ExportRequest(0x60, 3)),
}
# Import and compute bodies: address u64, payload length u32, payload.
PAYLOAD_TYPES = {VALID_FRAMES["import"][4], VALID_FRAMES["compute"][4]}


def mutate(frame: bytes, mutations, reframe: bool) -> bytes:
    """Flip bits, truncate and extend; ``reframe`` then rewrites the length
    fields to fit, so the mutations also reach the body, engine and image
    decoders."""
    data = mutated(frame, mutations)
    if reframe and len(data) >= 4:
        data[:4] = struct.pack(">I", len(data) - 4)
    if reframe and len(data) >= 17 and data[4] in PAYLOAD_TYPES:
        data[13:17] = struct.pack(">I", len(data) - 17)
    return bytes(data)


class TestHandleFrameFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(sorted(VALID_FRAMES)), min_size=1, max_size=3),
        st.lists(MUTATIONS, min_size=1, max_size=4),
        st.booleans(),
    )
    def test_mutated_frames_get_frame_replies(self, kinds, mutations, reframe):
        session, key = fuzz_session()
        for kind in kinds:
            decode_frame(session.handle_frame(mutate(VALID_FRAMES[kind], mutations, reframe)))
        reply = decode_frame(session.handle_frame(VALID_FRAMES["export"]))
        assert isinstance(reply, ResultResponse)
        if session.engine.current_key_id == key.key_id:
            assert len(client_decrypt(key, reply.payload)) == 3

    def test_valid_frames_run_the_session(self):
        # The unmutated frames do what the fuzzer's baseline assumes.
        session, key = fuzz_session()
        for kind in ("import", "compute", "export"):
            reply = decode_frame(session.handle_frame(VALID_FRAMES[kind]))
            assert isinstance(reply, ResultResponse)
        assert client_decrypt(key, reply.payload) == (6, 11, 21)


CLAIMS = [Claims(ext, os_ok, mode).encode() for ext in (False, True) for os_ok in (False, True) for mode in Mode]


class TestClaimsFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(CLAIMS), st.lists(MUTATIONS, min_size=1, max_size=4))
    def test_mutated_claims_parse_to_the_same_bytes_or_raise(self, data, mutations):
        data = bytes(mutated(data, mutations))
        try:
            claims = Claims.parse(data)
        except ProtocolError:
            return
        assert claims.encode() == data


class RecordingStream:
    """Duplex stream over canned input that records every read size."""

    def __init__(self, data: bytes):
        self._in = io.BytesIO(data)
        self.out = io.BytesIO()
        self.reads: list[int] = []

    def read(self, n: int) -> bytes:
        self.reads.append(n)
        return self._in.read(n)

    def write(self, data: bytes) -> None:
        self.out.write(data)

    def flush(self) -> None:
        pass

    def replies(self) -> list:
        data, frames = self.out.getvalue(), []
        while data:
            n = 4 + int.from_bytes(data[:4], "big")
            frames.append(decode_frame(data[:n]))
            data = data[n:]
        return frames


def header(length: int) -> bytes:
    return length.to_bytes(4, "big")


class TestStreamFraming:
    MEM = 64

    def make_session(self):
        cfg = MachineConfig(memory_words=self.MEM, cache_lines=8)
        return ServerSession(DEV_PRIV, Claims(), EncryptionEngine(b"T" * 32), cfg, seed=3)

    def test_oversized_header_gets_error_without_body_read(self):
        session = self.make_session()
        stream = RecordingStream(header(0xFFFFFFFF) + bytes(256) + encode_frame(ExportRequest(0, 1)))
        session.serve_stream(stream)
        replies = stream.replies()
        assert len(replies) == 1 and isinstance(replies[0], ErrorResponse)
        assert max(stream.reads) <= max_frame_length(self.MEM)

    def test_largest_legal_frames_get_normal_replies(self):
        session = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        key = client.finish(session.handle_frame(client.hello()))
        # Every word in a segment of its own is the largest image that loads.
        words = [clear(encode(DecodedInstruction(Opcode.HALT, (), None)))]
        words += [clear(i) for i in range(1, self.MEM)]
        image = ProgramImage(0, tuple(Segment(i, (w,)) for i, w in enumerate(words)))
        frames = [
            encode_frame(ImportRequest(0, client_encrypt(key, range(self.MEM), counter=0))),
            encode_frame(ComputeRequest(0, encode_image(image))),
            encode_frame(ExportRequest(0, self.MEM)),
        ]
        assert len(frames[1]) - 4 <= max_frame_length(self.MEM)
        stream = RecordingStream(b"".join(frames))
        session.serve_stream(stream)
        imported, computed, exported = stream.replies()
        assert imported == ResultResponse(b"")
        assert parse_compute_result(computed.payload) == ("halted", 1)
        assert client_decrypt(key, exported.payload) == tuple(w.value for w in words)
        out = io.BytesIO(stream.out.getvalue())
        for _ in range(3):
            assert read_frame(out, max_frame_length(self.MEM)) is not None

    @pytest.mark.parametrize("error", [OSError, ValueError])
    def test_serve_stream_ends_quietly_when_a_read_fails(self, error):
        # A reset connection raises OSError, a read from a closed file
        # ValueError; neither has a peer left to answer.
        class FailingStream(RecordingStream):
            def read(self, n: int) -> bytes:
                raise error("stream failed")

        stream = FailingStream(b"")
        self.make_session().serve_stream(stream)
        assert stream.out.getvalue() == b""

    def test_a_compute_restarts_a_faulted_machine_with_no_fault(self):
        session = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        client.finish(session.handle_frame(client.hello()))
        for source, outcome in (("rblnd r1\nhalt\n", "faulted"), ("halt\n", "halted")):
            image = assemble(source)
            reply = decode_frame(session.handle_frame(encode_frame(ComputeRequest(0, encode_image(image)))))
            assert parse_compute_result(reply.payload) == (outcome, 1)
        assert (session.state.status, session.state.fault) == (Status.HALTED, None)

    def test_serve_stream_answers_a_low_order_hello_and_keeps_serving(self):
        session = self.make_session()
        client = ClientHandshake(DEV_PUB, seed=21)
        stream = RecordingStream(LOW_ORDER_HELLO + client.hello())
        session.serve_stream(stream)
        refused, accepted = stream.replies()
        assert isinstance(refused, ErrorResponse) and "low-order" in refused.message
        key = client.finish(encode_frame(accepted))
        assert session.engine.current_key_id == key.key_id

    def test_handle_frame_refuses_an_oversized_frame_before_decoding(self):
        # 20,000 empty segments: 320,018 image bytes that load no word.
        session = self.make_session()
        image = struct.pack("<4sHQI", b"BLIM", 1, 5, 20_000) + struct.pack("<QQ", 5, 0) * 20_000
        frame = encode_frame(ComputeRequest(5, image))
        assert len(frame) - 4 > max_frame_length(self.MEM)
        reply = decode_frame(session.handle_frame(frame))
        assert isinstance(reply, ErrorResponse)
        assert "exceeds the limit" in reply.message
        assert session.traces == []

    def test_read_frame_at_and_over_the_cap(self):
        cap = max_frame_length(self.MEM)
        frame = header(cap) + bytes(cap)
        assert read_frame(io.BytesIO(frame), cap) == frame
        stream = RecordingStream(header(cap + 1) + bytes(cap + 1))
        with pytest.raises(ProtocolError):
            read_frame(stream, cap)
        assert stream.reads == [4]

    @pytest.mark.parametrize("data", [b"", b"\x00\x00", header(8) + b"\x06abc"])
    def test_read_frame_returns_none_on_a_short_read(self, data):
        assert read_frame(io.BytesIO(data), max_frame_length(self.MEM)) is None


# ---------------------------------------------------------------------------
# The cryptography stack loads on first use
# ---------------------------------------------------------------------------

_FRESH_PRELUDE = """
import sys

import blindsim
import blindsim.cli


def crypto_loaded():
    return any(name.partition(".")[0] == "cryptography" for name in sys.modules)


assert not crypto_loaded(), "importing blindsim loaded cryptography"
"""


def run_fresh(body: str) -> str:
    """Run ``body`` after the prelude in a new interpreter; its stdout."""
    src = str(Path(blindsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PRELUDE + body],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# Each entry point sets ``out`` to bytes.  Called first in a fresh
# interpreter, it must load cryptography and give the bytes it gives here.
FIRST_USES = {
    "open-tampered-envelope": """
from blindsim.engine import AuthError, open_envelope
try:
    open_envelope(bytes(32), bytes(12 + 16 + 8))
except AuthError as exc:
    out = str(exc).encode()
""",
    "client-round-trip": """
from blindsim.engine import SessionKey, client_decrypt, client_encrypt
key = SessionKey.from_bytes(bytes(range(32)))
out = client_encrypt(key, (1, 2**64 - 1), counter=3)
assert client_decrypt(key, out) == (1, 2**64 - 1)
""",
    "seal-and-load": """
from blindsim.engine import EncryptionEngine, SessionKey
engine = EncryptionEngine(bytes(32))
key = SessionKey.from_bytes(bytes(range(32)))
engine.install_session_key(key)
out = engine.seal_current_key()
engine.load_sealed_key(out)
assert engine.current_key_id == key.key_id
""",
    "client-hello": f"""
from blindsim.protocol import ClientHandshake
out = ClientHandshake({DEV_PUB!r}, seed=1).hello()
""",
    "hsm-respond": f"""
from blindsim.engine import EncryptionEngine
from blindsim.protocol import Claims, ClientHello, HsmResponder, encode_frame
# The X25519 base point (u = 9), not a low-order point.
hello = encode_frame(ClientHello(bytes([9]) + bytes(31)))
engine = EncryptionEngine(bytes(32))
out = HsmResponder({DEV_PRIV!r}, Claims(), seed=2, engine=engine).respond(hello)
out += engine.seal_current_key()
""",
}


class TestCryptographyLoadsOnFirstUse:
    def test_simulating_and_checking_never_load_it(self):
        run_fresh("""
from blindsim import (
    MachineConfig, analyze, assemble, boot_image, check_noninterference, parse_signature, run,
)
from blindsim.corpus import curated_corpus
from blindsim.protocol import make_device_keypair

entry = next(e for e in curated_corpus() if e.name == "branchless-select")
image = assemble(entry.source)
cfg = MachineConfig(memory_words=entry.memory_words)
assert analyze(image, parse_signature("r1=B,r2=B"), cfg).verdict.value == "compliant"
assert check_noninterference(image, trials=5, steps=50, cfg=cfg).passed
assert run(boot_image(image, cfg), cfg, max_steps=100).outcome.value == "halted"
assert not crypto_loaded(), "simulating or checking loaded cryptography"
make_device_keypair(1)
assert crypto_loaded(), "the check cannot see cryptography load"
""")

    @pytest.mark.parametrize("body", FIRST_USES.values(), ids=FIRST_USES.keys())
    def test_each_entry_point_loads_it_on_first_use(self, body):
        expected = {}
        exec(body, expected)
        out = run_fresh(body + "assert crypto_loaded()\nprint(out.hex())\n")
        assert out == expected["out"].hex() + "\n"
