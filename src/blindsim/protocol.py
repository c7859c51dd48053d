"""Client/HSM handshake, attestation evidence, and session framing.

Handshake: the client and a fixed-function key-exchange module each
contribute an X25519 ephemeral; the device signs (Ed25519) its measurement
claims together with a hash of the handshake transcript, which binds both
messages.  The session key is HKDF-derived from the shared secret with
the transcript hash as salt, so it depends on both ephemerals and on
every transcript byte.  Any single-bit tamper in transit makes at least
one side abort: the device signs what it actually saw, and the client
recomputes the transcript from what it actually sent.

The device-to-engine hand-off of the agreed key is a direct trusted call
(:meth:`EncryptionEngine.install_session_key`); both ends live inside the
simulator's trust boundary.  The session key passes from the HSM to the
engine only: the server session learns its public key id from the
engine, and no other object here holds the key.

Wire format, shared by handshake and session traffic:

    frame := len(u32 BE, covers type+body) || type(u8) || body

    CLIENT_HELLO (1): eph_pub(32)
    HSM_HELLO    (2): eph_pub(32) || claims(4) || transcript_hash(32)
                      || signature(64)
    IMPORT       (3): dst u64 || ct_len u32 || ciphertext
    COMPUTE      (4): entry u64 || img_len u32 || image bytes
    EXPORT       (5): src u64 || count u64
    RESULT       (6): payload (request-specific)
    ERROR        (7): utf-8 message

    claims := taint_extensions(u8) || os_certified(u8) || mode(u8)
              || aead scheme id(u8, always 1: chacha20poly1305)

All multi-byte integers big-endian; parsers reject trailing bytes.

``cryptography`` comes from :func:`blindsim.engine.crypto`, the first
time a function derives, signs or verifies, so that importing this module
(which ``import blindsim`` and the CLI do) loads none of it: a process
that only simulates or checks saves about 6.5 MB of RSS and 20-30 ms of
cold start.  Later handshakes run no import statement.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

from . import machine
from .assembler import decode_image
from .engine import AEAD_SCHEME, EncryptionEngine, SessionKey, crypto
from .isa import Mode
from .model import Status, SystemState

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

_TRANSCRIPT_LABEL = b"blindsim-handshake-v1"
_EVIDENCE_LABEL = b"blindsim-evidence-v1"
_SESSION_INFO = b"blindsim-session-v1"

_SCHEME_ID = 1  # AEAD_SCHEME, the only scheme

_MODE_IDS = {Mode.MODEL: 0, Mode.HARDWARE: 1}
_MODE_NAMES = {v: k for k, v in _MODE_IDS.items()}


class ProtocolError(Exception):
    """Malformed frame or unexpected message."""


class VerifyError(Exception):
    """Attestation evidence or transcript failed verification."""


class FrameType(IntEnum):
    CLIENT_HELLO = 1
    HSM_HELLO = 2
    IMPORT = 3
    COMPUTE = 4
    EXPORT = 5
    RESULT = 6
    ERROR = 7


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Claims:
    """What the device attests about itself."""

    has_taint_extensions: bool = True
    os_certified: bool = True
    policy_mode: Mode = Mode.HARDWARE

    def encode(self) -> bytes:
        return bytes(
            [
                1 if self.has_taint_extensions else 0,
                1 if self.os_certified else 0,
                _MODE_IDS[self.policy_mode],
                _SCHEME_ID,
            ]
        )

    @classmethod
    def parse(cls, data: bytes) -> Claims:
        if len(data) != 4:
            raise ProtocolError("claims must be 4 bytes")
        if data[0] > 1 or data[1] > 1:
            raise ProtocolError("boolean claim out of range")
        if data[2] not in _MODE_NAMES or data[3] != _SCHEME_ID:
            raise ProtocolError("unknown mode or scheme id")
        return cls(bool(data[0]), bool(data[1]), _MODE_NAMES[data[2]])


@dataclass(frozen=True, slots=True)
class ClientHello:
    ephemeral_public: bytes


@dataclass(frozen=True, slots=True)
class HsmHello:
    """The device's ephemeral and its signed evidence."""

    ephemeral_public: bytes
    claims: Claims
    transcript_hash: bytes
    signature: bytes


@dataclass(frozen=True, slots=True)
class ImportRequest:
    dst: int
    ciphertext: bytes


@dataclass(frozen=True, slots=True)
class ComputeRequest:
    entry: int
    image: bytes  # encoded program image


@dataclass(frozen=True, slots=True)
class ExportRequest:
    src: int
    count: int


@dataclass(frozen=True, slots=True)
class ResultResponse:
    payload: bytes


@dataclass(frozen=True, slots=True)
class ErrorResponse:
    message: str


Message = (
    ClientHello
    | HsmHello
    | ImportRequest
    | ComputeRequest
    | ExportRequest
    | ResultResponse
    | ErrorResponse
)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(msg: Message) -> bytes:
    if isinstance(msg, ClientHello):
        ftype, body = FrameType.CLIENT_HELLO, msg.ephemeral_public
    elif isinstance(msg, HsmHello):
        ftype = FrameType.HSM_HELLO
        body = msg.ephemeral_public + msg.claims.encode() + msg.transcript_hash + msg.signature
    elif isinstance(msg, ImportRequest):
        ftype = FrameType.IMPORT
        body = struct.pack(">QI", msg.dst, len(msg.ciphertext)) + msg.ciphertext
    elif isinstance(msg, ComputeRequest):
        ftype = FrameType.COMPUTE
        body = struct.pack(">QI", msg.entry, len(msg.image)) + msg.image
    elif isinstance(msg, ExportRequest):
        ftype = FrameType.EXPORT
        body = struct.pack(">QQ", msg.src, msg.count)
    elif isinstance(msg, ResultResponse):
        ftype, body = FrameType.RESULT, msg.payload
    elif isinstance(msg, ErrorResponse):
        ftype, body = FrameType.ERROR, msg.message.encode()
    else:
        raise ProtocolError(f"cannot encode {msg!r}")
    return struct.pack(">I", 1 + len(body)) + bytes([ftype]) + body


def decode_frame(frame: bytes) -> Message:
    """Strict inverse of :func:`encode_frame`; trailing bytes rejected."""
    if len(frame) < 5:
        raise ProtocolError("frame too short")
    (length,) = struct.unpack(">I", frame[:4])
    if length != len(frame) - 4:
        raise ProtocolError("frame length mismatch")
    ftype, body = frame[4], frame[5:]
    if ftype == FrameType.CLIENT_HELLO:
        if len(body) != 32:
            raise ProtocolError("bad hello length")
        return ClientHello(body)
    if ftype == FrameType.HSM_HELLO:
        if len(body) != 32 + 4 + 32 + 64:
            raise ProtocolError("bad hello length")
        return HsmHello(body[:32], Claims.parse(body[32:36]), body[36:68], bytes(body[68:]))
    if ftype == FrameType.IMPORT:
        if len(body) < 12:
            raise ProtocolError("truncated import frame")
        dst, ct_len = struct.unpack(">QI", body[:12])
        if len(body) != 12 + ct_len:
            raise ProtocolError("import ciphertext length mismatch")
        return ImportRequest(dst, body[12:])
    if ftype == FrameType.COMPUTE:
        if len(body) < 12:
            raise ProtocolError("truncated compute frame")
        entry, img_len = struct.unpack(">QI", body[:12])
        if len(body) != 12 + img_len:
            raise ProtocolError("compute image length mismatch")
        return ComputeRequest(entry, body[12:])
    if ftype == FrameType.EXPORT:
        if len(body) != 16:
            raise ProtocolError("bad export frame")
        src, count = struct.unpack(">QQ", body)
        return ExportRequest(src, count)
    if ftype == FrameType.RESULT:
        return ResultResponse(body)
    if ftype == FrameType.ERROR:
        return ErrorResponse(body.decode(errors="replace"))
    raise ProtocolError(f"unknown frame type {ftype}")


def max_frame_length(memory_words: int) -> int:
    """Largest legal length field for a machine of ``memory_words`` words:
    a compute image with one segment per word (25 bytes a word), with
    room for headers, handshake frames and error messages."""
    return 256 + 25 * memory_words


def _check_length(length: int, max_length: int) -> None:
    if length > max_length:
        raise ProtocolError(f"frame length {length} exceeds the limit of {max_length}")


def read_frame(stream, max_length: int) -> bytes | None:
    """One raw frame from a binary stream; None if the stream ends first.
    Raises ProtocolError, before reading the body, on a length field
    above ``max_length``."""
    header = stream.read(4)
    if len(header) != 4:
        return None
    (length,) = struct.unpack(">I", header)
    _check_length(length, max_length)
    body = stream.read(length)
    if len(body) != length:
        return None
    return header + body


# ---------------------------------------------------------------------------
# Key material helpers
# ---------------------------------------------------------------------------


def _seed_bytes(seed: int) -> bytes:
    if not 0 <= seed < 1 << 256:
        raise ValueError("seed must be in [0, 2**256)")
    return seed.to_bytes(32, "big")


def _derive_private(seed: bytes, label: bytes) -> X25519PrivateKey:
    material = hashlib.sha256(label + seed).digest()
    return crypto().X25519PrivateKey.from_private_bytes(material)


def make_device_keypair(seed: int) -> tuple[bytes, bytes]:
    """(private, public) Ed25519 device identity, deterministic in ``seed``.

    Here and in the handshake endpoints a seed outside ``[0, 2**256)`` is a
    ``ValueError``."""
    material = hashlib.sha256(b"device-key" + _seed_bytes(seed)).digest()
    private = crypto().Ed25519PrivateKey.from_private_bytes(material)
    return private.private_bytes_raw(), private.public_key().public_bytes_raw()


def _transcript_hash(client_hello_frame: bytes, hsm_eph: bytes, claims: Claims) -> bytes:
    h = hashlib.sha256()
    h.update(_TRANSCRIPT_LABEL)
    h.update(client_hello_frame)
    h.update(hsm_eph)
    h.update(claims.encode())
    return h.digest()


def _agree(
    private: X25519PrivateKey, peer_public: bytes, salt: bytes, refusal: type[Exception], peer: str
) -> SessionKey:
    """The session key: X25519 with the peer's ephemeral, then HKDF-SHA256
    with ``salt``, the transcript hash.  A low-order peer point, which
    gives the all-zero shared secret (RFC 7748 section 6.1), raises
    ``refusal``."""
    c = crypto()
    peer_key = c.X25519PublicKey.from_public_bytes(peer_public)
    try:
        shared = private.exchange(peer_key)
    except ValueError:  # an all-zero shared secret
        raise refusal(f"{peer} ephemeral is a low-order point") from None
    kdf = c.HKDF(
        algorithm=c.hashes.SHA256(),
        length=32,
        salt=salt,
        info=_SESSION_INFO + AEAD_SCHEME.encode(),
    )
    return SessionKey.from_bytes(kdf.derive(shared))


# ---------------------------------------------------------------------------
# Handshake endpoints
# ---------------------------------------------------------------------------


class ClientHandshake:
    """Client side: emit a hello, then verify the device's reply.

    ``finish`` raises :class:`VerifyError` unless the evidence signature
    checks out under the expected device key, the claims show taint
    extensions, a certified OS and (when one is required) the policy
    mode, the transcript hash matches what this client actually sent, and
    the device ephemeral is not a low-order point.
    """

    def __init__(
        self,
        device_public: bytes,
        seed: int,
        required_mode: Mode | None = None,
    ):
        self._device_public = crypto().Ed25519PublicKey.from_public_bytes(device_public)
        self._private = _derive_private(_seed_bytes(seed), b"client-eph")
        self._required_mode = required_mode
        self._hello_frame: bytes | None = None

    def hello(self) -> bytes:
        """The CLIENT_HELLO frame to put on the wire."""
        self._hello_frame = encode_frame(ClientHello(self._private.public_key().public_bytes_raw()))
        return self._hello_frame

    def finish(self, hsm_hello_frame: bytes) -> SessionKey:
        if self._hello_frame is None:
            raise ProtocolError("finish() before hello()")
        try:
            msg = decode_frame(hsm_hello_frame)
        except ProtocolError as exc:
            raise VerifyError(f"malformed reply: {exc}") from None
        if not isinstance(msg, HsmHello):
            raise VerifyError("expected a device hello")

        claims = msg.claims
        if not claims.has_taint_extensions:
            raise VerifyError("device lacks taint-tracking extensions")
        if not claims.os_certified:
            raise VerifyError("device OS is not certified")
        if self._required_mode is not None and claims.policy_mode is not self._required_mode:
            raise VerifyError(f"device runs {claims.policy_mode.value} mode")

        expected_hash = _transcript_hash(self._hello_frame, msg.ephemeral_public, claims)
        if msg.transcript_hash != expected_hash:
            raise VerifyError("transcript hash mismatch")
        try:
            self._device_public.verify(
                msg.signature, _EVIDENCE_LABEL + claims.encode() + msg.transcript_hash
            )
        except crypto().InvalidSignature:
            raise VerifyError("evidence signature invalid") from None
        return _agree(self._private, msg.ephemeral_public, msg.transcript_hash, VerifyError, "device")


class HsmResponder:
    """Device side: answer hellos with signed evidence and derive the key.

    Each response uses a fresh ephemeral (a replayed hello still yields a
    new session key).  The derived key goes to the engine and nowhere
    else: :meth:`respond` installs it and returns only the reply frame.
    While the engine holds another key the hello is refused with its
    ``EngineError``, before anything is signed and without using up an
    ephemeral.
    """

    def __init__(self, device_private: bytes, claims: Claims, seed: int, engine: EncryptionEngine):
        self._private = crypto().Ed25519PrivateKey.from_private_bytes(device_private)
        self._claims = claims
        self._seed = _seed_bytes(seed)
        self._engine = engine
        self._sessions = 0

    def respond(self, client_hello_frame: bytes) -> bytes:
        try:
            msg = decode_frame(client_hello_frame)
        except ProtocolError as exc:
            raise ProtocolError(f"malformed hello: {exc}") from None
        if not isinstance(msg, ClientHello):
            raise ProtocolError("expected a client hello")

        eph_seed = self._seed + struct.pack(">Q", self._sessions)
        private = _derive_private(eph_seed, b"hsm-eph")
        eph_public = private.public_key().public_bytes_raw()

        transcript_hash = _transcript_hash(client_hello_frame, eph_public, self._claims)
        self._engine.install_session_key(
            _agree(private, msg.ephemeral_public, transcript_hash, ProtocolError, "client")
        )
        self._sessions += 1
        signature = self._private.sign(
            _EVIDENCE_LABEL + self._claims.encode() + transcript_hash
        )
        return encode_frame(HsmHello(eph_public, self._claims, transcript_hash, signature))


# ---------------------------------------------------------------------------
# Server session: the request loop behind the protocol demo
# ---------------------------------------------------------------------------


# An outcome's byte is its place in RunOutcome: halted 0, faulted 1,
# fault-loop 2, step-limit 3.
_OUTCOME_NAMES = tuple(outcome.value for outcome in machine.RunOutcome)


def encode_compute_result(outcome: str, steps: int) -> bytes:
    return bytes([_OUTCOME_NAMES.index(outcome)]) + struct.pack(">Q", steps)


def parse_compute_result(payload: bytes) -> tuple[str, int]:
    if len(payload) != 9 or payload[0] >= len(_OUTCOME_NAMES):
        raise ProtocolError("bad compute result")
    return _OUTCOME_NAMES[payload[0]], struct.unpack(">Q", payload[1:])[0]


def _error_frame(exc: Exception) -> bytes:
    return encode_frame(ErrorResponse(f"{type(exc).__name__}: {exc}"))


class ServerSession:
    """One client's session: handshake once, then import/compute/export.

    Owns a machine state and an engine; the trace of its latest compute
    run is kept as the one text in :attr:`traces` (this is exactly what
    an observer at the server can see).  A compute empties it before it
    runs, so the last text is not held through the run's peak.
    Import, compute and export are refused until this session's own
    handshake has succeeded, even if the engine already holds a key from
    another session.  The handshake records the session's key id, read
    from the engine (the session never holds the key), and import and
    export are refused unless the engine holds that key.  A
    handshake is refused while the engine holds another key, so switching
    sessions is the OS's job: it seals the current key before another
    session's handshake, and loads a sealed key to switch back.  An
    import commits the engine's writes with one :meth:`SystemState.edit`.
    An import that puts a blinded word in an unblindable range, where
    blinded data may never land, is refused
    (:meth:`MachineConfig.refuse_blinded`), and so is a compute whose
    image does (:func:`machine.overlay_image`, the loader's gate given
    the session's config); a refused import or compute
    runs nothing and leaves :attr:`state` the same object.  The claims
    must attest the machine's own mode, or the session is refused with a
    ValueError: the mode a client checks is the mode its data runs in.
    """

    def __init__(
        self,
        device_private: bytes,
        claims: Claims,
        engine: EncryptionEngine,
        cfg,
        seed: int,
        max_steps: int = 100_000,
    ):
        assert isinstance(cfg, machine.MachineConfig)
        if claims.policy_mode is not cfg.mode:
            raise ValueError(
                f"claims attest {claims.policy_mode.value} mode, the machine runs {cfg.mode.value}"
            )
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.cfg = cfg
        self.engine = engine
        self.responder = HsmResponder(device_private, claims, seed, engine=engine)
        self.state = SystemState.initial(cfg.memory_words, cfg.cache_lines)
        self.max_steps = max_steps
        self.traces: list[str] = []
        self.key_id: bytes | None = None  # set by this session's handshake

    def handle_frame(self, frame: bytes) -> bytes:
        """Answer one raw frame.  Any exception becomes an error reply that
        names its class, so no frame can stop the session; a frame over
        :func:`max_frame_length` is refused before it is decoded."""
        try:
            _check_length(len(frame) - 4, max_frame_length(self.cfg.memory_words))
            msg = decode_frame(frame)
            if isinstance(msg, ClientHello):
                reply = self.responder.respond(frame)
                self.key_id = self.engine.current_key_id
                return reply
            requests = (ImportRequest, ComputeRequest, ExportRequest)
            if isinstance(msg, requests) and self.key_id is None:
                return encode_frame(ErrorResponse(f"{type(msg).__name__} before the session handshake"))
            keyed = (ImportRequest, ExportRequest)
            if isinstance(msg, keyed) and self.engine.current_key_id != self.key_id:
                return encode_frame(
                    ErrorResponse(f"{type(msg).__name__} while the engine holds another key")
                )
            if isinstance(msg, ImportRequest):
                writes = self.engine.import_region(self.state.memory, msg.dst, msg.ciphertext)
                state = self.state.edit(memory=writes)
                if self.cfg.unblindable_ranges:
                    self.cfg.refuse_blinded("import", state.memory, msg.dst, len(writes))
                self.state = state
                return encode_frame(ResultResponse(b""))
            if isinstance(msg, ComputeRequest):
                image = decode_image(msg.image)
                state = machine.overlay_image(self.state, image, pc=msg.entry, cfg=self.cfg)
                self.state = state.edit(status=Status.RUNNING)
                self.traces = []  # free the last text before the run peaks
                result = machine.run(self.state, self.cfg, self.max_steps)
                self.state = result.state
                self.traces = [machine.format_trace(result.trace)]
                return encode_frame(
                    ResultResponse(
                        encode_compute_result(result.outcome.value, result.steps)
                    )
                )
            if isinstance(msg, ExportRequest):
                envelope = self.engine.export_region(
                    self.state.memory, msg.src, msg.count
                )
                return encode_frame(ResultResponse(envelope))
            return encode_frame(ErrorResponse(f"unexpected message {type(msg).__name__}"))
        except Exception as exc:
            return _error_frame(exc)

    def serve_stream(self, stream) -> None:
        """Answer frames from a duplex binary stream until it closes; an
        oversized frame gets an error reply and ends the session."""
        max_length = max_frame_length(self.cfg.memory_words)
        while True:
            try:
                frame = read_frame(stream, max_length)
            except ProtocolError as exc:
                stream.write(_error_frame(exc))
                stream.flush()
                return
            except (OSError, ValueError):
                return
            if frame is None:
                return
            stream.write(self.handle_frame(frame))
            stream.flush()
