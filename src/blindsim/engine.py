"""Encryption engine: the only sanctioned way secrets cross the tag boundary.

The engine holds one session key at a time.  *Import* authenticates and
decrypts a ciphertext and returns writes that put the plaintext in
memory, all blinded, for one :meth:`~blindsim.model.SystemState.edit`:
no state ever shows it clear.  *Export* encrypts a region of any word
sequence; ciphertext is ordinary clear data.  On a context switch the OS
can *seal* the current key (encrypt it under a device-internal root key)
and later load it back; it never sees key material in the clear.  A
sealed key is its blob: the bytes :meth:`EncryptionEngine.seal_current_key`
returns and :meth:`EncryptionEngine.load_sealed_key` takes.  Its body is
``key(32) || counter u64 BE``; loading derives the key id from the key.

Cipher: ChaCha20-Poly1305 with 256-bit keys and 96-bit nonces.  Session
nonces are counter-derived and direction-scoped so client and engine never
collide under the shared session key, and the export counter travels
inside sealed blobs to survive context switches.  The engine keeps the
next export counter of every key id it has held, a high-water mark that
installing, sealing and loading never lower, so loading a stale blob of
a key cannot wind its counter back:

    nonce = direction(1) || key_id[:3] || counter u64 BE
    direction: 0x43 client->engine, 0x45 engine->client

Engines sharing a root key share no counter, so sealing uses a synthetic
IV (after RFC 5297 and RFC 8452) that loading recomputes: nonce = 0x53 ||
HMAC-SHA256(iv_key, SEAL_LABEL || body)[:11], with ``iv_key`` =
HMAC-SHA256(root_key, "blindsim-seal-iv").  The same body seals to the
same blob.

Envelope layout: ``nonce(12) || ciphertext || tag(16)``.

``cryptography`` is imported by the first :func:`crypto` call, which the
envelope functions here and the handshake in :mod:`blindsim.protocol`
make, not at the top of this module: ``import blindsim`` imports this
module, but simulating and checking never encrypt, and loading
cryptography's OpenSSL bindings would cost each such process about 6.5 MB
of RSS and 20-30 ms of cold start (Python 3.11 on a 2-core x86-64 host: a
fresh ``import blindsim.cli`` peaks at 21.1 MB instead of 27.6 MB, and
takes a median 190 ms instead of 216 ms).  That call keeps the names it
loads in a module global, so a later seal, open or handshake reads one
global rather than running an import statement, a ``sys.modules`` lookup
of 0.5-1.3 us.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from types import SimpleNamespace

from .model import TaggedWord

AEAD_SCHEME = "chacha20poly1305"
KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16
KEY_ID_LEN = 16

SEAL_LABEL = b"SEAL"
_SEAL_IV_LABEL = b"blindsim-seal-iv"

_DIR_CLIENT = 0x43
_DIR_ENGINE = 0x45
_DIR_SEAL = 0x53


class EngineError(Exception):
    pass


class AuthError(EngineError):
    """Ciphertext failed authentication or is malformed."""


class RangeError(EngineError):
    """Memory region out of bounds."""


class NoKeyError(EngineError):
    """No session key is currently loaded."""


def key_id_for(key: bytes) -> bytes:
    return hashlib.sha256(b"blindsim-key-id" + key).digest()[:KEY_ID_LEN]


@dataclass(frozen=True, slots=True)
class SessionKey:
    """256-bit secret plus its public identifier (a key hash)."""

    key: bytes
    key_id: bytes

    @classmethod
    def from_bytes(cls, key: bytes) -> SessionKey:
        if len(key) != KEY_LEN:
            raise ValueError(f"session key must be {KEY_LEN} bytes")
        return cls(key, key_id_for(key))

    def __repr__(self) -> str:  # never leak key material into logs
        return f"SessionKey(key_id={self.key_id.hex()})"


def _nonce(direction: int, key_id: bytes, counter: int) -> bytes:
    return bytes([direction]) + key_id[:3] + struct.pack(">Q", counter)


def words_to_bytes(words) -> bytes:
    return b"".join(struct.pack("<Q", int(w)) for w in words)


def bytes_to_words(data: bytes) -> tuple[int, ...]:
    if len(data) % 8:
        raise ValueError("payload length is not a multiple of 8")
    return struct.unpack(f"<{len(data) // 8}Q", data)


# The ``cryptography`` names blindsim uses, once :func:`crypto` first runs.
_crypto: SimpleNamespace | None = None


def crypto() -> SimpleNamespace:
    """The ``cryptography`` names of the engine and the handshake, imported
    by the first call and read from a module global after it."""
    global _crypto
    if _crypto is None:
        from cryptography.exceptions import InvalidSignature, InvalidTag
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric.ed25519 import (
            Ed25519PrivateKey,
            Ed25519PublicKey,
        )
        from cryptography.hazmat.primitives.asymmetric.x25519 import (
            X25519PrivateKey,
            X25519PublicKey,
        )
        from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
        from cryptography.hazmat.primitives.kdf.hkdf import HKDF

        _crypto = SimpleNamespace(
            ChaCha20Poly1305=ChaCha20Poly1305,
            InvalidTag=InvalidTag,
            InvalidSignature=InvalidSignature,
            hashes=hashes,
            Ed25519PrivateKey=Ed25519PrivateKey,
            Ed25519PublicKey=Ed25519PublicKey,
            X25519PrivateKey=X25519PrivateKey,
            X25519PublicKey=X25519PublicKey,
            HKDF=HKDF,
        )
    return _crypto


def seal_envelope(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    return nonce + crypto().ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)


def open_envelope(key: bytes, envelope: bytes, aad: bytes = b"") -> bytes:
    if len(envelope) < NONCE_LEN + TAG_LEN:
        raise AuthError("envelope too short")
    c = crypto()
    nonce, body = envelope[:NONCE_LEN], envelope[NONCE_LEN:]
    try:
        return c.ChaCha20Poly1305(key).decrypt(nonce, body, aad)
    except c.InvalidTag:
        raise AuthError("authentication failed") from None


def client_encrypt(key: SessionKey, words, counter: int) -> bytes:
    """Client-side encryption for import; counter must not repeat per key."""
    nonce = _nonce(_DIR_CLIENT, key.key_id, counter)
    return seal_envelope(key.key, nonce, words_to_bytes(words))


def client_decrypt(key: SessionKey, envelope: bytes) -> tuple[int, ...]:
    """Client-side decryption of an exported result."""
    return bytes_to_words(open_envelope(key.key, envelope))


class EncryptionEngine:
    """Session-key slot plus root-key sealing; one owner at a time.

    All operations are serialized by that owner; the engine performs no
    internal locking.
    """

    def __init__(self, root_key: bytes):
        if len(root_key) != KEY_LEN:
            raise ValueError(f"root key must be {KEY_LEN} bytes")
        self._root_key = root_key
        self._seal_iv_key = hmac.digest(root_key, _SEAL_IV_LABEL, "sha256")
        self._current: SessionKey | None = None
        # Next export counter per key id: the high-water mark, never lowered.
        self._counters: dict[bytes, int] = {}

    @property
    def current_key_id(self) -> bytes | None:
        return self._current.key_id if self._current else None

    @property
    def export_counter(self) -> int:
        """The current key's next export counter; 0 with no key loaded."""
        return self._counters.get(self._current.key_id, 0) if self._current else 0

    def install_session_key(self, key: SessionKey) -> None:
        """Trusted call used by the attestation module after key agreement.
        A key this engine has held before resumes at its counter's mark.
        Raises EngineError while the slot holds another key: the OS seals
        it first, so no key is thrown away unsealed."""
        self._refuse_another_key(key.key_id)
        self._current = key

    def _refuse_another_key(self, key_id: bytes) -> None:
        if self._current is not None and self._current.key_id != key_id:
            raise EngineError("the engine holds another session key; seal it first")

    def _require_key(self) -> SessionKey:
        if self._current is None:
            raise NoKeyError("no session key loaded")
        return self._current

    # -- data path ---------------------------------------------------------

    def import_region(self, memory, dst: int, envelope: bytes) -> list[tuple[int, TaggedWord]]:
        """Decrypt and taint: the writes that land the plaintext at ``dst``.

        Returns ``(address, blinded word)`` pairs from ``dst`` on, as
        :meth:`SystemState.edit` takes them; the caller commits them with
        one edit, and a refused import raises before it returns any.
        ``memory``, any word sequence, is read only for its length.  Only a
        client-direction nonce for the current key is accepted, so the
        engine's own export cannot be reflected back into memory.
        """
        key = self._require_key()
        if envelope[:4] != bytes([_DIR_CLIENT]) + key.key_id[:3]:
            raise AuthError("envelope nonce is not a client nonce for the current key")
        plaintext = open_envelope(key.key, envelope)
        if len(plaintext) % 8:
            raise AuthError("plaintext length is not a multiple of 8")
        values = bytes_to_words(plaintext)
        if dst < 0 or dst + len(values) > len(memory):
            raise RangeError(
                f"import of {len(values)} words at {dst:#x} exceeds memory"
            )
        return [(a, TaggedWord(v, True)) for a, v in enumerate(values, dst)]

    def export_region(self, memory, src: int, n: int) -> bytes:
        """Encrypt and untaint: ciphertext of ``n`` words of ``memory``, any
        word sequence, from ``src``.  Tags are ignored on read -- encrypting
        data the observer already knows reveals nothing, so mixed regions
        are legal.  Each export uses a fresh counter-derived nonce.
        """
        key = self._require_key()
        if src < 0 or n < 0 or src + n > len(memory):
            raise RangeError(f"export of {n} words at {src:#x} exceeds memory")
        payload = words_to_bytes(w.value for w in memory[src: src + n])
        counter = self._counters.get(key.key_id, 0)
        self._counters[key.key_id] = counter + 1
        return seal_envelope(key.key, _nonce(_DIR_ENGINE, key.key_id, counter), payload)

    # -- key management ----------------------------------------------------

    def _seal_iv(self, body: bytes) -> bytes:
        return bytes([_DIR_SEAL]) + hmac.digest(self._seal_iv_key, SEAL_LABEL + body, "sha256")[:11]

    def seal_current_key(self) -> bytes:
        """Encrypt the session key (and its export counter) under the root
        key, clear the slot and return the sealed blob."""
        key = self._require_key()
        body = key.key + struct.pack(">Q", self.export_counter)
        blob = seal_envelope(self._root_key, self._seal_iv(body), body, aad=SEAL_LABEL)
        self._current = None
        return blob

    def load_sealed_key(self, blob: bytes) -> None:
        """Authenticate a sealed blob and make it the current session key,
        whose id is derived from the key in the blob's authenticated body.
        Its export counter is the larger of the blob's and this engine's
        mark for the key, so a stale blob cannot make a nonce repeat.
        Raises EngineError, leaving the slot and the marks as they were,
        while the slot holds another key: as in
        :meth:`install_session_key`, no key is thrown away unsealed."""
        body = open_envelope(self._root_key, blob, aad=SEAL_LABEL)
        if not hmac.compare_digest(blob[:NONCE_LEN], self._seal_iv(body)):
            raise AuthError("sealed blob nonce is not its synthetic IV")
        if len(body) != KEY_LEN + 8:
            raise AuthError("sealed blob has the wrong shape")
        key = body[:KEY_LEN]
        (counter,) = struct.unpack(">Q", body[KEY_LEN:])
        key_id = key_id_for(key)
        self._refuse_another_key(key_id)
        self._current = SessionKey(key, key_id)
        self._counters[key_id] = max(counter, self._counters.get(key_id, 0))
