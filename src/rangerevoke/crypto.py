"""Deterministic cryptographic primitives.

Every other module consumes exactly four operations: det_keygen, det_sign,
ver_sign and digest.  The concrete algorithms (Ed25519, SHA-256) are chosen
here and nowhere else, so swapping them touches a single file.

All operations are pure: no I/O, no clock, no global state.  Values are
plain bytes and may be shared freely across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

SEED_LEN = 32
PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64

_RAW = serialization.Encoding.Raw
_RAW_PUB = serialization.PublicFormat.Raw


@dataclass(frozen=True)
class KeyPair:
    """Deterministically derived signing key pair.

    ``seed`` doubles as the private key material (Ed25519 private keys are
    exactly a 32-byte seed).  ``public`` is the 32-byte raw verification key.
    ``signer`` is the private key ``det_keygen`` parsed from the seed, kept
    so that signing never parses it again; it is derived from the seed, so
    equality, hashing and repr leave it out and stay on (seed, public).
    The seed must never appear in any serialized artifact.
    """

    seed: bytes
    public: bytes
    signer: Ed25519PrivateKey = field(compare=False, repr=False)


def det_keygen(seed: bytes) -> KeyPair:
    """Derive a key pair from a 32-byte seed; same seed, same pair."""
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes(_RAW, _RAW_PUB)
    return KeyPair(seed=seed, public=public, signer=private)


def det_sign(key: KeyPair, message: bytes) -> bytes:
    """Sign deterministically: same (key, message), byte-identical signature."""
    return key.signer.sign(message)


def ver_sign(public: bytes, message: bytes, sig: bytes) -> bool:
    """Check ``sig`` over ``message`` under ``public``.

    Malformed key or signature bytes yield False, never an exception.
    """
    if len(public) != PUBLIC_KEY_LEN or len(sig) != SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(sig, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def digest(message: bytes) -> bytes:
    """32-byte collision-resistant digest (SHA-256)."""
    return hashlib.sha256(message).digest()


def seed_from_parts(*parts: bytes | int) -> bytes:
    """Digest a canonical serialization of mixed byte/int fields.

    Byte fields are length-prefixed (u32 big-endian) so distinct tuples can
    never collide on concatenation; integers are encoded as fixed-width
    u64 big-endian.
    """
    buf = bytearray()
    for part in parts:
        if isinstance(part, int):
            buf += part.to_bytes(8, "big")
        else:
            buf += len(part).to_bytes(4, "big")
            buf += part
    return digest(bytes(buf))
