"""Deterministic cryptographic primitives.

Other modules derive keys (det_keygen), sign (det_sign), verify
(ver_sign) and hash (digest, seed_from_parts).  A key pair is its 32-byte
seed and 32-byte public key, nothing more; a caller that already knows a
seed's public key builds ``KeyPair(seed, public)`` with no Ed25519 call.
The concrete algorithms (Ed25519, SHA-256) and libsodium's secret-key
layout (``seed ‖ public``) are known here and nowhere else, so swapping
them touches a single file.

Ed25519 runs in libsodium, called through ``ctypes``.  There is exactly one
implementation and no fallback: Ed25519 libraries disagree on hostile
input (OpenSSL accepts a signature of the identity point under the
identity public key for every message; libsodium refuses small-order keys
and points), so a verifier's decisions would otherwise depend on which
library its host happened to have.

All operations are pure: no I/O, no clock, no global state beyond the
library handle.  Values are plain bytes and may be shared freely across
threads.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import hashlib
from dataclasses import dataclass, field

SEED_LEN = 32
PUBLIC_KEY_LEN = 32
SECRET_KEY_LEN = 64
SIGNATURE_LEN = 64


SODIUM_SONAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.so", "libsodium.dylib")


def _load_sodium() -> ctypes.CDLL:
    # sonames first: on Linux ``find_library`` starts an ``ldconfig -p``
    # subprocess, about 25 ms of every process start
    for name in SODIUM_SONAMES:
        try:
            lib = ctypes.CDLL(name)
            break
        except OSError:
            pass
    else:
        path = ctypes.util.find_library("sodium")
        if path is None:
            raise ImportError("rangerevoke needs the libsodium shared library "
                              "(libsodium23 on Debian/Ubuntu, brew install libsodium)")
        lib = ctypes.CDLL(path)
    ubytes, ulonglong = ctypes.c_char_p, ctypes.c_ulonglong
    for name, argtypes in (
            ("sodium_init", []),
            ("crypto_sign_seed_keypair", [ubytes, ubytes, ubytes]),
            ("crypto_sign_detached", [ubytes, ctypes.c_void_p, ubytes, ulonglong, ubytes]),
            ("crypto_sign_verify_detached", [ubytes, ubytes, ulonglong, ubytes])):
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, ctypes.c_int
    if lib.sodium_init() < 0:
        raise ImportError(f"libsodium ({lib._name}) failed to initialize")
    return lib


_sodium = _load_sodium()
# output buffer types, built once; each call still makes its own buffer, so
# calls on different threads share none
_PublicBuffer = ctypes.c_char * PUBLIC_KEY_LEN
_SecretBuffer = ctypes.c_char * SECRET_KEY_LEN
_SignatureBuffer = ctypes.c_char * SIGNATURE_LEN


@dataclass(frozen=True)
class KeyPair:
    """Deterministically derived signing key pair.

    ``seed`` doubles as the private key material (Ed25519 private keys are
    exactly a 32-byte seed).  ``public`` is the 32-byte raw verification key.
    The seed may appear in no serialized artifact, so repr leaves it out.
    A pair whose ``public`` is not its seed's key signs for no key.
    """

    seed: bytes = field(repr=False)
    public: bytes


def det_keygen(seed: bytes) -> KeyPair:
    """Derive a key pair from a 32-byte seed; same seed, same pair."""
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    public = _PublicBuffer()
    _sodium.crypto_sign_seed_keypair(public, _SecretBuffer(), seed)
    return KeyPair(seed, public.raw)


def det_sign(key: KeyPair, message: bytes) -> bytes:
    """Sign deterministically: same (key, message), byte-identical signature.

    libsodium's secret key is ``seed ‖ public``, and RFC 8032 signing reads
    the public key from it instead of multiplying the base point again.
    """
    if len(key.seed) != SEED_LEN or len(key.public) != PUBLIC_KEY_LEN:
        raise ValueError(f"seed and public key must be {SEED_LEN} and "
                         f"{PUBLIC_KEY_LEN} bytes")
    sig = _SignatureBuffer()
    _sodium.crypto_sign_detached(sig, None, message, len(message), key.seed + key.public)
    return sig.raw


def ver_sign(public: bytes, message: bytes, sig: bytes) -> bool:
    """Check ``sig`` over ``message`` under ``public``.

    Values that are not ``bytes`` and malformed key or signature bytes
    yield False, never an exception.
    """
    if (type(public) is not bytes or type(message) is not bytes or type(sig) is not bytes
            or len(public) != PUBLIC_KEY_LEN or len(sig) != SIGNATURE_LEN):
        return False
    return _sodium.crypto_sign_verify_detached(sig, message, len(message), public) == 0


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
