"""Deterministic cryptographic primitives.

Other modules derive keys (det_keygen, or rebuild_keypair when the public
key is already known), sign (det_sign), verify (ver_sign) and hash (digest,
seed_from_parts).  The concrete algorithms (Ed25519, SHA-256) and
libsodium's secret-key layout are known here and nowhere else, so swapping
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
    ``signer`` is libsodium's 64-byte secret key, ``seed ‖ public``, kept
    so that signing never derives it again; it follows from the seed, so
    equality, hashing and repr leave it out and stay on (seed, public).
    Neither the seed nor the signer may appear in any serialized artifact.
    """

    seed: bytes
    public: bytes
    signer: bytes = field(compare=False, repr=False)


def det_keygen(seed: bytes) -> KeyPair:
    """Derive a key pair from a 32-byte seed; same seed, same pair."""
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    public = _PublicBuffer()
    secret = _SecretBuffer()
    _sodium.crypto_sign_seed_keypair(public, secret, seed)
    return KeyPair(seed=seed, public=public.raw, signer=secret.raw)


def rebuild_keypair(seed: bytes, public: bytes) -> KeyPair:
    """The pair ``det_keygen(seed)`` returns, from ``seed``'s public key,
    with no Ed25519 call.

    libsodium's secret key is ``seed ‖ public``, and RFC 8032 signing reads
    the public key from it instead of multiplying the base point again.
    ``public`` is not checked against ``seed``: that check is the
    multiplication this skips.  A wrong public key gives a pair whose
    signatures verify under no key, so pass only a key that ``det_keygen``
    gave for this very seed.
    """
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    if len(public) != PUBLIC_KEY_LEN:
        raise ValueError(f"public key must be {PUBLIC_KEY_LEN} bytes, got {len(public)}")
    return KeyPair(seed=seed, public=public, signer=seed + public)


def det_sign(key: KeyPair, message: bytes) -> bytes:
    """Sign deterministically: same (key, message), byte-identical signature.
    ``message`` may be any bytes-like value."""
    if len(key.signer) != SECRET_KEY_LEN:
        raise ValueError(f"secret key must be {SECRET_KEY_LEN} bytes")
    sig = _SignatureBuffer()
    try:
        _sodium.crypto_sign_detached(sig, None, message, len(message), key.signer)
    except ctypes.ArgumentError:        # a bytes-like message other than bytes
        message = _raw(message)
        _sodium.crypto_sign_detached(sig, None, message, len(message), key.signer)
    return sig.raw


def ver_sign(public: bytes, message: bytes, sig: bytes) -> bool:
    """Check ``sig`` over ``message`` under ``public``.

    Any bytes-like values are accepted.  Malformed key or signature bytes
    yield False, never an exception.
    """
    if type(public) is not bytes or type(message) is not bytes or type(sig) is not bytes:
        public, message, sig = _raw(public), _raw(message), _raw(sig)
    if len(public) != PUBLIC_KEY_LEN or len(sig) != SIGNATURE_LEN:
        return False
    return _sodium.crypto_sign_verify_detached(sig, message, len(message), public) == 0


def _raw(value) -> bytes:
    """A copy of a bytes-like value (``bytearray``, ``memoryview``) as
    ``bytes``, the only type ctypes passes as a pointer."""
    return memoryview(value).tobytes()


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
