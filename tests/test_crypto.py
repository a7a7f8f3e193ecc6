import copy
import ctypes.util
import hashlib
import os
import subprocess
import sys
from array import array
from dataclasses import fields
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rangerevoke import crypto
from rangerevoke.crypto import (
    SEED_LEN,
    SIGNATURE_LEN,
    KeyPair,
    det_keygen,
    det_sign,
    digest,
    seed_from_parts,
    ver_sign,
)


def test_keygen_deterministic():
    seed = bytes(range(32))
    a, b = det_keygen(seed), det_keygen(seed)
    assert a == b
    assert len(a.public) == 32


def test_keygen_distinct_seeds_distinct_keys():
    a = det_keygen(b"\x00" * 32)
    b = det_keygen(b"\x01" + b"\x00" * 31)
    assert a.public != b.public


def test_keygen_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        det_keygen(b"short")


def test_sign_deterministic_and_verifies():
    key = det_keygen(digest(b"k"))
    s1 = det_sign(key, b"hello")
    s2 = det_sign(key, b"hello")
    assert s1 == s2
    assert len(s1) == SIGNATURE_LEN
    assert ver_sign(key.public, b"hello", s1)


def test_verify_rejects_wrong_message_and_key():
    key = det_keygen(digest(b"k"))
    other = det_keygen(digest(b"o"))
    sig = det_sign(key, b"hello")
    assert not ver_sign(key.public, b"hellO", sig)
    assert not ver_sign(other.public, b"hello", sig)


def test_verify_malformed_inputs_return_false():
    key = det_keygen(digest(b"k"))
    sig = det_sign(key, b"m")
    assert not ver_sign(b"", b"m", sig)
    assert not ver_sign(key.public, b"m", b"short")
    assert not ver_sign(b"\xff" * 32, b"m", b"\x00" * 64)


def test_digest_known_vector():
    assert digest(b"") == hashlib.sha256(b"").digest()


def test_seed_from_parts_length_and_injectivity():
    assert len(seed_from_parts(b"x")) == SEED_LEN
    # length prefixes keep field boundaries unambiguous
    assert seed_from_parts(b"ab", b"c") != seed_from_parts(b"a", b"bc")
    assert seed_from_parts(b"a", 1) != seed_from_parts(b"a", 2)
    assert seed_from_parts(1, b"a") != seed_from_parts(b"a", 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), msg=st.binary(max_size=128))
def test_sign_verify_roundtrip_property(seed, msg):
    key = det_keygen(seed)
    assert ver_sign(key.public, msg, det_sign(key, msg))


def test_sign_matches_fresh_key_parse():
    seed = digest(b"fresh")
    key = det_keygen(seed)
    for msg in (b"", b"m", bytes(range(256))):
        assert det_sign(key, msg) == Ed25519PrivateKey.from_private_bytes(seed).sign(msg)


# RFC 8032 section 7.1, TEST 1: a 32-byte seed and the empty message
RFC8032_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
RFC8032_PUBLIC = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
RFC8032_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b")


def test_rfc8032_test_1():
    key = det_keygen(RFC8032_SEED)
    assert key.public == RFC8032_PUBLIC
    assert det_sign(key, b"") == RFC8032_SIGNATURE
    assert ver_sign(RFC8032_PUBLIC, b"", RFC8032_SIGNATURE)
    assert not ver_sign(RFC8032_PUBLIC, b"\x00", RFC8032_SIGNATURE)


def test_identity_key_forgery_refused():
    # the identity point as public key and as R, with S = 0, satisfies the
    # verification equation [S]B = R + [h]A for every message; a verifier
    # must refuse small-order keys instead of granting it
    identity = b"\x01" + bytes(31)
    forged = identity + bytes(32)
    for msg in (b"", b"any message", bytes(range(256))):
        assert not ver_sign(identity, msg, forged)


def _reference_verify(public: bytes, msg: bytes, sig: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(sig, msg)
    except InvalidSignature:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), msg=st.binary(max_size=128),
       flip=st.integers(min_value=0, max_value=8 * SIGNATURE_LEN - 1))
def test_agrees_with_reference_implementation(seed, msg, flip):
    # ``cryptography`` (OpenSSL) is the reference: same key, same signature,
    # and the same verdict on the honest and on a bit-flipped signature
    key = det_keygen(seed)
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    raw = serialization.Encoding.Raw, serialization.PublicFormat.Raw
    assert key.public == reference.public_key().public_bytes(*raw)
    sig = det_sign(key, msg)
    assert sig == reference.sign(msg)
    flipped = bytearray(sig)
    flipped[flip // 8] ^= 1 << (flip % 8)
    for candidate in (sig, bytes(flipped)):
        assert ver_sign(key.public, msg, candidate) == _reference_verify(
            key.public, msg, candidate)
    assert ver_sign(key.public, msg, sig) and not ver_sign(key.public, msg, bytes(flipped))


def test_sign_refuses_malformed_secret_key():
    # libsodium's secret key is seed ‖ public: either half of the wrong
    # length is refused before it is read
    key = det_keygen(digest(b"k"))
    for seed, public in ((b"", key.public), (key.seed + key.public, b"")):
        with pytest.raises(ValueError):
            det_sign(KeyPair(seed, public), b"m")


def test_rebuild_rejects_bad_lengths():
    # a pair rebuilt from a seed and public key of the wrong lengths
    # signs nothing
    key = det_keygen(digest(b"k"))
    for seed, public in ((b"short", key.public), (key.seed + b"\x00", key.public),
                         (key.seed, key.public[:31]), (key.seed, key.public + b"\x00"),
                         (key.seed, b"")):
        with pytest.raises(ValueError):
            det_sign(KeyPair(seed, public), b"m")


@settings(max_examples=25, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), msg=st.binary(max_size=128))
def test_rebuilt_keypair_is_the_derived_one(seed, msg):
    # a pair built from a seed and the public key det_keygen gave for it
    # is the derived pair, with no Ed25519 call
    derived = det_keygen(seed)
    rebuilt = KeyPair(seed, derived.public)
    assert rebuilt == derived and hash(rebuilt) == hash(derived)
    assert det_sign(rebuilt, msg) == det_sign(derived, msg)


def test_a_rebuilt_pair_with_a_wrong_public_key_signs_for_no_key():
    key, other = det_keygen(digest(b"k")), det_keygen(digest(b"o"))
    sig = det_sign(KeyPair(key.seed, other.public), b"m")
    assert not ver_sign(key.public, b"m", sig)
    assert not ver_sign(other.public, b"m", sig)


def test_keypair_is_its_seed_and_public_key():
    a, b = det_keygen(digest(b"k")), det_keygen(digest(b"k"))
    assert [f.name for f in fields(KeyPair)] == ["seed", "public"]
    assert a == b and hash(a) == hash(b)
    assert len({a, b, det_keygen(digest(b"o"))}) == 2
    # the seed is private key material: no repr shows it
    assert repr(a.seed) not in repr(a) and a.seed.hex() not in repr(a)
    assert repr(a.public) in repr(a)


def test_keypair_deepcopy_signs_identically():
    key = det_keygen(digest(b"k"))
    clone = copy.deepcopy(key)
    assert clone == key
    assert det_sign(clone, b"msg") == det_sign(key, b"msg")


def _no_cdll(name):
    raise OSError(f"{name}: cannot open shared object file")


def test_missing_libsodium_is_an_import_error(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", _no_cdll)
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    with pytest.raises(ImportError, match="libsodium"):
        crypto._load_sodium()


def test_find_library_is_the_last_resort(monkeypatch):
    found, cdll, tried = "/found/by/find_library", ctypes.CDLL, []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: tried.append(name) or (
        cdll(crypto._sodium._name) if name == found else _no_cdll(name)))
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: found)
    lib = crypto._load_sodium()
    assert tried == [*crypto.SODIUM_SONAMES, found]
    public = ctypes.create_string_buffer(32)
    assert lib.crypto_sign_seed_keypair(public, ctypes.create_string_buffer(64),
                                        RFC8032_SEED) == 0
    assert public.raw == RFC8032_PUBLIC


SPAWN_EVENTS = {"subprocess.Popen", "os.system", "os.posix_spawn", "os.spawn",
                "os.fork", "os.exec"}


@pytest.mark.skipif(crypto._sodium._name not in crypto.SODIUM_SONAMES,
                    reason="libsodium is found here only through find_library")
def test_import_starts_no_subprocess():
    # an audit hook in a fresh interpreter sees every process it starts; the
    # find_library call afterwards shows that the hook would have seen one
    child = f"""
import sys
spawned = []
sys.addaudithook(lambda event, args: event in {SPAWN_EVENTS!r} and spawned.append(event))
import rangerevoke.crypto
print(sorted(set(spawned)))
import ctypes.util
ctypes.util.find_library("sodium")
print(bool(spawned))
"""
    src = Path(crypto.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout.split("\n")
    assert out[0] == "[]"
    if sys.platform == "linux":
        assert out[1] == "True"


@pytest.mark.parametrize("wrap", [bytearray, memoryview, lambda b: array("B", b)],
                         ids=["bytearray", "memoryview", "array"])
def test_values_other_than_bytes_are_refused(wrap):
    # ctypes passes only bytes as a pointer: ver_sign says False for any
    # other argument, as for any malformed one, and det_sign raises
    key = det_keygen(digest(b"k"))
    sig = det_sign(key, b"m")
    assert ver_sign(key.public, b"m", sig)
    for args in ((wrap(key.public), b"m", sig), (key.public, wrap(b"m"), sig),
                 (key.public, b"m", wrap(sig)), (wrap(key.public), wrap(b"m"), wrap(sig))):
        assert ver_sign(*args) is False
    with pytest.raises(ctypes.ArgumentError):
        det_sign(key, wrap(b"m"))
