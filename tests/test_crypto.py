import copy
import hashlib
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from rangerevoke.crypto import (
    SEED_LEN,
    SIGNATURE_LEN,
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


def test_keypair_equality_ignores_cached_signer():
    a, b = det_keygen(digest(b"k")), det_keygen(digest(b"k"))
    assert a.signer is not b.signer
    assert a == b and hash(a) == hash(b)
    other = replace(a, signer=Ed25519PrivateKey.generate())
    assert other == a and hash(other) == hash(a)
    assert "signer" not in repr(a)
    assert len({a, b, det_keygen(digest(b"o"))}) == 2


def test_keypair_deepcopy_signs_identically():
    key = det_keygen(digest(b"k"))
    clone = copy.deepcopy(key)
    assert clone == key
    assert det_sign(clone, b"msg") == det_sign(key, b"msg")
