import random

import pytest

from rangerevoke import codec
from rangerevoke.ercset import BloomFilter, ErcSet, FilterParams
from rangerevoke.messages import (
    DenialReason,
    EpochReport,
    ErcPullReq,
    ErcPullResp,
    ErcPush,
    RequestRrp,
    RevocationOrder,
    RrpResponse,
)
from rangerevoke.pseudonym import create_rrp, get_capability

PARAMS = FilterParams(1024, 3)


@pytest.fixture
def cap(cid, pm_key, fig_cfg):
    return get_capability(create_rrp(cid, 0, 1, pm_key, 8), 1, fig_cfg)


def bloom_erc(epoch=0, items=(b"a", b"b")):
    flt = BloomFilter(PARAMS, epoch)
    for item in items:
        flt.add(item)
    return ErcSet(flt)


# -- round-trips ------------------------------------------------------------

def test_capability_roundtrip(cap):
    blob = codec.encode_capability(cap)
    again = codec.decode_capability(blob)
    assert again == cap
    assert codec.encode_capability(again) == blob


def test_ercset_roundtrip():
    erc = bloom_erc()
    blob = codec.encode_ercset(erc)
    again = codec.decode_ercset(blob)
    assert again == erc
    assert codec.encode_ercset(again) == blob


def test_revocation_order_roundtrip(cid):
    order = RevocationOrder(cid, 7, 2, b"\x33" * 64)
    assert codec.decode_revocation_order(
        codec.encode_revocation_order(order)) == order


def test_message_roundtrips(cap, cid):
    messages = [
        RequestRrp(cid, 4, 3),
        RequestRrp(cid, 4, 3, proof=cap, proof_slot=1),
        RrpResponse(True, DenialReason.NONE, 4, ((1, b"\x01" * 64),)),
        RrpResponse(False, DenialReason.REVOKED, 4),
        RevocationOrder(cid, 2, 0, b"\x02" * 64),
        ErcPush(bloom_erc(0), bloom_erc(1)),
        ErcPullReq(9),
        ErcPullResp(bloom_erc(0), bloom_erc(1)),
        EpochReport(3, bloom_erc(3), bloom_erc(4)),
    ]
    for msg in messages:
        blob = codec.encode_message(msg)
        assert blob[:4] == codec.ENVELOPE_MAGIC
        assert codec.decode_message(blob) == msg


def test_encode_message_rejects_non_message():
    with pytest.raises(TypeError):
        codec.encode_message("not a message")


# -- failure classes --------------------------------------------------------

def test_bad_magic():
    blob = bytearray(codec.encode_ercset(bloom_erc()))
    blob[0] ^= 0xFF
    with pytest.raises(codec.BadMagic):
        codec.decode_ercset(bytes(blob))


def test_bad_version():
    blob = bytearray(codec.encode_ercset(bloom_erc()))
    blob[4] = 0x7F
    with pytest.raises(codec.BadVersion):
        codec.decode_ercset(bytes(blob))


def test_truncated():
    blob = codec.encode_ercset(bloom_erc())
    with pytest.raises(codec.Truncated):
        codec.decode_ercset(blob[:-1])


def test_trailing_bytes(cap):
    blob = codec.encode_capability(cap)
    with pytest.raises(codec.TrailingBytes):
        codec.decode_capability(blob + b"\x00")


def test_zero_latchkeys_rejected(cap):
    blob = bytearray(codec.encode_capability(cap))
    count_offset = 4 + 1 + 8 + 32 + 64
    blob[count_offset] = 0
    del blob[count_offset + 1:]
    with pytest.raises(codec.FieldError):
        codec.decode_capability(bytes(blob))


def test_unknown_message_tag(cap):
    blob = bytearray(codec.encode_message(ErcPullReq(0)))
    blob[5] = 0x7E
    with pytest.raises(codec.FieldError):
        codec.decode_message(bytes(blob))


def test_bad_filter_params_is_field_error():
    blob = bytearray(codec.encode_ercset(bloom_erc()))
    # zero out the k byte (offset: magic 4 + ver 1 + epoch 8 + m 8)
    blob[21] = 0
    with pytest.raises(codec.FieldError):
        codec.decode_ercset(bytes(blob))


# -- fuzz -------------------------------------------------------------------

def test_fuzz_random_bytes_raise_only_typed_errors(cap, cid):
    decoders = [codec.decode_capability, codec.decode_ercset,
                codec.decode_message, codec.decode_revocation_order]
    rng = random.Random(0)
    seeds = [codec.encode_capability(cap),
             codec.encode_ercset(bloom_erc()),
             codec.encode_message(ErcPush(bloom_erc(0), bloom_erc(1))),
             codec.encode_message(RevocationOrder(cid, 2, 0, b"\x02" * 64)),
             codec.encode_message(RequestRrp(cid, 4, 3, proof=cap, proof_slot=1)),
             codec.encode_message(RrpResponse(True, DenialReason.NONE, 4,
                                              ((1, b"\x01" * 64), (2, b"\x02" * 64)))),
             codec.encode_message(EpochReport(3, bloom_erc(3), bloom_erc(4)))]
    for i in range(20_000):
        if i % 4 == 0:
            base = bytearray(rng.choice(seeds))   # mutate a valid encoding
            for _ in range(rng.randint(1, 8)):
                base[rng.randrange(len(base))] = rng.randrange(256)
            blob = bytes(base[:rng.randint(0, len(base))]
                         if rng.random() < 0.3 else base)
        else:
            blob = rng.randbytes(rng.randint(0, 80))
        for decode in decoders:
            try:
                decode(blob)
            except codec.DecodeError:
                pass
