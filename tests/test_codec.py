import hashlib
import random
from dataclasses import replace

import pytest

from oracles import decode_capability_by_field, decode_message_by_field
from rangerevoke import codec
from rangerevoke.crypto import det_keygen, digest, seed_from_parts
from rangerevoke.ercset import BloomFilter, FilterParams, default_salt
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
from rangerevoke.slot_tree import EpochConfig

PARAMS = FilterParams(1024, 3)
# acceptance #11's capability encoding, unchanged since format v1
CAPABILITY_SHA256 = "09ce3d3addfefb4e9e06592731e8d7197f61c4274c3ea65219602c08b80f56ac"


@pytest.fixture
def cap(cid, pm_key, fig_cfg):
    return get_capability(create_rrp(cid, 0, 1, pm_key, 8), 1, fig_cfg)


def bloom_erc(epoch=0, items=(b"a", b"b")):
    flt = BloomFilter(PARAMS, epoch)
    for item in items:
        flt.add(item)
    return flt


def one_of_each(cap, cid):
    """One fixed instance of each of the 7 message types, in tag order."""
    return [
        RequestRrp(cid, 4, 3, proof=cap, proof_slot=1),
        RrpResponse(DenialReason.NONE, 4, ((1, b"\x01" * 64), (2, b"\x02" * 64))),
        RevocationOrder(cid, 2, 0, b"\x02" * 64),
        ErcPush(bloom_erc(0), bloom_erc(1)),
        ErcPullReq(),
        ErcPullResp(bloom_erc(5), bloom_erc(6, items=(b"c",))),
        EpochReport(3, bloom_erc(3), bloom_erc(4)),
    ]


# -- round-trips ------------------------------------------------------------

def test_capability_roundtrip(cap):
    blob = codec.encode_capability(cap)
    again = codec.decode_capability(blob)
    assert again == cap
    assert codec.encode_capability(again) == blob


def test_message_roundtrips(cap, cid):
    messages = [
        RequestRrp(cid, 4, 3),
        RequestRrp(cid, 4, 3, proof=cap, proof_slot=1),
        RrpResponse(DenialReason.NONE, 4, ((1, b"\x01" * 64),)),
        RrpResponse(DenialReason.REVOKED, 4),
        RevocationOrder(cid, 2, 0, b"\x02" * 64),
        ErcPush(bloom_erc(0), bloom_erc(1)),
        ErcPullReq(),
        ErcPullResp(bloom_erc(0), bloom_erc(1)),
        EpochReport(3, bloom_erc(3), bloom_erc(4)),
    ]
    for msg in messages:
        blob = codec.encode_message(msg)
        assert blob[:4] == codec.ENVELOPE_MAGIC
        again = codec.decode_message(blob)
        assert again == msg
        assert codec.encode_message(again) == blob


def test_request_proof_and_slot_come_together(cap, cid):
    with pytest.raises(ValueError):
        RequestRrp(cid, 4, 3, proof=cap)
    with pytest.raises(ValueError):
        RequestRrp(cid, 4, 3, proof_slot=1)


def test_response_is_granted_exactly_when_no_reason_is_given():
    for reason in DenialReason:
        assert RrpResponse(reason, 4).granted is (reason is DenialReason.NONE)


def test_denied_response_carries_no_endorsements():
    endorsements = ((1, b"\x01" * 64),)
    for reason in DenialReason:
        if reason is not DenialReason.NONE:
            with pytest.raises(ValueError):
                RrpResponse(reason, 4, endorsements)
    blob = bytearray(codec.encode_message(RrpResponse(DenialReason.NONE, 4, endorsements)))
    blob[10] = DenialReason.REVOKED        # the reason byte follows the 10-byte envelope
    with pytest.raises(codec.FieldError):
        codec.decode_message(bytes(blob))


def test_encode_message_rejects_non_message():
    with pytest.raises(TypeError):
        codec.encode_message("not a message")


def test_decoded_filters_take_their_salt_from_the_epoch():
    for msg in (ErcPush(bloom_erc(0), bloom_erc(1)),
                ErcPullResp(bloom_erc(5), bloom_erc(6)),
                EpochReport(3, bloom_erc(3), bloom_erc(4))):
        again = codec.decode_message(codec.encode_message(msg))
        for erc in (again.current, again.next):
            assert erc.salt == default_salt(erc.epoch_id)


def test_filter_records_are_flat():
    """Envelope header 10 bytes, then per filter epoch u64, m u64, k u8 and
    the bits: no magic, version, length prefix or salt of its own."""
    blob = codec.encode_message(ErcPush(bloom_erc(0), bloom_erc(1)))
    assert len(blob) == 10 + 2 * (17 + PARAMS.m // 8)
    order = codec.encode_message(RevocationOrder(b"\x01" * 32, 7, 2, b"\x33" * 64))
    assert order[10:] == b"\x01" * 32 + (7).to_bytes(8, "big") \
        + (2).to_bytes(8, "big") + b"\x33" * 64


def test_pull_request_and_response_payloads():
    """A pull request is the bare envelope; a response is reason u8, epoch
    u64, count u8 and instance u64 plus signature per endorsement."""
    assert codec.encode_message(ErcPullReq()) == b"RRPE\x03\x05" + bytes(4)
    resp = codec.encode_message(RrpResponse(DenialReason.NONE, 4, ((1, b"\x01" * 64),)))
    assert len(resp) == 10 + 10 + 72


def test_capability_encoding_is_pinned():
    """The benchmark's verify workload hashes capability bytes into its
    input digest, so a codec change that alters them must fail here.  The
    capability is acceptance #11's."""
    pm_key = det_keygen(seed_from_parts(b"acceptance-det", 0))
    rrp = create_rrp(digest(b"acceptance-det-client"), 3, 2, pm_key, 8)
    blob = codec.encode_capability(
        get_capability(rrp, 17, EpochConfig(3, 86_400, 600, 2)))
    assert hashlib.sha256(blob).hexdigest() == CAPABILITY_SHA256


# SHA-256 of ``encode_message`` over ``one_of_each``, by message type
MESSAGE_SHA256 = {
    "RequestRrp": "cb9a7ed34102a09de198017b6915907907c51be9e31565249397c614b90c5b97",
    "RrpResponse": "a611cf50b6e0bceb1bf84ddd3b5841569e42e5fb6016a8075ea57f696b027ed9",
    "RevocationOrder": "12a27bccecf0e82492d82d7915e2e0664be072c2bbeaaf322ab793e6de7a5594",
    "ErcPush": "698df616d264bd78b1755631f2c1e049673346fbc7478165610b779bdda58ef1",
    "ErcPullReq": "f9235774846b0c2b7e889e02cad22d5f903098b78366e1a81f914ee7ac77b0bd",
    "ErcPullResp": "f891159410ed328a9e3109a6cf8c6ffafaeb531e803314d460c91392ecbf63d0",
    "EpochReport": "c803423927b24e94131b716529c4e8f32796a0ad718186525196183ff0eacef1",
}


def test_message_encodings_are_pinned(cap, cid):
    """Each message type's wire bytes, fixed: a codec change that moves a
    byte of any of them must fail here."""
    digests = {type(msg).__name__: hashlib.sha256(codec.encode_message(msg)).hexdigest()
               for msg in one_of_each(cap, cid)}
    assert digests == MESSAGE_SHA256


# -- failure classes --------------------------------------------------------

def push_blob() -> bytearray:
    return bytearray(codec.encode_message(ErcPush(bloom_erc(0), bloom_erc(1))))


def test_bad_magic():
    blob = push_blob()
    blob[0] ^= 0xFF
    with pytest.raises(codec.BadMagic):
        codec.decode_message(bytes(blob))


def test_bad_version():
    # 0x01 is the envelope before flat records; 0x02 sent a granted byte in
    # RrpResponse and an epoch in ErcPullReq
    for version in (0x01, 0x02, 0x7F):
        blob = push_blob()
        blob[4] = version
        with pytest.raises(codec.BadVersion):
            codec.decode_message(bytes(blob))


def test_truncated():
    blob = push_blob()
    with pytest.raises(codec.Truncated):
        codec.decode_message(bytes(blob[:-1]))
    blob[6:10] = (len(blob) - 11).to_bytes(4, "big")   # payload one byte short
    with pytest.raises(codec.Truncated):
        codec.decode_message(bytes(blob[:-1]))


def test_empty_payload_is_truncated_not_a_bad_field():
    """A response's first field is its reason byte: with no payload at all
    it is missing, not invalid."""
    for tag in (0x01, 0x02, 0x03, 0x04, 0x06, 0x07):
        with pytest.raises(codec.Truncated):
            codec.decode_message(b"RRPE\x03" + bytes([tag]) + bytes(4))


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
    blob = bytearray(codec.encode_message(ErcPullReq()))
    blob[5] = 0x7E
    with pytest.raises(codec.FieldError):
        codec.decode_message(bytes(blob))


def test_bad_filter_params_is_field_error():
    blob = push_blob()
    # zero out the first filter's k byte (offset: envelope 10 + epoch 8 + m 8)
    blob[26] = 0
    with pytest.raises(codec.FieldError):
        codec.decode_message(bytes(blob))


def test_every_prefix_is_truncated_and_one_more_byte_is_trailing(cap, cid):
    """Every proper prefix of a valid encoding raises ``Truncated`` and the
    encoding plus one byte raises ``TrailingBytes``: one encoding of each
    of the 7 message kinds, and a capability."""
    messages = [
        RequestRrp(cid, 4, 3, proof=cap, proof_slot=1),
        RrpResponse(DenialReason.NONE, 4, ((1, b"\x01" * 64), (2, b"\x02" * 64))),
        RevocationOrder(cid, 2, 0, b"\x02" * 64),
        ErcPush(bloom_erc(0), bloom_erc(1)),
        ErcPullReq(),
        ErcPullResp(bloom_erc(0), bloom_erc(1)),
        EpochReport(3, bloom_erc(3), bloom_erc(4)),
    ]
    assert len({type(msg) for msg in messages}) == 7
    cases = [(codec.decode_message, codec.encode_message(msg)) for msg in messages]
    cases.append((codec.decode_capability, codec.encode_capability(cap)))
    for decode, blob in cases:
        for end in range(len(blob)):
            with pytest.raises(codec.Truncated):
                decode(blob[:end])
        with pytest.raises(codec.TrailingBytes):
            decode(blob + b"\x00")


def test_message_decoder_matches_field_by_field_reader(cap, cid):
    """Against the reader that takes each field with its own length check
    (``oracles.decode_message_by_field``): the same message from each
    type's encoding, and the same message or the same error class from
    every proper prefix, from one byte more and from 300 seeded bit flips."""
    for tag, msg in enumerate(one_of_each(cap, cid), start=1):
        blob = codec.encode_message(msg)
        assert blob[5] == tag
        assert codec.decode_message(blob) == msg == decode_message_by_field(blob)
        rng = random.Random(tag)
        mutants = [blob[:end] for end in range(len(blob))] + [blob + b"\x00"]
        for _ in range(300):
            mutant = bytearray(blob)
            mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
            mutants.append(bytes(mutant))
        for mutant in mutants:
            outcomes = []
            for decode in (codec.decode_message, decode_message_by_field):
                try:
                    outcomes.append(decode(mutant))
                except codec.DecodeError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], (type(msg).__name__, mutant)


@pytest.mark.parametrize("epoch_len, delta, height", [(60, 60, 0), (120, 60, 1),
                                                      (86_400, 60, 11), (86_400, 1, 17)])
def test_capability_decoder_matches_field_by_field_reader(pm_key, cid, epoch_len, delta,
                                                          height):
    """Round trips at tree heights 0, 1, 11 and 17 (1 s slots), and the
    reader that takes each latchkey field by field: the same capability
    from every valid encoding, and the same error class from every proper
    prefix, from one byte more and from seeded byte flips."""
    cfg = EpochConfig(9, epoch_len, delta)
    assert cfg.height == height
    rng = random.Random(height)
    rrp = create_rrp(cid, 9, 3, pm_key, 8)
    for slot in sorted({0, cfg.slots - 1, rng.randrange(cfg.slots)}):
        cap = get_capability(rrp, slot, cfg)
        blob = codec.encode_capability(cap)
        assert len(blob) == 4 + 1 + 8 + 32 + 64 + 1 + 73 * (height + 1)
        decoded = codec.decode_capability(blob)
        assert decoded == cap == decode_capability_by_field(blob)
        assert codec.encode_capability(decoded) == blob
        mutants = [blob[:end] for end in range(len(blob))] + [blob + b"\x00"]
        for _ in range(300):
            mutant = bytearray(blob)
            mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
            mutants.append(bytes(mutant))
        for mutant in mutants:
            outcomes = []
            for decode in (codec.decode_capability, decode_capability_by_field):
                try:
                    outcomes.append(decode(mutant))
                except codec.DecodeError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], mutant


def test_request_count_outside_1_to_255_is_refused(cid):
    """A request names 1..255 pseudonyms: the constructor refuses any other
    count, and a count byte of 0 decodes to ``FieldError``."""
    for count in (0, 256, -1):
        with pytest.raises(ValueError, match="count"):
            RequestRrp(cid, 0, count)
    blob = bytearray(codec.encode_message(RequestRrp(cid, 0, 1)))
    blob[10 + 32 + 8] = 0                   # the count byte after cid and epoch
    with pytest.raises(codec.FieldError, match="count"):
        codec.decode_message(bytes(blob))
    for valid in (1, 255):
        msg = RequestRrp(cid, 0, valid)
        assert codec.decode_message(codec.encode_message(msg)) == msg



def test_encoders_refuse_fixed_size_fields_of_another_length(cap, cid):
    """Each fixed-size byte field one byte short or long is refused, where
    ``struct`` would pad or cut it into a message that decodes."""
    def resized(value: bytes, by: int) -> bytes:
        return value[:by] if by < 0 else value + bytes(by)

    def latchkey(c, by):
        return replace(c, latchkeys=(replace(c.latchkeys[0], sig=resized(c.latchkeys[0].sig, by)),
                                     *c.latchkeys[1:]))

    builders = [
        lambda by: codec.encode_capability(
            replace(cap, pseudonym_pub=resized(cap.pseudonym_pub, by))),
        lambda by: codec.encode_capability(replace(cap, endorsement=resized(cap.endorsement, by))),
        lambda by: codec.encode_capability(latchkey(cap, by)),
        lambda by: codec.encode_message(RequestRrp(resized(cid, by), 0, 1)),
        lambda by: codec.encode_message(RequestRrp(cid, 0, 1, latchkey(cap, by), 1)),
        lambda by: codec.encode_message(
            RrpResponse(DenialReason.NONE, 0, ((1, bytes(64)), (2, resized(bytes(64), by))))),
        lambda by: codec.encode_message(RevocationOrder(resized(cid, by), 0, 0, bytes(64))),
        lambda by: codec.encode_message(RevocationOrder(cid, 0, 0, resized(bytes(64), by))),
    ]
    for i, build in enumerate(builders):
        build(0)                                    # the right length encodes
        for by in (-1, 1):
            with pytest.raises(ValueError, match="must be"):
                build(by)
                pytest.fail(f"builder {i} encoded a field of another length ({by:+d})")


# -- fuzz -------------------------------------------------------------------

def test_fuzz_random_bytes_raise_only_typed_errors(cap, cid):
    decoders = [codec.decode_capability, codec.decode_message]
    rng = random.Random(0)
    seeds = [codec.encode_capability(cap),
             codec.encode_message(ErcPush(bloom_erc(0), bloom_erc(1))),
             codec.encode_message(ErcPullReq()),
             codec.encode_message(ErcPullResp(bloom_erc(0), bloom_erc(1))),
             codec.encode_message(RevocationOrder(cid, 2, 0, b"\x02" * 64)),
             codec.encode_message(RequestRrp(cid, 4, 3, proof=cap, proof_slot=1)),
             codec.encode_message(RrpResponse(DenialReason.NONE, 4,
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
