"""Canonical, bit-exact serialization for every wire artifact (format v4).

All integers are big-endian.  The only little-endian structure is the
filter bit array (bit i = byte i//8, mask 1 << (i % 8)), fixed so that
filters built by independent parties merge bit-for-bit.

Every message travels in one envelope::

    "RRPE" || version 0x04 || type tag u8 || length u32 || payload

and the tag alone says what the payload holds.  Records inside a payload
are flat, with no magic, version or length of their own:

* a filter is ``epoch u64 || bits (m/8 bytes)``: every node of a
  deployment builds its filters with one plan (m, k), which
  ``decode_message`` takes, and its salt is ``default_salt(epoch)``, so
  none of these is sent.  Records of another plan's length leave the
  payload short or long (``Truncated`` or ``TrailingBytes``); whatever
  decodes holds filters of the plan, so no decoded message carries a
  filter its receiver cannot merge;
* a revocation order is ``cid (32) || rts u64 || epoch u64 || sig (64)``,
  whose first 48 bytes are the bytes the administrator signed.

The capability is the one standalone record: ``"RRPC" || version 0x01
|| ...``, encoded alone (``encode_capability``) or as a length-prefixed
proof inside a ``RequestRrp``.  Its version moves independently of the
envelope's.

Every decoder is total: malformed bytes raise a typed ``DecodeError``
subclass, never anything else, and every decoder rejects truncated input
and trailing garbage.  Decoders read at explicit offsets: one head reader
checks a standalone record's magic and version, one part reader does
every fixed-size part's length check and precompiled ``struct`` unpack,
and a filter's bits are one slice of the plan's length.  An encoder
joins the record's mark (magic and version), its head and its parts
once.  Encoders refuse a fixed-size byte field of another length with
``ValueError``, where ``struct`` would pad or cut it.
"""

from __future__ import annotations

import struct

from .ercset import BloomFilter, FilterParams
from .messages import (
    DenialReason,
    EpochReport,
    ErcPullReq,
    ErcPullResp,
    ErcPush,
    Message,
    RequestRrp,
    RevocationOrder,
    RrpResponse,
)
from .crypto import PUBLIC_KEY_LEN, SIGNATURE_LEN
from .pseudonym import CLIENT_ID_LEN, Capability, Latchkey
from .slot_tree import NodeLabel

CAPABILITY_MAGIC = b"RRPC"
CAPABILITY_VERSION = 0x01
ENVELOPE_MAGIC = b"RRPE"
VERSION = 0x04


class DecodeError(ValueError):
    """Base class for all decoding failures."""


class BadMagic(DecodeError):
    pass


class BadVersion(DecodeError):
    pass


class Truncated(DecodeError):
    pass


class TrailingBytes(DecodeError):
    pass


class FieldError(DecodeError):
    """A structurally present field holds an invalid value."""


# a standalone record's mark: its magic and version
_ENVELOPE_MARK = ENVELOPE_MAGIC + bytes((VERSION,))
_CAPABILITY_MARK = CAPABILITY_MAGIC + bytes((CAPABILITY_VERSION,))

# fixed-size parts, each written and read in one step
_ENVELOPE = struct.Struct(">BI")             # type tag, length
_CAPABILITY_HEAD = struct.Struct(f">Q{PUBLIC_KEY_LEN}s{SIGNATURE_LEN}sB")  # ... latchkey count
_LATCHKEY = struct.Struct(f">BQ{SIGNATURE_LEN}s")  # level, index, signature
_ORDER = struct.Struct(f">{CLIENT_ID_LEN}sQQ{SIGNATURE_LEN}s")
_REQUEST_HEAD = struct.Struct(f">{CLIENT_ID_LEN}sQBB")  # cid, epoch, count, has proof
_PROOF_HEAD = struct.Struct(">QI")           # proof slot, capability length
_RESPONSE_HEAD = struct.Struct(">BQB")       # reason, epoch, endorsement count
_ENDORSEMENT = struct.Struct(f">Q{SIGNATURE_LEN}s")  # instance, signature
_U64 = struct.Struct(">Q")
_REASONS = {int(reason): reason for reason in DenialReason}


def _need(data: bytes, end: int) -> None:
    if end > len(data):
        raise Truncated(f"need {end} bytes, have {len(data)}")


def _read(data: bytes, pos: int, part: struct.Struct) -> tuple[tuple, int]:
    """The fields of the fixed-size ``part`` at ``pos``, and the offset after it."""
    end = pos + part.size
    if end > len(data):
        raise Truncated(f"need {end} bytes, have {len(data)}")
    return part.unpack_from(data, pos), end


def _read_head(data: bytes, mark: bytes, head: struct.Struct) -> tuple[tuple, int]:
    """A standalone record's ``head`` fields after its 5-byte ``mark``.
    Among the bytes present, a wrong magic is named first, then a wrong
    version, then a short head."""
    got = data[:5]
    if got != mark:
        if len(got) >= 4 and got[:4] != mark[:4]:
            raise BadMagic(f"expected magic {mark[:4]!r}, got {got[:4]!r}")
        if len(got) == 5:
            raise BadVersion(f"unsupported version {got[4]:#04x}")
    return _read(data, 5, head)


def _sized(what: str, size: int, *fields: bytes) -> None:
    for value in fields:
        if len(value) != size:
            raise ValueError(f"{what} must be {size} bytes, got {len(value)}")


def _end(data: bytes, end: int) -> None:
    """``data`` must end at ``end``."""
    if end != len(data):
        _need(data, end)
        raise TrailingBytes(f"{len(data) - end} trailing bytes")


# -- capability ------------------------------------------------------------

def encode_capability(cap: Capability) -> bytes:
    _sized("pseudonym key", PUBLIC_KEY_LEN, cap.pseudonym_pub)
    _sized("signature", SIGNATURE_LEN, cap.endorsement, *(lk.sig for lk in cap.latchkeys))
    return b"".join((
        _CAPABILITY_MARK,
        _CAPABILITY_HEAD.pack(cap.epoch_id, cap.pseudonym_pub, cap.endorsement,
                              len(cap.latchkeys)),
        *(_LATCHKEY.pack(lk.label.level, lk.label.index, lk.sig) for lk in cap.latchkeys)))


def decode_capability(data: bytes) -> Capability:
    (epoch_id, pub, endorsement, count), pos = _read_head(data, _CAPABILITY_MARK,
                                                          _CAPABILITY_HEAD)
    if count == 0:
        raise FieldError("capability carries no latchkeys")
    end = pos + count * _LATCHKEY.size
    _end(data, end)
    return Capability(epoch_id, pub, endorsement, tuple(
        Latchkey(NodeLabel(epoch_id, level, index), sig)
        for level, index, sig in _LATCHKEY.iter_unpack(data[pos:end])))


# -- payloads: each reader takes the message, the payload's offset and the
# filter plan, and returns the message and the offset after it -------------

def _read_filter(data: bytes, pos: int, plan: FilterParams) -> tuple[BloomFilter, int]:
    (epoch_id,), bits = _read(data, pos, _U64)
    end = bits + plan.m // 8
    _need(data, end)
    return BloomFilter(plan, epoch_id, data[bits:end]), end


def _write_filters(msg: ErcPush | ErcPullResp | EpochReport) -> tuple:
    cur, nxt = msg.current, msg.next
    return _U64.pack(cur.epoch_id), cur.bits, _U64.pack(nxt.epoch_id), nxt.bits


def _read_filters(cls, lead: struct.Struct = struct.Struct(">")):
    """Reader of a ``cls`` message: ``lead``'s fields, then two filters."""
    def read(data: bytes, pos: int, plan: FilterParams) -> tuple[Message, int]:
        fields, pos = _read(data, pos, lead)
        current, pos = _read_filter(data, pos, plan)
        nxt, pos = _read_filter(data, pos, plan)
        return cls(*fields, current, nxt), pos
    return read


def _write_report(msg: EpochReport) -> tuple:
    return (_U64.pack(msg.from_epoch), *_write_filters(msg))


def _write_order(order: RevocationOrder) -> tuple:
    _sized("client id", CLIENT_ID_LEN, order.cid)
    _sized("signature", SIGNATURE_LEN, order.admin_sig)
    return (_ORDER.pack(order.cid, order.rts, order.epoch_id, order.admin_sig),)


def _read_order(data: bytes, pos: int, plan: FilterParams) -> tuple[RevocationOrder, int]:
    fields, pos = _read(data, pos, _ORDER)
    return RevocationOrder(*fields), pos


def _write_request(msg: RequestRrp) -> tuple:
    _sized("client id", CLIENT_ID_LEN, msg.cid)
    head = _REQUEST_HEAD.pack(msg.cid, msg.epoch_id, msg.count, msg.proof is not None)
    if msg.proof is None:
        return (head,)
    proof = encode_capability(msg.proof)
    return head, _PROOF_HEAD.pack(msg.proof_slot, len(proof)), proof


def _read_request(data: bytes, pos: int, plan: FilterParams) -> tuple[RequestRrp, int]:
    (cid, epoch_id, count, has_proof), pos = _read(data, pos, _REQUEST_HEAD)
    proof = proof_slot = None
    if has_proof > 1:
        raise FieldError(f"has-proof byte must be 0 or 1, got {has_proof}")
    if has_proof:
        (proof_slot, length), pos = _read(data, pos, _PROOF_HEAD)
        _need(data, pos + length)
        proof = decode_capability(data[pos:pos + length])
        pos += length
    try:
        return RequestRrp(cid, epoch_id, count, proof, proof_slot), pos
    except ValueError as exc:
        raise FieldError(str(exc)) from exc


def _write_response(msg: RrpResponse) -> tuple:
    _sized("signature", SIGNATURE_LEN, *(sig for _, sig in msg.endorsements))
    return (_RESPONSE_HEAD.pack(msg.reason, msg.epoch_id, len(msg.endorsements)),
            *(_ENDORSEMENT.pack(instance, sig) for instance, sig in msg.endorsements))


def _read_response(data: bytes, pos: int, plan: FilterParams) -> tuple[RrpResponse, int]:
    _need(data, pos + 1)
    reason = _REASONS.get(data[pos])        # named before a short head, as it comes first
    if reason is None:
        raise FieldError("unknown denial reason")
    (_, epoch_id, count), pos = _read(data, pos, _RESPONSE_HEAD)
    end = pos + count * _ENDORSEMENT.size
    _need(data, end)
    try:
        return RrpResponse(reason, epoch_id,
                           tuple(_ENDORSEMENT.iter_unpack(data[pos:end]))), end
    except ValueError as exc:
        raise FieldError(str(exc)) from exc


# message class -> (type tag, writer of the payload's parts, payload reader)
_FORMATS = {
    RequestRrp: (0x01, _write_request, _read_request),
    RrpResponse: (0x02, _write_response, _read_response),
    RevocationOrder: (0x03, _write_order, _read_order),
    ErcPush: (0x04, _write_filters, _read_filters(ErcPush)),
    ErcPullReq: (0x05, lambda msg: (), lambda data, pos, plan: (ErcPullReq(), pos)),
    ErcPullResp: (0x06, _write_filters, _read_filters(ErcPullResp)),
    EpochReport: (0x07, _write_report, _read_filters(EpochReport, _U64)),
}
_READERS = {tag: read for tag, _, read in _FORMATS.values()}


# -- message envelope ------------------------------------------------------

def encode_message(msg: Message) -> bytes:
    """Envelope: magic || version || type tag u8 || length u32 || payload."""
    try:
        tag, write, _ = _FORMATS[type(msg)]
    except KeyError:
        raise TypeError(f"not a wire message: {type(msg).__name__}") from None
    payload = b"".join(write(msg))
    return b"".join((_ENVELOPE_MARK, _ENVELOPE.pack(tag, len(payload)), payload))


def decode_message(data: bytes, plan: FilterParams) -> Message:
    """The message in ``data``, whose filters are built with ``plan``."""
    (tag, length), pos = _read_head(data, _ENVELOPE_MARK, _ENVELOPE)
    _end(data, pos + length)
    read = _READERS.get(tag)
    if read is None:
        raise FieldError(f"unknown message type {tag:#04x}")
    msg, end = read(data, pos, plan)
    _end(data, end)
    return msg
