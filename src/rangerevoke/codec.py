"""Canonical, bit-exact serialization for every wire artifact (format v3).

All integers are big-endian.  The only little-endian structure is the
filter bit array (bit i = byte i//8, mask 1 << (i % 8)), fixed so that
filters built by independent parties merge bit-for-bit.

Every message travels in one envelope::

    "RRPE" || version 0x03 || type tag u8 || length u32 || payload

and the tag alone says what the payload holds.  Records inside a payload
are flat, with no magic, version or length of their own:

* a filter is ``epoch u64 || m u64 || k u8 || bits (m/8 bytes)``; its
  salt is ``default_salt(epoch)``, so it is not sent;
* a revocation order is ``cid (32) || rts u64 || epoch u64 || sig (64)``,
  whose first 48 bytes are the bytes the administrator signed.

The capability is the one standalone record: ``"RRPC" || version 0x01
|| ...``, encoded alone (``encode_capability``) or as a length-prefixed
proof inside a ``RequestRrp``.  Its version moves independently of the
envelope's.

Every decoder is total: malformed bytes raise a typed ``DecodeError``
subclass, never anything else, and every decoder rejects truncated input
and trailing garbage.  Decoders read at explicit offsets: each
fixed-size part is one precompiled ``struct`` unpack behind one length
check, and a filter's bits are one slice.  An encoder packs the envelope
head in one call and joins the payload's parts once.  Encoders refuse a
fixed-size byte field of another length with ``ValueError``, where
``struct`` would pad or cut it.
"""

from __future__ import annotations

import functools
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
VERSION = 0x03


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


# fixed-size parts, each written and read in one step
_ENVELOPE = struct.Struct(">4sBBI")          # magic, version, type tag, length
_CAPABILITY_HEAD = struct.Struct(f">4sBQ{PUBLIC_KEY_LEN}s{SIGNATURE_LEN}sB")  # ... latchkey count
_LATCHKEY = struct.Struct(f">BQ{SIGNATURE_LEN}s")  # level, index, signature
_FILTER_HEAD = struct.Struct(">QQB")         # epoch, m, k
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


def _short_head(data: bytes, magic: bytes, version: int) -> DecodeError:
    """The error for ``data`` shorter than its fixed head: a wrong magic
    or version among the bytes present is named first."""
    if len(data) >= len(magic) and data[:len(magic)] != magic:
        return BadMagic(f"expected magic {magic!r}, got {data[:len(magic)]!r}")
    if len(data) > len(magic) and data[len(magic)] != version:
        return BadVersion(f"unsupported version {data[len(magic)]:#04x}")
    return Truncated(f"{len(data)} bytes is shorter than the head")


def _check_head(magic: bytes, version: int, want_magic: bytes, want_version: int) -> None:
    if magic != want_magic:
        raise BadMagic(f"expected magic {want_magic!r}, got {magic!r}")
    if version != want_version:
        raise BadVersion(f"unsupported version {version:#04x}")


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
        _CAPABILITY_HEAD.pack(CAPABILITY_MAGIC, CAPABILITY_VERSION, cap.epoch_id,
                              cap.pseudonym_pub, cap.endorsement, len(cap.latchkeys)),
        *(_LATCHKEY.pack(lk.label.level, lk.label.index, lk.sig) for lk in cap.latchkeys)))


def decode_capability(data: bytes) -> Capability:
    if len(data) < _CAPABILITY_HEAD.size:
        raise _short_head(data, CAPABILITY_MAGIC, CAPABILITY_VERSION)
    magic, version, epoch_id, pub, endorsement, count = _CAPABILITY_HEAD.unpack_from(data)
    _check_head(magic, version, CAPABILITY_MAGIC, CAPABILITY_VERSION)
    if count == 0:
        raise FieldError("capability carries no latchkeys")
    end = _CAPABILITY_HEAD.size + count * _LATCHKEY.size
    _end(data, end)
    return Capability(epoch_id, pub, endorsement, tuple(
        Latchkey(NodeLabel(epoch_id, level, index), sig)
        for level, index, sig in _LATCHKEY.iter_unpack(data[_CAPABILITY_HEAD.size:end])))


# -- payloads: each reader takes the message and the payload's offset, and
# returns the message and the offset after it ------------------------------

@functools.lru_cache(maxsize=16)
def _filter_params(m: int, k: int) -> FilterParams:
    """Shared by every filter decoded with (m, k).  Bounded like
    ``default_salt``: the wire names any (m, k), a live node sees one."""
    try:
        return FilterParams(m, k)
    except ValueError as exc:
        raise FieldError(str(exc)) from exc


def _read_filter(data: bytes, pos: int) -> tuple[BloomFilter, int]:
    bits = pos + _FILTER_HEAD.size
    if bits > len(data):
        raise Truncated(f"filter head needs {bits} bytes, have {len(data)}")
    epoch_id, m, k = _FILTER_HEAD.unpack_from(data, pos)
    params = _filter_params(m, k)
    end = bits + m // 8
    if end > len(data):
        raise Truncated(f"filter bits need {end} bytes, have {len(data)}")
    return BloomFilter(params, epoch_id, data[bits:end]), end


def _write_filters(msg: ErcPush | ErcPullResp | EpochReport) -> tuple:
    cur, nxt = msg.current, msg.next
    return (_FILTER_HEAD.pack(cur.epoch_id, cur.m, cur.k), cur.bits,
            _FILTER_HEAD.pack(nxt.epoch_id, nxt.m, nxt.k), nxt.bits)


def _read_filters(cls):
    def read(data: bytes, pos: int) -> tuple[Message, int]:
        current, pos = _read_filter(data, pos)
        nxt, pos = _read_filter(data, pos)
        return cls(current, nxt), pos
    return read


def _write_report(msg: EpochReport) -> tuple:
    return (_U64.pack(msg.from_epoch), *_write_filters(msg))


def _read_report(data: bytes, pos: int) -> tuple[EpochReport, int]:
    _need(data, pos + _U64.size)
    (from_epoch,) = _U64.unpack_from(data, pos)
    current, pos = _read_filter(data, pos + _U64.size)
    nxt, pos = _read_filter(data, pos)
    return EpochReport(from_epoch, current, nxt), pos


def _write_order(order: RevocationOrder) -> tuple:
    _sized("client id", CLIENT_ID_LEN, order.cid)
    _sized("signature", SIGNATURE_LEN, order.admin_sig)
    return (_ORDER.pack(order.cid, order.rts, order.epoch_id, order.admin_sig),)


def _read_order(data: bytes, pos: int) -> tuple[RevocationOrder, int]:
    _need(data, pos + _ORDER.size)
    return RevocationOrder(*_ORDER.unpack_from(data, pos)), pos + _ORDER.size


def _write_request(msg: RequestRrp) -> tuple:
    _sized("client id", CLIENT_ID_LEN, msg.cid)
    head = _REQUEST_HEAD.pack(msg.cid, msg.epoch_id, msg.count, msg.proof is not None)
    if msg.proof is None:
        return (head,)
    proof = encode_capability(msg.proof)
    return head, _PROOF_HEAD.pack(msg.proof_slot, len(proof)), proof


def _read_request(data: bytes, pos: int) -> tuple[RequestRrp, int]:
    _need(data, pos + _REQUEST_HEAD.size)
    cid, epoch_id, count, has_proof = _REQUEST_HEAD.unpack_from(data, pos)
    pos += _REQUEST_HEAD.size
    proof = proof_slot = None
    if has_proof:
        _need(data, pos + _PROOF_HEAD.size)
        proof_slot, length = _PROOF_HEAD.unpack_from(data, pos)
        pos += _PROOF_HEAD.size
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


def _read_response(data: bytes, pos: int) -> tuple[RrpResponse, int]:
    _need(data, pos + 1)
    reason = _REASONS.get(data[pos])        # named before a short head, as it comes first
    if reason is None:
        raise FieldError("unknown denial reason")
    _need(data, pos + _RESPONSE_HEAD.size)
    _, epoch_id, count = _RESPONSE_HEAD.unpack_from(data, pos)
    pos += _RESPONSE_HEAD.size
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
    ErcPullReq: (0x05, lambda msg: (), lambda data, pos: (ErcPullReq(), pos)),
    ErcPullResp: (0x06, _write_filters, _read_filters(ErcPullResp)),
    EpochReport: (0x07, _write_report, _read_report),
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
    return _ENVELOPE.pack(ENVELOPE_MAGIC, VERSION, tag, len(payload)) + payload


def decode_message(data: bytes) -> Message:
    if len(data) < _ENVELOPE.size:
        raise _short_head(data, ENVELOPE_MAGIC, VERSION)
    magic, version, tag, length = _ENVELOPE.unpack_from(data)
    _check_head(magic, version, ENVELOPE_MAGIC, VERSION)
    _end(data, _ENVELOPE.size + length)
    read = _READERS.get(tag)
    if read is None:
        raise FieldError(f"unknown message type {tag:#04x}")
    msg, end = read(data, _ENVELOPE.size)
    _end(data, end)
    return msg
