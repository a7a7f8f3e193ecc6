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
and trailing garbage.
"""

from __future__ import annotations

import struct

from .ercset import BloomFilter, ErcSet, FilterParams
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
from .pseudonym import Capability, Latchkey
from .slot_tree import NodeLabel

CAPABILITY_MAGIC = b"RRPC"
CAPABILITY_VERSION = 0x01
ENVELOPE_MAGIC = b"RRPE"
VERSION = 0x03

PUB_LEN = 32
SIG_LEN = 64
CID_LEN = 32


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


# the gossip path's fixed-width headers, written and read in one step
_FILTER_HEAD = struct.Struct(">QQB")        # epoch, m, k
_ENVELOPE_HEAD = struct.Struct(">BI")       # type tag, payload length
_LATCHKEY = struct.Struct(f">BQ{SIG_LEN}s")  # level, index, signature


class _Reader:
    """Cursor over immutable bytes; every read checks remaining length once."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _advance(self, n: int) -> int:   # claims n bytes, returns their offset
        pos = self.pos
        if pos + n > len(self.data):
            raise Truncated(f"need {n} bytes at offset {pos}, "
                            f"have {len(self.data) - pos}")
        self.pos = pos + n
        return pos

    def take(self, n: int) -> bytes:
        pos = self._advance(n)
        return self.data[pos:pos + n]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack_from(self.data, self._advance(fmt.size))

    def u8(self) -> int:
        return self.data[self._advance(1)]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise BadMagic(f"expected magic {magic!r}, got {got!r}")

    def expect_version(self, version: int) -> None:
        v = self.u8()
        if v != version:
            raise BadVersion(f"unsupported version {v:#04x}")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise TrailingBytes(f"{len(self.data) - self.pos} trailing bytes")


# -- capability ------------------------------------------------------------

def encode_capability(cap: Capability) -> bytes:
    out = bytearray(CAPABILITY_MAGIC)
    out.append(CAPABILITY_VERSION)
    out += struct.pack(">Q", cap.epoch_id)
    out += cap.pseudonym_pub
    out += cap.endorsement
    out.append(len(cap.latchkeys))
    for lk in cap.latchkeys:
        out.append(lk.label.level)
        out += struct.pack(">Q", lk.label.index)
        out += lk.sig
    return bytes(out)


def decode_capability(data: bytes) -> Capability:
    r = _Reader(data)
    cap = _read_capability(r)
    r.done()
    return cap


def _read_capability(r: _Reader) -> Capability:
    r.expect_magic(CAPABILITY_MAGIC)
    r.expect_version(CAPABILITY_VERSION)
    epoch_id = r.u64()
    pub = r.take(PUB_LEN)
    endorsement = r.take(SIG_LEN)
    count = r.u8()
    if count == 0:
        raise FieldError("capability carries no latchkeys")
    records = r.take(count * _LATCHKEY.size)
    return Capability(epoch_id, pub, endorsement, tuple(
        Latchkey(NodeLabel(epoch_id, level, index), sig)
        for level, index, sig in _LATCHKEY.iter_unpack(records)))


# -- records inside an envelope ---------------------------------------------

def _write_filter(out: bytearray, erc: ErcSet) -> None:
    flt = erc.filter
    out += _FILTER_HEAD.pack(flt.epoch_id, flt.m, flt.k)
    out += flt.bits


def _read_filter(r: _Reader) -> ErcSet:
    epoch_id, m, k = r.unpack(_FILTER_HEAD)
    try:
        params = FilterParams(m, k)
    except ValueError as exc:
        raise FieldError(str(exc)) from exc
    return ErcSet(BloomFilter(params, epoch_id, r.take(m // 8)))


def _write_order(out: bytearray, order: RevocationOrder) -> None:
    out += order.signed_payload()
    out += order.admin_sig


def _read_order(r: _Reader) -> RevocationOrder:
    return RevocationOrder(r.take(CID_LEN), r.u64(), r.u64(), r.take(SIG_LEN))


# -- message envelope ------------------------------------------------------

def _blob(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _read_blob(r: _Reader) -> bytes:
    return r.take(r.u32())


def _write_request(out: bytearray, msg: RequestRrp) -> None:
    out += msg.cid
    out += struct.pack(">Q", msg.epoch_id)
    out.append(msg.count)
    if msg.proof is None:
        out.append(0)
    else:
        out.append(1)
        out += struct.pack(">Q", msg.proof_slot)
        out += _blob(encode_capability(msg.proof))


def _read_request(r: _Reader) -> RequestRrp:
    cid = r.take(CID_LEN)
    epoch_id = r.u64()
    count = r.u8()
    proof = None
    proof_slot = None
    if r.u8():
        proof_slot = r.u64()
        proof = decode_capability(_read_blob(r))
    try:
        return RequestRrp(cid, epoch_id, count, proof, proof_slot)
    except ValueError as exc:
        raise FieldError(str(exc)) from exc


def _write_response(out: bytearray, msg: RrpResponse) -> None:
    out.append(int(msg.reason))
    out += struct.pack(">Q", msg.epoch_id)
    out.append(len(msg.endorsements))
    for instance, sig in msg.endorsements:
        out += struct.pack(">Q", instance)
        out += sig


def _read_response(r: _Reader) -> RrpResponse:
    try:
        reason = DenialReason(r.u8())
    except ValueError as exc:
        raise FieldError("unknown denial reason") from exc
    epoch_id = r.u64()
    count = r.u8()
    endorsements = tuple((r.u64(), r.take(SIG_LEN)) for _ in range(count))
    try:
        return RrpResponse(reason, epoch_id, endorsements)
    except ValueError as exc:
        raise FieldError(str(exc)) from exc


def _write_filters(out: bytearray, msg: ErcPush | ErcPullResp | EpochReport) -> None:
    _write_filter(out, msg.current)
    _write_filter(out, msg.next)


def _write_report(out: bytearray, msg: EpochReport) -> None:
    out += struct.pack(">Q", msg.from_epoch)
    _write_filters(out, msg)


# message class -> (type tag, payload writer, payload reader)
_FORMATS = {
    RequestRrp: (0x01, _write_request, _read_request),
    RrpResponse: (0x02, _write_response, _read_response),
    RevocationOrder: (0x03, _write_order, _read_order),
    ErcPush: (0x04, _write_filters, lambda r: ErcPush(_read_filter(r), _read_filter(r))),
    ErcPullReq: (0x05, lambda out, msg: None, lambda r: ErcPullReq()),
    ErcPullResp: (0x06, _write_filters,
                  lambda r: ErcPullResp(_read_filter(r), _read_filter(r))),
    EpochReport: (0x07, _write_report,
                  lambda r: EpochReport(r.u64(), _read_filter(r), _read_filter(r))),
}
_READERS = {tag: read for tag, _, read in _FORMATS.values()}


def encode_message(msg: Message) -> bytes:
    """Envelope: magic || version || type tag u8 || length u32 || payload."""
    try:
        tag, write, _ = _FORMATS[type(msg)]
    except KeyError:
        raise TypeError(f"not a wire message: {type(msg).__name__}") from None
    payload = bytearray()
    write(payload, msg)
    return ENVELOPE_MAGIC + bytes([VERSION]) + _ENVELOPE_HEAD.pack(tag, len(payload)) + payload


def decode_message(data: bytes) -> Message:
    r = _Reader(data)
    r.expect_magic(ENVELOPE_MAGIC)
    r.expect_version(VERSION)
    tag, length = r.unpack(_ENVELOPE_HEAD)
    payload = _Reader(r.take(length))
    r.done()
    if tag not in _READERS:
        raise FieldError(f"unknown message type {tag:#04x}")
    msg = _READERS[tag](payload)
    payload.done()
    return msg
