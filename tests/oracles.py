"""Test oracles: the paper's constructions, written out step by step, that
the program's shortcuts are checked against.

The paper builds a revocation set from the capabilities of one pseudonym
with a four-step pipeline

    merge_latchkeys -> remove_unsafe -> remove_redundant -> latchkeys_encoding

and guarantees two properties: every capability for a revoked slot shares
at least one latchkey with the encoded set (inclusion-of-revoked) and no
capability for a non-revoked slot shares any (exclusion-of-non-revoked).
The second property is what preserves backward unlinkability: nothing a
client showed outside the revoked range ever appears in the published set.

The program builds the same filter bits from one minimal cover per order
(``manager.revocation_cover_ercset``); acceptance #2 and #3 and
``test_revoke_matches_full_capability_pipeline`` compare it with this
pipeline.  The tree helpers below compute leaf spans on their own instead of
sharing code with the ``slot_tree`` functions they check.

The manager checks an issuance proof by rebuilding it and comparing bytes;
``check_proof_by_verifying`` is the signature-verifying check it replaced,
and ``sign_with_nonce`` is an RFC 8032 signer that takes any nonce, which is
what a client holding its pseudonym seed can run to forge latchkeys.
``reference_issue`` is the manager's issuance with every step deriving its
own keys and the proof compared with a whole rebuilt capability, the form
the program's key-reusing ``TrustedCore.issue`` is checked against.

The authentication path does each per-latchkey step in one pass:
``BloomFilter.query`` stops at its first clear bit, ``verify_capability``
checks labels as it walks up the tree, and the codec unpacks all latchkey
records at once.  ``filter_positions``, ``query_every_position``,
``verify_capability_by_path`` and ``decode_capability_by_field`` are the
straight-line forms they replaced, which the differential tests compare
them with.  Gossip decodes each message the same way, every fixed-size
part in one ``struct`` step; ``decode_message_by_field`` is the
field-by-field reader that replaced, with its cursor ``_Reader``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from itertools import chain

from rangerevoke import codec
from rangerevoke.crypto import (PUBLIC_KEY_LEN, SIGNATURE_LEN, KeyPair, det_sign, digest,
                               ver_sign)
from rangerevoke.ercset import BloomFilter, FilterParams, is_revoked
from rangerevoke.manager import IssuanceDenied, TrustedCore
from rangerevoke.messages import (
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
from rangerevoke.pseudonym import (
    CLIENT_ID_LEN,
    Capability,
    Latchkey,
    Rrp,
    create_rrp,
    endorsement_message,
    get_capability,
    pseudonym_keypair,
    pseudonym_public_keys_of,
    verify_capability,
)
from rangerevoke.slot_tree import EpochConfig, NodeLabel, path_to_root
from rangerevoke.verifier import Decision, VerifierNode


# -- tree helpers -------------------------------------------------------------

def real_nodes_at(cfg: EpochConfig, level: int) -> int:
    """Number of existing (non-virtual) nodes at a level."""
    return -(-cfg.slots // cfg.fanout ** (cfg.height - level))


def label_name(label: NodeLabel, fanout: int = 2) -> str:
    """Human-readable label: root is "e", children append their digit,
    e.g. "e01" is the left child's right child."""
    digits = []
    idx = label.index
    for _ in range(label.level):
        digits.append(str(idx % fanout))
        idx //= fanout
    return "e" + "".join(reversed(digits))


def parent_label(cfg: EpochConfig, label: NodeLabel) -> NodeLabel | None:
    if label.level == 0:
        return None
    return NodeLabel(label.epoch_id, label.level - 1, label.index // cfg.fanout)


def leaves_under(cfg: EpochConfig, label: NodeLabel) -> range:
    """Slot indices of the real leaves below a node."""
    width = cfg.fanout ** (cfg.height - label.level)
    first = label.index * width
    return range(first, min(first + width, cfg.slots))


def labels_under(cfg: EpochConfig, label: NodeLabel) -> set[NodeLabel]:
    """All real descendant labels, the node itself included."""
    if not (0 <= label.level <= cfg.height):
        raise ValueError(f"level {label.level} out of range")
    if label.index >= real_nodes_at(cfg, label.level):
        raise ValueError(f"node {label} does not exist (virtual)")
    out = set()
    frontier = [label]
    while frontier:
        node = frontier.pop()
        out.add(node)
        if node.level < cfg.height:
            child_level = node.level + 1
            limit = real_nodes_at(cfg, child_level)
            for j in range(cfg.fanout):
                child = node.index * cfg.fanout + j
                if child < limit:
                    frontier.append(NodeLabel(cfg.epoch_id, child_level, child))
    return out


# -- exact-membership filter --------------------------------------------------

_digest = functools.lru_cache(maxsize=1 << 12)(digest)


class ExactSet:
    """Exact-membership stand-in for BloomFilter; zero false positives.

    Stores item digests only, mirroring the one-way encoding.  Sweeps query
    the same few hundred latchkeys many times, so each digest is computed
    once while it stays in a small cache.
    """

    __slots__ = ("epoch_id", "items")

    def __init__(self, epoch_id: int, items: frozenset[bytes] = frozenset()):
        self.epoch_id = epoch_id
        self.items = set(items)

    def add(self, item: bytes) -> None:
        self.items.add(_digest(item))

    def query(self, item: bytes) -> bool:
        return _digest(item) in self.items

    def compatible(self, other: "ExactSet") -> bool:
        return isinstance(other, ExactSet) and self.epoch_id == other.epoch_id

    def merged(self, other: "ExactSet") -> "ExactSet":
        if not self.compatible(other):
            raise ValueError("cannot merge sets for different epochs")
        out = ExactSet(self.epoch_id)
        out.items = self.items | other.items
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactSet) and self.epoch_id == other.epoch_id \
            and self.items == other.items


# -- the capability pipeline --------------------------------------------------

@dataclass(frozen=True)
class LatchkeySet:
    """Deduplicated latchkeys of one pseudonym (a genuine set, not a multiset)."""

    pseudonym_pub: bytes
    latchkeys: frozenset[Latchkey] = field(default_factory=frozenset)

    @property
    def labels(self) -> set[NodeLabel]:
        return {lk.label for lk in self.latchkeys}


def merge_latchkeys(capabilities: list[Capability]) -> LatchkeySet:
    """Union of all latchkeys over capabilities of a single pseudonym."""
    if not capabilities:
        return LatchkeySet(pseudonym_pub=b"")
    pubs = {c.pseudonym_pub for c in capabilities}
    if len(pubs) > 1:
        raise ValueError("capabilities from different pseudonyms cannot be merged")
    epochs = {c.epoch_id for c in capabilities}
    if len(epochs) > 1:
        raise ValueError("capabilities from different epochs cannot be merged")
    merged = frozenset(chain.from_iterable(c.latchkeys for c in capabilities))
    return LatchkeySet(pseudonym_pub=pubs.pop(), latchkeys=merged)


def remove_unsafe(lset: LatchkeySet, cfg: EpochConfig) -> LatchkeySet:
    """Drop any latchkey covering a slot that is not being revoked.

    A latchkey survives iff the leaf latchkey of *every* real slot under its
    node is present in the input.  The survivors are exactly the latchkeys
    that can never appear in a capability for a non-revoked slot.
    """
    leaf_slots = {lk.label.index for lk in lset.latchkeys if lk.label.level == cfg.height}
    safe = frozenset(
        lk for lk in lset.latchkeys
        if leaf_slots.issuperset(leaves_under(cfg, lk.label))
    )
    return LatchkeySet(lset.pseudonym_pub, safe)


def remove_redundant(lset: LatchkeySet, cfg: EpochConfig) -> LatchkeySet:
    """Drop latchkeys whose parent latchkey is also present (size-only pass)."""
    labels = lset.labels
    kept = frozenset(
        lk for lk in lset.latchkeys
        if parent_label(cfg, lk.label) not in labels
    )
    return LatchkeySet(lset.pseudonym_pub, kept)


def latchkeys_encoding(lset: LatchkeySet, params: FilterParams, epoch_id: int) -> BloomFilter:
    """Insert each latchkey's signature bytes into a fresh filter."""
    flt = BloomFilter(params, epoch_id)
    for lk in sorted(lset.latchkeys, key=lambda l: l.label):
        flt.add(lk.sig)
    return flt


def create_ercset(capabilities: list[Capability], cfg: EpochConfig,
                  params: FilterParams) -> BloomFilter:
    """Full pipeline: capabilities of one pseudonym to an encoded set."""
    unfiltered = merge_latchkeys(capabilities)
    safe = remove_unsafe(unfiltered, cfg)
    compact = remove_redundant(safe, cfg)
    return latchkeys_encoding(compact, params, cfg.epoch_id)


# -- sizing -------------------------------------------------------------------

def full_access_probability_as_printed(p: int, extra: int, fp_capability: float) -> float:
    """Variant of ``sizing.full_access_probability`` with a constant
    combinatorial coefficient C(p+M, M+1) on every term of the failure sum
    (instead of C(p+M, j)).

    Published sizing tables were produced with this form; the two agree
    when fp_capability is small but diverge for large p.
    """
    if p < 1 or extra < 0:
        raise ValueError("need p >= 1 and extra >= 0")
    q = fp_capability
    if q <= 0.0:
        return 1.0
    total = p + extra
    coeff = math.comb(total, extra + 1)
    failure = sum(coeff * q**j * (1.0 - q) ** (total - j)
                  for j in range(extra + 1, total + 1))
    return 1.0 - failure


# -- spare pseudonyms ---------------------------------------------------------

def retry_with_extra_pseudonym(rrps: list[Rrp], slot: int, cfg: EpochConfig,
                               verifier: VerifierNode, now: int,
                               ) -> tuple[Decision, int]:
    """Client-side model: retry revocation-flagged attempts with unused
    pseudonyms.

    Returns the final decision and the number of pseudonyms consumed.  Only
    REVOKED outcomes are retried (they may be filter false positives); any
    other denial is final.  Exhausting the list leaves the last decision.
    """
    if not rrps:
        raise ValueError("no unused pseudonyms available")
    decision = Decision.REVOKED
    for used, rrp in enumerate(rrps, start=1):
        cap = get_capability(rrp, slot, cfg)
        decision = verifier.authenticate(cap, now)
        if decision is not Decision.REVOKED:
            return decision, used
    return decision, len(rrps)


# -- issuance proofs ----------------------------------------------------------

def check_proof_by_verifying(core: TrustedCore, req: RequestRrp) -> DenialReason:
    """The manager's proof check by signature verification: the capability
    verifies for the named slot, its key is one of the client's instance
    keys, and none of its latchkeys is in the filter."""
    proof = req.proof
    if proof is None or core.erc_for(proof.epoch_id) is None:
        return DenialReason.BAD_PROOF
    cfg = core.cfg_for(proof.epoch_id)
    if not verify_capability(proof, core.pm_key.public, req.proof_slot, cfg):
        return DenialReason.BAD_PROOF
    if proof.pseudonym_pub not in pseudonym_public_keys_of(req.cid, proof.epoch_id,
                                                           core.max_instances):
        return DenialReason.BAD_PROOF
    if is_revoked(core.erc_for(proof.epoch_id), proof):
        return DenialReason.REVOKED
    return DenialReason.NONE


def reference_issue(core: TrustedCore, req: RequestRrp,
                    quarantined: bool = False) -> list[Rrp]:
    """``TrustedCore.issue`` with no reuse: the standing probe, the proof
    check and each new pseudonym derive their own keys, and the proof is
    compared with the whole capability ``get_capability`` rebuilds.  Raises
    ``IssuanceDenied`` and records the issued instances like the core."""
    if req.epoch_id not in (core.epoch_now, core.epoch_now + 1):
        raise IssuanceDenied(DenialReason.QUARANTINE if quarantined
                             and req.epoch_id == core.epoch_now + 2
                             else DenialReason.EPOCH_OUT_OF_WINDOW)
    if req.cid not in core.registry:
        raise IssuanceDenied(DenialReason.UNKNOWN_CLIENT)
    if req.cid in core.revoked:
        raise IssuanceDenied(DenialReason.REVOKED)
    for epoch_id in (core.epoch_now, core.epoch_now + 1):
        keypair = pseudonym_keypair(req.cid, epoch_id, 1)
        root = NodeLabel(epoch_id, 0, 0)
        if core.erc_for(epoch_id).query(det_sign(keypair, root.canonical_bytes)):
            raise IssuanceDenied(DenialReason.REVOKED)
    if any(core.issued.get((req.cid, e)) for e in (core.epoch_now - 1,
                                                   core.epoch_now,
                                                   core.epoch_now + 1)):
        _reference_check_proof(core, req)
    start = core.issued.get((req.cid, req.epoch_id), 0) + 1
    end = start + req.count - 1
    if end > core.max_instances:
        raise IssuanceDenied(DenialReason.BUDGET_EXHAUSTED)
    rrps = [create_rrp(req.cid, req.epoch_id, i, core.pm_key, core.max_instances)
            for i in range(start, end + 1)]
    core.issued[(req.cid, req.epoch_id)] = end
    return rrps


def _reference_check_proof(core: TrustedCore, req: RequestRrp) -> None:
    proof = req.proof
    if proof is None:
        raise IssuanceDenied(DenialReason.BAD_PROOF)
    erc = core.erc_for(proof.epoch_id)
    if erc is None or proof.endorsement != det_sign(
            core.pm_key, endorsement_message(proof.epoch_id, proof.pseudonym_pub)):
        raise IssuanceDenied(DenialReason.BAD_PROOF)
    for instance in range(1, core.max_instances + 1):
        keypair = pseudonym_keypair(req.cid, proof.epoch_id, instance)
        if keypair.public == proof.pseudonym_pub:
            break
    else:
        raise IssuanceDenied(DenialReason.BAD_PROOF)
    rrp = Rrp(req.cid, proof.epoch_id, instance, keypair, proof.endorsement)
    try:
        if proof != get_capability(rrp, req.proof_slot, core.cfg_for(proof.epoch_id)):
            raise IssuanceDenied(DenialReason.BAD_PROOF)
    except ValueError:              # a slot outside the epoch
        raise IssuanceDenied(DenialReason.BAD_PROOF) from None
    if is_revoked(erc, proof):
        raise IssuanceDenied(DenialReason.REVOKED)


# -- the authentication path, step by step -------------------------------------

def filter_positions(flt: BloomFilter, item: bytes) -> list[int]:
    """All k bit indices of ``item``: (g1 + j*g2) mod m for j = 0..k-1."""
    d = digest(item + flt.salt)
    g1 = int.from_bytes(d[:8], "big")
    g2 = int.from_bytes(d[8:16], "big")
    return [(g1 + j * g2) % flt.m for j in range(flt.k)]


def query_every_position(flt: BloomFilter, item: bytes) -> bool:
    """``BloomFilter.query`` computing all k positions before any probe."""
    return all(flt.bits[i >> 3] & (1 << (i & 7)) for i in filter_positions(flt, item))


def verify_capability_by_path(cap: Capability, pm_public: bytes, expected_slot: int,
                              cfg: EpochConfig) -> bool:
    """``verify_capability`` comparing the labels with the slot's whole
    ``path_to_root``."""
    try:
        expected_path = path_to_root(cfg, expected_slot)
    except ValueError:
        return False
    if cap.epoch_id != cfg.epoch_id:
        return False
    if [lk.label for lk in cap.latchkeys] != expected_path:
        return False
    if not ver_sign(pm_public, endorsement_message(cap.epoch_id, cap.pseudonym_pub),
                    cap.endorsement):
        return False
    return all(
        ver_sign(cap.pseudonym_pub, lk.label.canonical_bytes, lk.sig)
        for lk in cap.latchkeys
    )


class _Reader:
    """Cursor over immutable bytes; every read checks remaining length once."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        pos = self.pos
        if pos + n > len(self.data):
            raise codec.Truncated(f"need {n} bytes at offset {pos}, "
                                  f"have {len(self.data) - pos}")
        self.pos = pos + n
        return self.data[pos:pos + n]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise codec.BadMagic(f"expected magic {magic!r}, got {got!r}")

    def expect_version(self, version: int) -> None:
        v = self.u8()
        if v != version:
            raise codec.BadVersion(f"unsupported version {v:#04x}")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise codec.TrailingBytes(f"{len(self.data) - self.pos} trailing bytes")


def decode_capability_by_field(data: bytes) -> Capability:
    """``codec.decode_capability`` reading each latchkey field by field."""
    r = _Reader(data)
    r.expect_magic(codec.CAPABILITY_MAGIC)
    r.expect_version(codec.CAPABILITY_VERSION)
    epoch_id = r.u64()
    pub = r.take(PUBLIC_KEY_LEN)
    endorsement = r.take(SIGNATURE_LEN)
    count = r.u8()
    if count == 0:
        raise codec.FieldError("capability carries no latchkeys")
    latchkeys = []
    for _ in range(count):
        level = r.u8()
        index = r.u64()
        sig = r.take(SIGNATURE_LEN)
        latchkeys.append(Latchkey(NodeLabel(epoch_id, level, index), sig))
    r.done()
    return Capability(epoch_id, pub, endorsement, tuple(latchkeys))


def _filter_by_field(r: _Reader) -> BloomFilter:
    epoch_id, m, k = r.u64(), r.u64(), r.u8()
    try:
        params = FilterParams(m, k)
    except ValueError as exc:
        raise codec.FieldError(str(exc)) from exc
    return BloomFilter(params, epoch_id, r.take(m // 8))


def _request_by_field(r: _Reader) -> RequestRrp:
    cid = r.take(CLIENT_ID_LEN)
    epoch_id = r.u64()
    count = r.u8()
    proof = proof_slot = None
    if r.u8():
        proof_slot = r.u64()
        proof = decode_capability_by_field(r.take(r.u32()))
    try:
        return RequestRrp(cid, epoch_id, count, proof, proof_slot)
    except ValueError as exc:
        raise codec.FieldError(str(exc)) from exc


def _response_by_field(r: _Reader) -> RrpResponse:
    reason = r.u8()
    try:
        reason = DenialReason(reason)
    except ValueError as exc:
        raise codec.FieldError("unknown denial reason") from exc
    epoch_id = r.u64()
    count = r.u8()
    endorsements = tuple((r.u64(), r.take(SIGNATURE_LEN)) for _ in range(count))
    try:
        return RrpResponse(reason, epoch_id, endorsements)
    except ValueError as exc:
        raise codec.FieldError(str(exc)) from exc


# type tag -> payload reader, each field taken on its own
_MESSAGES_BY_FIELD = {
    0x01: _request_by_field,
    0x02: _response_by_field,
    0x03: lambda r: RevocationOrder(r.take(CLIENT_ID_LEN), r.u64(), r.u64(),
                                    r.take(SIGNATURE_LEN)),
    0x04: lambda r: ErcPush(_filter_by_field(r), _filter_by_field(r)),
    0x05: lambda r: ErcPullReq(),
    0x06: lambda r: ErcPullResp(_filter_by_field(r), _filter_by_field(r)),
    0x07: lambda r: EpochReport(r.u64(), _filter_by_field(r), _filter_by_field(r)),
}


def decode_message_by_field(data: bytes) -> Message:
    """``codec.decode_message`` reading each field with its own length
    check: the envelope, then the payload as a length-delimited slice."""
    r = _Reader(data)
    r.expect_magic(codec.ENVELOPE_MAGIC)
    r.expect_version(codec.VERSION)
    tag = r.u8()
    payload = _Reader(r.take(r.u32()))
    r.done()
    if tag not in _MESSAGES_BY_FIELD:
        raise codec.FieldError(f"unknown message type {tag:#04x}")
    msg = _MESSAGES_BY_FIELD[tag](payload)
    payload.done()
    return msg


# Ed25519 (RFC 8032, section 5.1) over edwards25519 in extended coordinates
_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = -121665 * pow(121666, -1, _P) % _P


def _add(p: tuple, q: tuple) -> tuple:
    a = (p[1] - p[0]) * (q[1] - q[0]) % _P
    b = (p[1] + p[0]) * (q[1] + q[0]) % _P
    c = 2 * p[3] * q[3] * _D % _P
    d = 2 * p[2] * q[2] % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % _P, g * h % _P, f * g % _P, e * h % _P


def _base() -> tuple:
    y = 4 * pow(5, -1, _P) % _P
    xx = (y * y - 1) * pow(_D * y * y + 1, -1, _P) % _P
    x = pow(xx, (_P + 3) // 8, _P)
    if x * x % _P != xx:
        x = x * pow(2, (_P - 1) // 4, _P) % _P
    x = x if x % 2 == 0 else _P - x          # the base point's x is even
    return x, y, 1, x * y % _P


_BASE = _base()


def _encode_multiple(scalar: int) -> bytes:
    """Encoding of [scalar]B."""
    q, p = (0, 1, 1, 0), _BASE
    while scalar:
        if scalar & 1:
            q = _add(q, p)
        p, scalar = _add(p, p), scalar >> 1
    z = pow(q[2], -1, _P)
    x, y = q[0] * z % _P, q[1] * z % _P
    return (y | (x & 1) << 255).to_bytes(32, "little")


def _int(data: bytes) -> int:
    return int.from_bytes(hashlib.sha512(data).digest(), "little")


def sign_with_nonce(key: KeyPair, message: bytes, nonce: bytes | None = None) -> bytes:
    """Ed25519 signature of ``message`` under ``key`` with the nonce
    r = SHA-512(nonce) mod L.  Without a nonce, r is RFC 8032's
    SHA-512(prefix || message) and the signature is ``det_sign``'s; with
    one, it is another signature that verifies all the same."""
    h = hashlib.sha512(key.seed).digest()
    secret = int.from_bytes(h[:32], "little") & (2**254 - 8) | 2**254
    r = _int(h[32:] + message if nonce is None else nonce) % _L
    big_r = _encode_multiple(r)
    k = _int(big_r + key.public + message) % _L
    return big_r + ((r + k * secret) % _L).to_bytes(32, "little")
