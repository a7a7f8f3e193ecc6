"""Encoded revoked-capability sets.

Revocation is expressed as a set of latchkeys: the minimal tree cover of
the revoked slots, encoded one-way into a Bloom filter.  The construction
pipeline is

    merge_latchkeys -> remove_unsafe -> remove_redundant -> latchkeys_encoding

and guarantees two properties: every capability for a revoked slot shares
at least one latchkey with the encoded set (inclusion-of-revoked) and no
capability for a non-revoked slot shares any (exclusion-of-non-revoked).
The second property is what preserves backward unlinkability: nothing a
client showed outside the revoked range ever appears in the published set.

``BloomFilter`` is the only filter the program builds.  ``ExactSet`` is
an exact-membership stand-in kept for tests, which use it as the oracle
the lossy filter is compared against; no program path constructs one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import digest
from .pseudonym import Capability, Latchkey
from .slot_tree import EpochConfig, NodeLabel, leaves_under, parent_label

SALT_LEN = 16


def default_salt(epoch_id: int) -> bytes:
    """Filter salt all parties derive identically from the epoch alone,
    so independently built filters are mergeable."""
    return digest(b"ercset-salt" + epoch_id.to_bytes(8, "big"))[:SALT_LEN]


@dataclass(frozen=True)
class FilterParams:
    """Bloom geometry: m bits, k index functions."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 8 or self.m % 8:
            raise ValueError("m must be a positive multiple of 8 bits")
        if self.k < 1:
            raise ValueError("k must be >= 1")


class BloomFilter:
    """Bit-array filter with double-hashing index derivation.

    Items are encoded via digest(item || salt), where the salt is
    ``default_salt(epoch_id)``: it derives from the epoch alone, so it is
    never stored or sent.  The first two 8-byte words g1, g2 of the digest
    give index_j = (g1 + j*g2) mod m.  Bit i lives in byte i//8 at mask
    1 << (i % 8).  Filters only accumulate: there is no removal, and
    merging is bitwise OR.
    """

    __slots__ = ("m", "k", "epoch_id", "salt", "bits")

    def __init__(self, params: FilterParams, epoch_id: int,
                 bits: bytes | None = None):
        self.m = params.m
        self.k = params.k
        self.epoch_id = epoch_id
        self.salt = default_salt(epoch_id)
        nbytes = self.m // 8
        if bits is None:
            self.bits = bytearray(nbytes)
        else:
            if len(bits) != nbytes:
                raise ValueError("bit array length does not match m")
            self.bits = bytearray(bits)

    @property
    def params(self) -> FilterParams:
        return FilterParams(self.m, self.k)

    def _positions(self, item: bytes) -> list[int]:
        d = digest(item + self.salt)
        g1 = int.from_bytes(d[:8], "big")
        g2 = int.from_bytes(d[8:16], "big")
        return [(g1 + j * g2) % self.m for j in range(self.k)]

    def add(self, item: bytes) -> None:
        for i in self._positions(item):
            self.bits[i >> 3] |= 1 << (i & 7)

    def query(self, item: bytes) -> bool:
        return all(self.bits[i >> 3] & (1 << (i & 7)) for i in self._positions(item))

    def compatible(self, other: "BloomFilter") -> bool:
        return (isinstance(other, BloomFilter) and self.m == other.m
                and self.k == other.k and self.epoch_id == other.epoch_id)

    def merged(self, other: "BloomFilter") -> "BloomFilter":
        if not self.compatible(other):
            raise ValueError("cannot merge filters with different parameters")
        n = len(self.bits)
        combined = (int.from_bytes(self.bits, "little")
                    | int.from_bytes(other.bits, "little")).to_bytes(n, "little")
        return BloomFilter(self.params, self.epoch_id, combined)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BloomFilter) and self.compatible(other) \
            and self.bits == other.bits


class ExactSet:
    """Exact-membership stand-in for BloomFilter; zero false positives.

    Stores item digests only, mirroring the one-way encoding.  Used as the
    test oracle against which the lossy filter is compared.
    """

    __slots__ = ("epoch_id", "items")

    def __init__(self, epoch_id: int, items: frozenset[bytes] = frozenset()):
        self.epoch_id = epoch_id
        self.items = set(items)

    def add(self, item: bytes) -> None:
        self.items.add(digest(item))

    def query(self, item: bytes) -> bool:
        return digest(item) in self.items

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


@dataclass(frozen=True)
class ErcSet:
    """A revocation filter bound to one epoch; immutable once built."""

    filter: BloomFilter

    @property
    def epoch_id(self) -> int:
        return self.filter.epoch_id


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
    merged = frozenset(lk for c in capabilities for lk in c.latchkeys)
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
        if all(s in leaf_slots for s in leaves_under(cfg, lk.label))
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


def latchkeys_encoding(lset: LatchkeySet, params: FilterParams, epoch_id: int) -> ErcSet:
    """Insert each latchkey's signature bytes into a fresh filter."""
    flt = BloomFilter(params, epoch_id)
    for lk in sorted(lset.latchkeys, key=lambda l: l.label):
        flt.add(lk.sig)
    return ErcSet(flt)


def create_ercset(capabilities: list[Capability], cfg: EpochConfig,
                  params: FilterParams) -> ErcSet:
    """Full pipeline: capabilities of one pseudonym to an encoded set."""
    unfiltered = merge_latchkeys(capabilities)
    safe = remove_unsafe(unfiltered, cfg)
    compact = remove_redundant(safe, cfg)
    return latchkeys_encoding(compact, params, cfg.epoch_id)


def merge_ercset(a: ErcSet, b: ErcSet) -> ErcSet:
    """Bitwise OR of two compatible sets; commutative and idempotent."""
    return ErcSet(a.filter.merged(b.filter))


def is_revoked(erc: ErcSet, cap: Capability) -> bool:
    """A capability is revoked iff any of its latchkeys queries true."""
    return any(erc.filter.query(lk.sig) for lk in cap.latchkeys)
