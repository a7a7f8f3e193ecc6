"""Encoded revoked-capability sets.

Revocation is expressed as a set of latchkeys: the minimal tree cover of
the revoked slots, encoded one-way into a Bloom filter
(``manager.revocation_cover_ercset`` builds it).  A capability is revoked
iff one of its latchkeys queries true.  The paper's construction of the
same set from a pseudonym's capabilities, the pipeline it is checked
against, lives in ``tests/oracles.py``.

``BloomFilter`` is the only filter the program builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import digest
from .pseudonym import Capability

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


@dataclass(frozen=True)
class ErcSet:
    """A revocation filter bound to one epoch; immutable once built."""

    filter: BloomFilter

    @property
    def epoch_id(self) -> int:
        return self.filter.epoch_id


def merge_ercset(a: ErcSet, b: ErcSet) -> ErcSet:
    """Bitwise OR of two compatible sets; commutative and idempotent."""
    return ErcSet(a.filter.merged(b.filter))


def is_revoked(erc: ErcSet, cap: Capability) -> bool:
    """A capability is revoked iff any of its latchkeys queries true."""
    return any(erc.filter.query(lk.sig) for lk in cap.latchkeys)
