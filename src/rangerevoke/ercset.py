"""Encoded revoked-capability sets.

Revocation is expressed as a set of latchkeys: the minimal tree cover of
the revoked slots, encoded one-way into a Bloom filter
(``manager.revocation_cover_ercset`` builds it).  A capability is revoked
iff one of its latchkeys queries true.  The paper's construction of the
same set from a pseudonym's capabilities, the pipeline it is checked
against, lives in ``tests/oracles.py``.

``BloomFilter`` is the one filter type: managers, verifiers, messages
and the codec all hold it directly.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass

from .crypto import digest
from .pseudonym import Capability

SALT_LEN = 16
_WORDS = struct.Struct(">QQ")       # g1, g2: the digest's first two words


@functools.lru_cache(maxsize=16)
def default_salt(epoch_id: int) -> bytes:
    """Filter salt all parties derive identically from the epoch alone,
    so independently built filters are mergeable.

    Derived once per epoch: every filter built, merged or decoded for the
    epoch shares it.  The cache is bounded because decoded filters name
    their epoch on the wire, and a live node only needs a few epochs.  The
    hash is ``crypto.digest``'s SHA-256 called directly: the cache lives
    as long as the process, so a miss counted as a ``digest`` call would
    make a run's call counts depend on what ran before it."""
    return hashlib.sha256(b"ercset-salt" + epoch_id.to_bytes(8, "big")).digest()[:SALT_LEN]


class IncompatibleFilters(ValueError):
    """Filters of different geometry or epoch cannot merge."""


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
    never stored or sent.  The first two 8-byte big-endian words g1, g2 of
    the digest give index_j = (g1 + j*g2) mod m for j = 0..k-1.  Bit i
    lives in byte i//8 at mask 1 << (i % 8).  ``query`` probes index_0,
    index_1, ... in that order and answers False at the first clear bit,
    so an item that is not in a half-full filter costs about two probes,
    not k.  Filters only accumulate: there is no removal, and merging is
    bitwise OR.
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

    @property
    def filter(self) -> "BloomFilter":
        """The filter itself: a binding kept only for the benchmark under
        ``perfbench/``, whose ``layer_metrics`` still reads
        ``erc_current.filter`` and ``erc_local.filter``.  The benchmark
        revision of ROADMAP item 1 drops those reads and deletes this."""
        return self

    def _probe(self, item: bytes) -> tuple[int, int]:
        """index_0 and the step between consecutive indices, both mod m."""
        g1, g2 = _WORDS.unpack_from(digest(item + self.salt))
        return g1 % self.m, g2 % self.m

    def add(self, item: bytes) -> None:
        i, step = self._probe(item)
        m, bits = self.m, self.bits
        for _ in range(self.k):
            bits[i >> 3] |= 1 << (i & 7)
            i = (i + step) % m

    def query(self, item: bytes) -> bool:
        i, step = self._probe(item)
        m, bits = self.m, self.bits
        for _ in range(self.k):
            if not bits[i >> 3] & (1 << (i & 7)):
                return False
            i = (i + step) % m
        return True

    def compatible(self, other: "BloomFilter") -> bool:
        return (isinstance(other, BloomFilter) and self.m == other.m
                and self.k == other.k and self.epoch_id == other.epoch_id)

    def merged(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR with a compatible filter: the receiver itself when
        ``other`` adds no bit, so an idle merge builds nothing and callers
        tell a gain by identity (no filter is modified once shared).  Most
        gossiped filters equal the receiver's, which one byte comparison
        settles."""
        if not self.compatible(other):
            raise IncompatibleFilters("cannot merge filters with different parameters")
        if other.bits == self.bits:
            return self
        mine = int.from_bytes(self.bits, "little")
        combined = mine | int.from_bytes(other.bits, "little")
        if combined == mine:
            return self
        return BloomFilter(self.params, self.epoch_id,
                           combined.to_bytes(len(self.bits), "little"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BloomFilter) and self.compatible(other) \
            and self.bits == other.bits


def is_revoked(flt: BloomFilter, cap: Capability) -> bool:
    """A capability is revoked iff any of its latchkeys queries true."""
    query = flt.query
    for lk in cap.latchkeys:
        if query(lk.sig):
            return True
    return False
