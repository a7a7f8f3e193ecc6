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

    A filter built empty records the positions ``add`` sets, so that
    merging it costs the bits it set rather than the whole array; a
    revocation order's per-instance filters set a few dozen bits of tens
    of thousands.  The record is exact: it holds precisely the set bits of
    a filter built empty and written only by ``add``.  A filter built from
    bits (decoded from the wire, or the result of a merge) has none, and
    past m/256 positions, about where the whole-array OR becomes cheaper,
    ``add`` drops the record for good.  Nothing but ``add`` writes
    ``bits``: the codec and the simulator only read it.
    """

    __slots__ = ("m", "k", "epoch_id", "salt", "bits", "_positions")

    def __init__(self, params: FilterParams, epoch_id: int,
                 bits: bytes | None = None):
        self.m = params.m
        self.k = params.k
        self.epoch_id = epoch_id
        self.salt = default_salt(epoch_id)
        nbytes = self.m // 8
        self._positions: set[int] | None
        if bits is None:
            self.bits = bytearray(nbytes)
            self._positions = set()
        else:
            if len(bits) != nbytes:
                raise ValueError("bit array length does not match m")
            self.bits = bytearray(bits)
            self._positions = None

    @property
    def filter(self) -> "BloomFilter":
        """The filter itself: a binding kept only for the benchmark under
        ``perfbench/``, whose ``layer_metrics`` still reads
        ``erc_current.filter`` and ``erc_local.filter``.  The benchmark
        revision of ROADMAP item 1 drops those reads and deletes this."""
        return self

    def _probe(self, item: bytes) -> tuple[int, int]:
        """index_0 and the step between indices, mod m (``query`` inlines this)."""
        g1, g2 = _WORDS.unpack_from(digest(item + self.salt))
        return g1 % self.m, g2 % self.m

    def add(self, item: bytes) -> None:
        i, step = self._probe(item)
        m, bits, positions = self.m, self.bits, self._positions
        for _ in range(self.k):
            bits[i >> 3] |= 1 << (i & 7)
            if positions is not None:
                positions.add(i)
            i = (i + step) % m
        if positions is not None and len(positions) > m >> 8:
            self._positions = None

    def query(self, item: bytes) -> bool:
        m, bits = self.m, self.bits
        g1, g2 = _WORDS.unpack_from(digest(item + self.salt))
        i, step = g1 % m, g2 % m
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
        ``other`` adds no bit (no filter is modified once shared), so an
        idle merge builds nothing and ``merge_filters`` tells a gain by identity.

        An ``other`` that records its positions (see the class docstring)
        is ORed into one copy of the receiver, position by position: this
        is how a revocation order's per-instance filters merge.  Any other
        is ORed as one integer over the whole array; most gossiped filters
        equal the receiver's, which one byte comparison settles."""
        if not self.compatible(other):
            raise IncompatibleFilters("cannot merge filters with different parameters")
        if other._positions is not None:
            bits = bytearray(self.bits)
            for i in other._positions:
                bits[i >> 3] |= 1 << (i & 7)
            return self if bits == self.bits else self._with_bits(bits)
        if other.bits == self.bits:
            return self
        mine = int.from_bytes(self.bits, "little")
        combined = mine | int.from_bytes(other.bits, "little")
        if combined == mine:
            return self
        return self._with_bits(bytearray(combined.to_bytes(len(self.bits), "little")))

    def _with_bits(self, bits: bytearray) -> "BloomFilter":
        """A filter of this one's shape and epoch that takes ``bits`` as
        its own: a merge result, built from bits, so it records nothing."""
        flt = BloomFilter.__new__(BloomFilter)
        flt.m, flt.k, flt.epoch_id, flt.salt = self.m, self.k, self.epoch_id, self.salt
        flt.bits, flt._positions = bits, None
        return flt

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
