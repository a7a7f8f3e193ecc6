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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from rangerevoke.crypto import digest
from rangerevoke.ercset import BloomFilter, ErcSet, FilterParams
from rangerevoke.pseudonym import Capability, Latchkey, Rrp, get_capability
from rangerevoke.slot_tree import EpochConfig, NodeLabel
from rangerevoke.verifier import Decision, VerifierNode


# -- tree helpers -------------------------------------------------------------

def real_nodes_at(cfg: EpochConfig, level: int) -> int:
    """Number of existing (non-virtual) nodes at a level."""
    return -(-cfg.slots // cfg.fanout ** (cfg.height - level))


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

class ExactSet:
    """Exact-membership stand-in for BloomFilter; zero false positives.

    Stores item digests only, mirroring the one-way encoding.
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
