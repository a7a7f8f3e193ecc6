"""Time geometry: the d-ary tree over an epoch's time slots.

An epoch of length ``epoch_len`` is divided into ``T = ceil(epoch_len/delta)``
slots.  Slots are the leaves of a d-ary tree of height ``h = ceil(log_d T)``;
the root covers the whole epoch.  Node labels are a pure function of
(epoch_id, level, index) and carry no child material: this is deliberately
*not* a Merkle tree.

When T is not a power of the fanout the tree is built over ``fanout**h``
virtual leaves and leaves with index >= T simply do not exist.  A node may
stand in for a slot range only if *all of its real leaf descendants* fall in
the range; virtual leaves are ignored.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

_LABEL = struct.Struct(">QBQ")      # epoch_id, level, index


def tree_height(slots: int, fanout: int) -> int:
    """ceil(log_fanout slots) in integer arithmetic: the least h with
    fanout**h >= slots (0 for a single slot)."""
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    h = 0
    while fanout**h < slots:
        h += 1
    return h


@dataclass(frozen=True)
class EpochConfig:
    """Public time geometry shared by every party.

    Equal configs produce identical trees and labels on all nodes, which is
    what makes independently computed covers and filters compatible.
    Durations are in seconds (any consistent unit works).
    """

    epoch_id: int
    epoch_len: int
    delta: int
    fanout: int = 2

    def __post_init__(self) -> None:
        if self.epoch_len <= 0 or self.delta <= 0:
            raise ValueError("epoch_len and delta must be positive")
        if self.delta > self.epoch_len:
            raise ValueError("slot length exceeds epoch length")
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")

    @cached_property
    def slots(self) -> int:
        """T: number of time slots in the epoch."""
        return -(-self.epoch_len // self.delta)

    @cached_property
    def height(self) -> int:
        """h = ceil(log_d T); leaves live at level h, the root at level 0."""
        return tree_height(self.slots, self.fanout)

    def epoch_and_slot(self, t: int) -> tuple[int, int]:
        """(epoch, slot) of time ``t``; epoch e starts at ``e * epoch_len``."""
        epoch_id, offset = divmod(t, self.epoch_len)
        return epoch_id, offset // self.delta

    def with_epoch(self, epoch_id: int) -> "EpochConfig":
        """Same geometry for another epoch."""
        return EpochConfig(epoch_id, self.epoch_len, self.delta, self.fanout)


@dataclass(frozen=True, order=True)
class NodeLabel:
    """Position of a tree node: (epoch_id, level, index), root = (·, 0, 0)."""

    epoch_id: int
    level: int
    index: int

    @property
    def canonical_bytes(self) -> bytes:
        """Injective binary form, the exact message signed for a latchkey:
        epoch_id u64 BE || level u8 || index u64 BE."""
        return _LABEL.pack(self.epoch_id, self.level, self.index)


@dataclass(frozen=True)
class SlotRange:
    """Inclusive range of slot indices within one epoch."""

    first: int
    last: int

    def __post_init__(self) -> None:
        if not 0 <= self.first <= self.last:
            raise ValueError(f"invalid slot range [{self.first}, {self.last}]")

    def __contains__(self, slot: int) -> bool:
        return self.first <= slot <= self.last


def path_to_root(cfg: EpochConfig, slot: int) -> list[NodeLabel]:
    """Labels from the slot's leaf up to the root (leaf first, root last)."""
    if not 0 <= slot < cfg.slots:
        raise ValueError(f"slot {slot} out of range for T={cfg.slots}")
    path = []
    idx = slot
    for level in range(cfg.height, -1, -1):
        path.append(NodeLabel(cfg.epoch_id, level, idx))
        idx //= cfg.fanout
    return path


def _leaf_span(cfg: EpochConfig, label: NodeLabel) -> tuple[int, int]:
    """Real leaves under a node: [first, last] leaf indices, clamped to T."""
    width = cfg.fanout ** (cfg.height - label.level)
    first = label.index * width
    last = min(first + width - 1, cfg.slots - 1)
    return first, last


def safe_cover(cfg: EpochConfig, rng: SlotRange) -> set[NodeLabel]:
    """Minimal label set revoking exactly the slots in ``rng``.

    Every root-to-leaf path of an in-range slot meets the set; no path of an
    out-of-range slot does.  Built top-down from the root: a node whose real
    leaves all lie in the range is emitted, a node that only partly overlaps
    the range is split into its children, and the rest (virtual nodes
    included) are dropped.  At most two nodes per level overlap partly, so
    the walk visits O(d·h) nodes instead of the range's leaves.
    """
    if rng.last >= cfg.slots:
        raise ValueError(f"range end {rng.last} beyond T={cfg.slots}")
    cover = set()
    stack = [NodeLabel(cfg.epoch_id, 0, 0)]
    while stack:
        node = stack.pop()
        first, last = _leaf_span(cfg, node)
        if first > rng.last or last < rng.first:
            continue
        if first in rng and last in rng:
            cover.add(node)
        else:
            stack += [NodeLabel(cfg.epoch_id, node.level + 1, node.index * cfg.fanout + j)
                      for j in range(cfg.fanout)]
    return cover
