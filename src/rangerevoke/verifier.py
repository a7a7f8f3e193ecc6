"""Verifier node: genuineness plus revocation checks, pull gossip, safe mode.

A verifier grants access iff its revocation state is fresh, the capability
belongs to the epoch and slot of the verifier's clock, verifies as genuine,
and none of its latchkeys queries true in the local filter.  When the
verifier cannot refresh its filter for longer than three pull periods it
stops granting anything: stale state may only ever deny, never admit, so
safety is preserved at the cost of availability.  A pull keeps the next
epoch's filter too, which takes over at the boundary with no pull.
Like a manager, it has two entry points, ``deliver`` and ``on_tick``.
"""

from __future__ import annotations

import enum
import logging
import random

from .ercset import BloomFilter, is_revoked
from .messages import PULL_REQUEST, ErcPullResp, Message, Outgoing
from .pseudonym import Capability, verify_capability
from .slot_tree import EpochConfig

log = logging.getLogger(__name__)


class Decision(enum.Enum):
    GRANTED = "granted"
    STALE_STATE = "stale-state"
    WRONG_EPOCH = "wrong-epoch"
    WRONG_SLOT = "wrong-slot"
    NOT_GENUINE = "not-genuine"
    REVOKED = "revoked"


class VerifierNode:
    """Single-node verifier state machine.

    ``geometry`` fixes the public time layout; its epoch_id field is
    ignored.  A capability for slot s is accepted only while the local
    clock is in slot s of the capability's epoch.
    """

    def __init__(self, node_id: str, pm_public: bytes, geometry: EpochConfig,
                 pm_ids: list[str], rng: random.Random,
                 pull_period: int = 5_000_000):
        self.node_id = node_id
        self.pm_public = pm_public
        self.geometry = geometry
        self.pm_ids = list(pm_ids)
        self.rng = rng
        self.staleness_limit = 3 * pull_period
        self.erc_local: BloomFilter | None = None
        self.erc_next: BloomFilter | None = None  # the next epoch's, from the last pull
        self.last_pull: int | None = None
        self._genuine: Capability | None = None   # the last found genuine
        self._cfg = geometry            # the geometry of the clock's epoch

    # -- time helpers -----------------------------------------------------

    def is_stale(self, now: int) -> bool:
        return self.last_pull is None or now - self.last_pull > self.staleness_limit

    # -- authentication ---------------------------------------------------

    def authenticate(self, cap: Capability, now: int) -> Decision:
        """Decide one showing of a capability.

        The decision is a pure function of (filter, capability, clock,
        staleness): freshness, epoch, slot and revocation are checked on
        every showing.  Only the genuineness check is remembered:
        ``verify_capability`` is skipped for a capability equal in every
        field to the last one found genuine.  Genuineness depends on the
        capability alone, and the epoch and slot checks before it tie an
        equal capability to the clock's slot.
        """
        epoch, slot = self.geometry.epoch_and_slot(now)
        if self.erc_next is not None and self.erc_next.epoch_id == epoch:
            self.erc_local, self.erc_next = self.erc_next, None   # a boundary passed
        # a filter left over from a previous epoch cannot vouch for this one
        if self.is_stale(now) or self.erc_local is None \
                or self.erc_local.epoch_id != epoch:
            return Decision.STALE_STATE
        if cap.epoch_id != epoch:
            return Decision.WRONG_EPOCH
        if cap.slot != slot:
            return Decision.WRONG_SLOT
        if cap != self._genuine:
            if self._cfg.epoch_id != epoch:
                self._cfg = self.geometry.with_epoch(epoch)
            if not verify_capability(cap, self.pm_public, slot, self._cfg):
                return Decision.NOT_GENUINE
            self._genuine = cap
        if is_revoked(self.erc_local, cap):
            return Decision.REVOKED
        return Decision.GRANTED

    # -- pull gossip ------------------------------------------------------

    def deliver(self, sender: str, msg: Message, now: int) -> list[Outgoing]:
        """Take one message at local time ``now``; only a pull response counts."""
        if isinstance(msg, ErcPullResp):
            self.handle_pull_response(msg, now)
        return []

    def on_tick(self, now: int) -> list[Outgoing]:
        """Ask a random manager for its filters."""
        return [Outgoing(self.rng.choice(self.pm_ids), PULL_REQUEST)]

    def handle_pull_response(self, resp: ErcPullResp, now: int) -> bool:
        """Take the filters of our epoch and the next; True if the pull
        counted.  One with no filter of our epoch (from a manager an epoch
        away) does not, and changes nothing.  One that counts also replaces
        the next epoch's filter, or drops it, so freshness, which counts
        from ``last_pull``, vouches for that filter when it takes over."""
        wanted, _ = self.geometry.epoch_and_slot(now)
        incoming = {resp.next.epoch_id: resp.next, resp.current.epoch_id: resp.current}
        if wanted not in incoming:
            log.debug("%s: pull response has no epoch-%d filter", self.node_id, wanted)
            return False
        held = {f.epoch_id: f for f in (self.erc_local, self.erc_next) if f is not None}
        self.erc_local, self.erc_next = (
            held[e].merged(incoming[e]) if e in held and e in incoming else incoming.get(e)
            for e in (wanted, wanted + 1))
        self.last_pull = now
        return True
