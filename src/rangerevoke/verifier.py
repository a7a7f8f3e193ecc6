"""Verifier node: genuineness plus revocation checks, pull gossip, safe mode.

A verifier grants access iff its revocation state is fresh, the capability
belongs to the current epoch and slot (within the clock-skew tolerance),
verifies as genuine, and none of its latchkeys queries true in the local
filter.  When the verifier cannot refresh its filter for longer than
three pull periods it stops granting anything: stale state may only ever
deny, never admit, so safety is preserved at the cost of availability.
Like a manager, it takes whole messages through ``deliver``.
"""

from __future__ import annotations

import enum
import logging
import random

from .ercset import ErcSet, IncompatibleFilters, is_revoked, merge_ercset
from .messages import ErcPullReq, ErcPullResp, Message, Outgoing
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
    ignored.  ``epsilon`` is the assumed maximum clock skew: a capability
    for slot s is accepted while the local clock is within
    [s*delta - epsilon, (s+1)*delta + epsilon) of the epoch start.
    """

    def __init__(self, node_id: str, pm_public: bytes, geometry: EpochConfig,
                 pm_ids: list[str], rng: random.Random,
                 pull_period: int = 5_000_000, epsilon: int = 0):
        self.node_id = node_id
        self.pm_public = pm_public
        self.geometry = geometry
        self.pm_ids = list(pm_ids)
        self.rng = rng
        self.staleness_limit = 3 * pull_period
        self.epsilon = epsilon
        self.erc_local: ErcSet | None = None
        self.last_pull: int | None = None
        # capabilities found genuine at the newest (epoch, slot) verified,
        # by leaf signature
        self._genuine: dict[bytes, Capability] = {}
        self._genuine_at = (-1, -1)
        self._cfg = geometry            # the geometry of the epoch last verified

    # -- time helpers -----------------------------------------------------

    def is_stale(self, now: int) -> bool:
        return self.last_pull is None or now - self.last_pull > self.staleness_limit

    def _slot_acceptable(self, now: int, epoch_id: int, slot: int) -> bool:
        start = epoch_id * self.geometry.epoch_len + slot * self.geometry.delta
        end = start + self.geometry.delta
        return start - self.epsilon <= now < end + self.epsilon

    # -- authentication ---------------------------------------------------

    def authenticate(self, cap: Capability, now: int) -> Decision:
        """Decide one showing of a capability.

        The decision is a pure function of (filter, capability, clock,
        staleness): freshness, epoch, slot and revocation are checked on
        every showing.  Only the genuineness check is remembered: a
        capability that verified at the newest (epoch, slot) this verifier
        has verified is not verified again when the identical capability
        is shown in that slot.  Verifying a capability of a newer slot
        forgets the older ones; one of an older slot that the skew still
        admits is verified on every showing and never remembered.
        """
        epoch, _ = self.geometry.epoch_and_slot(now)
        # a filter left over from a previous epoch cannot vouch for this one
        if self.is_stale(now) or self.erc_local is None \
                or self.erc_local.epoch_id != epoch:
            return Decision.STALE_STATE
        if cap.epoch_id != epoch:
            return Decision.WRONG_EPOCH
        slot = cap.slot
        if not self._slot_acceptable(now, cap.epoch_id, slot):
            return Decision.WRONG_SLOT
        if not self._is_genuine(cap, slot):
            return Decision.NOT_GENUINE
        if is_revoked(self.erc_local, cap):
            return Decision.REVOKED
        return Decision.GRANTED

    def _is_genuine(self, cap: Capability, slot: int) -> bool:
        """``verify_capability``, skipped for a capability equal in every
        field to one already found genuine in its slot.  The leaf signature
        only finds the candidate; equality decides."""
        leaf = cap.latchkeys[0].sig
        if cap == self._genuine.get(leaf):
            return True
        if self._cfg.epoch_id != cap.epoch_id:
            self._cfg = self.geometry.with_epoch(cap.epoch_id)
        if not verify_capability(cap, self.pm_public, slot, self._cfg):
            return False
        at = (cap.epoch_id, slot)
        if at > self._genuine_at:
            self._genuine, self._genuine_at = {}, at
        if at == self._genuine_at:
            self._genuine[leaf] = cap
        return True

    # -- pull gossip ------------------------------------------------------

    def deliver(self, sender: str, msg: Message, now: int) -> list[Outgoing]:
        """Take one message at local time ``now``; only a pull response counts."""
        if isinstance(msg, ErcPullResp):
            self.handle_pull_response(msg, now)
        return []

    def on_pull_timer(self, now: int) -> list[Outgoing]:
        """Ask a random manager for its filters."""
        return [Outgoing(self.rng.choice(self.pm_ids), ErcPullReq())]

    def handle_pull_response(self, resp: ErcPullResp, now: int) -> bool:
        """Take the filter of our epoch; True if the pull counted.  A pull
        with none (from a lagging manager) or one incompatible with ours does not."""
        wanted, _ = self.geometry.epoch_and_slot(now)
        incoming = next((f for f in (resp.current, resp.next) if f.epoch_id == wanted), None)
        if incoming is None:
            log.debug("%s: pull response has no epoch-%d filter", self.node_id, wanted)
            return False
        if self.erc_local is not None and self.erc_local.epoch_id == wanted:
            try:
                incoming = merge_ercset(self.erc_local, incoming)
            except IncompatibleFilters:
                log.warning("%s: dropping incompatible filter", self.node_id)
                return False
        self.erc_local, self.last_pull = incoming, now
        return True
