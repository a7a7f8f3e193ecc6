"""Verifier node: genuineness plus revocation checks, pull gossip, safe mode.

A verifier grants access iff its revocation state is fresh, the capability
belongs to the current epoch and slot (within the clock-skew tolerance),
verifies as genuine, and none of its latchkeys queries true in the local
filter.  When the verifier cannot refresh its filter for longer than
three pull periods it stops granting anything: stale state may only ever
deny, never admit, so safety is preserved at the cost of availability.
"""

from __future__ import annotations

import enum
import logging
import random

from .ercset import ErcSet, is_revoked, merge_ercset
from .messages import ErcPullReq, ErcPullResp
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

    # -- time helpers -----------------------------------------------------

    def current_epoch(self, now: int) -> int:
        return now // self.geometry.epoch_len

    def is_stale(self, now: int) -> bool:
        return self.last_pull is None or now - self.last_pull > self.staleness_limit

    def _slot_acceptable(self, now: int, epoch_id: int, slot: int) -> bool:
        start = epoch_id * self.geometry.epoch_len + slot * self.geometry.delta
        end = start + self.geometry.delta
        return start - self.epsilon <= now < end + self.epsilon

    # -- authentication ---------------------------------------------------

    def authenticate(self, cap: Capability, now: int) -> Decision:
        """Pure function of (filter, capability, clock, staleness)."""
        epoch = self.current_epoch(now)
        # a filter left over from a previous epoch cannot vouch for this one
        if self.is_stale(now) or self.erc_local is None \
                or self.erc_local.epoch_id != epoch:
            return Decision.STALE_STATE
        if cap.epoch_id != epoch:
            return Decision.WRONG_EPOCH
        slot = cap.slot
        if not self._slot_acceptable(now, cap.epoch_id, slot):
            return Decision.WRONG_SLOT
        cfg = self.geometry.with_epoch(cap.epoch_id)
        if not verify_capability(cap, self.pm_public, slot, cfg):
            return Decision.NOT_GENUINE
        if is_revoked(self.erc_local, cap):
            return Decision.REVOKED
        return Decision.GRANTED

    # -- pull gossip ------------------------------------------------------

    def make_pull(self, now: int) -> tuple[str, ErcPullReq]:
        """Pick a random manager to refresh from."""
        target = self.rng.choice(self.pm_ids)
        return target, ErcPullReq(self.current_epoch(now))

    def handle_pull_response(self, resp: ErcPullResp, now: int) -> bool:
        """Merge the filter matching our epoch; True if the pull counted.

        A response carrying no filter for our current epoch (e.g. from a
        badly lagging manager) does not reset staleness.
        """
        wanted = self.current_epoch(now)
        incoming = None
        if resp.current.epoch_id == wanted:
            incoming = resp.current
        elif resp.next.epoch_id == wanted:
            incoming = resp.next
        if incoming is None:
            log.debug("%s: pull response has no epoch-%d filter", self.node_id, wanted)
            return False
        if self.erc_local is None or self.erc_local.epoch_id != wanted:
            self.erc_local = incoming
        else:
            try:
                self.erc_local = merge_ercset(self.erc_local, incoming)
            except ValueError as exc:
                log.warning("%s: dropping incompatible filter: %s", self.node_id, exc)
                return False
        self.last_pull = now
        return True
