"""Pseudonym-manager node: issuance, revocation, gossip, epoch transition.

A manager is split in two parts mirroring the intended deployment on
trusted hardware:

* ``TrustedCore`` holds everything secret or safety-critical: the manager
  signing key, the administrator public key, the client registry and
  per-client issuance counters, and the two live revocation filters (one
  for the current epoch, one for the next).  It alone builds filters and
  decides issuance.
* ``PmNode`` is the untrusted host shell: message routing, peer bookkeeping,
  gossip fan-out, pull timers and the epoch-transition quarantine.  It never
  touches key material or client ids directly.

A node is a single state machine on its own local clock: ``deliver`` and the
timer hooks, each run by one periodic tick, return the messages to
transmit, so nodes drop unchanged into the simulator or behind a real
transport.  Filters enter one way, whichever message carries them: the core
merges both or neither, only filters for a held epoch postpone the pull,
and gainful ones are forwarded or, in a report, counted towards a quorum.
An admin order takes effect by one rule in whatever epoch it arrives;
the node relays it, and pushes the filters if it changed them.
"""

from __future__ import annotations

import enum
import logging
import random

from .crypto import KeyPair, det_sign, ver_sign
from .ercset import BloomFilter, FilterParams, IncompatibleFilters
from .messages import (
    DenialReason,
    EpochReport,
    ErcPullReq,
    ErcPullResp,
    ErcPush,
    Message,
    Outgoing,
    RequestRrp,
    RevocationOrder,
    RrpResponse,
)
# verify_capability is imported for perfbench/, whose tracer patches it in
# this module; the proof check below does not call it
from .pseudonym import (CLIENT_ID_LEN, Rrp, endorse, endorsement_message, pseudonym_keypair,
                        verify_capability)
from .slot_tree import EpochConfig, NodeLabel, SlotRange, path_to_root, safe_cover

log = logging.getLogger(__name__)


class PmMode(enum.Enum):
    SERVING = "serving"
    QUARANTINE = "quarantine"


def revocation_cover_ercset(cid: bytes, epoch_id: int, instance: int,
                            cover: set[NodeLabel], params: FilterParams) -> BloomFilter:
    """Filter revoking one pseudonym instance over a contiguous slot range.

    ``cover`` is ``safe_cover(cfg, rng)`` of the range; it depends on the
    range alone, so a caller revoking many instances computes it once.  A
    whole epoch is the one-label cover ``{NodeLabel(epoch_id, 0, 0)}``.
    Signs only the cover's labels instead of materializing every in-range
    capability; the result is bit-identical to running the full capability
    pipeline (the cover labels are exactly the latchkeys that survive it).
    """
    keypair = pseudonym_keypair(cid, epoch_id, instance)
    flt = BloomFilter(params, epoch_id)
    for label in cover:
        flt.add(det_sign(keypair, label.canonical_bytes))
    return flt


class IssuanceDenied(Exception):
    def __init__(self, reason: DenialReason):
        super().__init__(reason.name.lower().replace("_", "-"))
        self.reason = reason


class TrustedCore:
    """Secret-holding half of a manager; see module docstring.

    The core is deterministic: re-running issuance for the same
    (cid, epoch, instance) always reproduces byte-identical endorsements,
    which is what makes stateless recovery of a crashed manager possible.
    """

    def __init__(self, pm_key: KeyPair, admin_public: bytes,
                 geometry: EpochConfig, params: FilterParams,
                 max_instances: int):
        self.pm_key = pm_key
        self.admin_public = admin_public
        self.geometry = geometry          # slot geometry; its epoch_id is the start epoch
        self.params = params
        self.max_instances = max_instances
        self.epoch_now = geometry.epoch_id
        self.registry: set[bytes] = set()
        self.revoked: set[bytes] = set()  # expelled clients (order seen locally)
        self.issued: dict[tuple[bytes, int], int] = {}  # (cid, epoch) -> highest instance
        self.erc_current = BloomFilter(params, self.epoch_now)
        self.erc_next = BloomFilter(params, self.epoch_now + 1)

    def cfg_for(self, epoch_id: int) -> EpochConfig:
        return self.geometry.with_epoch(epoch_id)

    def register(self, cid: bytes) -> None:
        if len(cid) != CLIENT_ID_LEN:
            raise ValueError(f"cid must be {CLIENT_ID_LEN} bytes")
        self.registry.add(cid)

    def erc_for(self, epoch_id: int) -> BloomFilter | None:
        if epoch_id == self.epoch_now:
            return self.erc_current
        if epoch_id == self.epoch_now + 1:
            return self.erc_next
        return None

    # -- issuance ---------------------------------------------------------

    def issue(self, req: RequestRrp, quarantined: bool = False) -> list[Rrp]:
        """Issue the next unused instances, or raise ``IssuanceDenied``.

        Clients may request pseudonyms for the current or the next epoch
        only.  The first-ever request of a client needs no capability proof
        (it cannot have one); every later request must present, for the
        slot it names, the capability of one of the client's pseudonyms
        byte for byte as the core rebuilds it, and that capability must not
        be revoked.  Each key and signature is made at most once per
        request, and nothing outlives the request.
        """
        if req.epoch_id not in (self.epoch_now, self.epoch_now + 1):
            raise IssuanceDenied(DenialReason.QUARANTINE if quarantined
                                 and req.epoch_id == self.epoch_now + 2
                                 else DenialReason.EPOCH_OUT_OF_WINDOW)
        if req.cid not in self.registry:
            raise IssuanceDenied(DenialReason.UNKNOWN_CLIENT)
        if req.cid in self.revoked:
            raise IssuanceDenied(DenialReason.REVOKED)
        firsts = self._check_standing(req.cid)
        if any(self.issued.get((req.cid, e)) for e in (self.epoch_now - 1,
                                                       self.epoch_now,
                                                       self.epoch_now + 1)):
            self._check_proof(req, firsts)
        start = self.issued.get((req.cid, req.epoch_id), 0) + 1
        end = start + req.count - 1
        if end > self.max_instances:
            raise IssuanceDenied(DenialReason.BUDGET_EXHAUSTED)
        rrps = [endorse(req.cid, req.epoch_id, i, firsts[req.epoch_id][0] if i == 1
                        else pseudonym_keypair(req.cid, req.epoch_id, i), self.pm_key)
                for i in range(start, end + 1)]
        self.issued[(req.cid, req.epoch_id)] = end
        return rrps

    def _check_standing(self, cid: bytes) -> dict[int, tuple[KeyPair, bytes]]:
        """Deny clients whose pseudonyms are wholesale-revoked for a live epoch.

        A manager that learned of a revocation only through gossiped filters
        (never the order itself) can still recognize the client: full-epoch
        revocation puts every instance's root latchkey in the filter, and
        roots are derivable from the cid alone.  One probe per live epoch
        suffices because revocation always covers instance 1.  Returns each
        live epoch's instance-1 key pair and unrevoked root latchkey.
        """
        firsts = {}
        for epoch_id in (self.epoch_now, self.epoch_now + 1):
            keypair = pseudonym_keypair(cid, epoch_id, 1)
            root = det_sign(keypair, NodeLabel(epoch_id, 0, 0).canonical_bytes)
            if self.erc_for(epoch_id).query(root):
                raise IssuanceDenied(DenialReason.REVOKED)
            firsts[epoch_id] = keypair, root
        return firsts

    def _check_proof(self, req: RequestRrp,
                     firsts: dict[int, tuple[KeyPair, bytes]]) -> None:
        """Deny unless the proof is exactly the capability the core rebuilds.

        Signing is deterministic: the core re-signs the endorsement, derives
        the client's keys until one is the proof's and re-signs the slot's
        latchkeys one by one.  Byte equality passes every genuine proof and
        refuses latchkeys re-signed with another nonce, which still verify.
        ``firsts`` is what ``_check_standing`` returned: the key scan starts
        at its instance-1 key, whose root is neither re-signed nor re-queried.
        """
        proof = req.proof
        if proof is None:
            raise IssuanceDenied(DenialReason.BAD_PROOF)
        erc = self.erc_for(proof.epoch_id)
        if erc is None or proof.endorsement != det_sign(
                self.pm_key, endorsement_message(proof.epoch_id, proof.pseudonym_pub)):
            raise IssuanceDenied(DenialReason.BAD_PROOF)
        first, root = firsts[proof.epoch_id]
        keys = (pseudonym_keypair(req.cid, proof.epoch_id, i) if i > 1 else first
                for i in range(1, self.max_instances + 1))
        keypair = next((k for k in keys if k.public == proof.pseudonym_pub), None)
        if keypair is None:
            raise IssuanceDenied(DenialReason.BAD_PROOF)
        try:
            path = path_to_root(self.cfg_for(proof.epoch_id), req.proof_slot)
        except ValueError:              # a slot outside the epoch
            raise IssuanceDenied(DenialReason.BAD_PROOF) from None
        known = {path[-1]: root} if keypair is first else {}   # probed already
        if [lk.label for lk in proof.latchkeys] != path or any(
                lk.sig != (known.get(lk.label) or det_sign(keypair, lk.label.canonical_bytes))
                for lk in proof.latchkeys):
            raise IssuanceDenied(DenialReason.BAD_PROOF)
        if any(erc.query(lk.sig) for lk in proof.latchkeys if lk.label not in known):
            raise IssuanceDenied(DenialReason.REVOKED)

    # -- revocation -------------------------------------------------------

    def revoke(self, order: RevocationOrder) -> None:
        """Apply an administrator order; ``ValueError``, and no state
        change, if its signature is bad or its slot lies outside the epoch.

        An order of epoch E expels its client for good and revokes every
        instance from slot ``rts`` to the end of E, and all of E + 1, where
        the client may already hold pseudonyms.  One rule, whatever epoch
        the core is in, writes each held epoch's part: E gets the minimal
        tree cover of [rts, T - 1], computed once and signed under each
        instance's key; E + 1 each instance's root latchkey; any other
        epoch nothing.  A core at E - 1 need not write E + 1: it has
        expelled the client.  Merging is idempotent, so replays change nothing.
        """
        cfg = self.cfg_for(order.epoch_id)      # every epoch has the same slots
        if not 0 <= order.rts < cfg.slots:
            raise ValueError(f"rts {order.rts} outside the epoch's "
                             f"{cfg.slots} slots")
        if not ver_sign(self.admin_public, order.signed_payload(), order.admin_sig):
            raise ValueError("bad signature")
        self.revoked.add(order.cid)
        held = [self.erc_current, self.erc_next]
        for j in range(2):
            epoch_id = self.epoch_now + j
            if epoch_id == order.epoch_id:
                cover = safe_cover(cfg, SlotRange(order.rts, cfg.slots - 1))
            elif epoch_id == order.epoch_id + 1:
                cover = {NodeLabel(epoch_id, 0, 0)}
            else:
                continue
            for i in range(1, self.max_instances + 1):
                held[j] = held[j].merged(revocation_cover_ercset(
                    order.cid, epoch_id, i, cover, self.params))
        self.erc_current, self.erc_next = held

    # -- filter state -----------------------------------------------------

    def merge_filters(self, current: BloomFilter, nxt: BloomFilter) -> bool | None:
        """Merge the filters for the two epochs held, all or nothing: an
        incompatible one raises ``IncompatibleFilters`` before any is kept.
        None if neither is for a held epoch, else whether a bit was gained."""
        held = [self.erc_current, self.erc_next]
        taken = False
        for incoming in (current, nxt):
            i = incoming.epoch_id - self.epoch_now
            if 0 <= i <= 1:
                held[i] = held[i].merged(incoming)
                taken = True
        if not taken:
            return None
        gained = held[0] is not self.erc_current or held[1] is not self.erc_next
        self.erc_current, self.erc_next = held
        return gained

    def rotate_epoch(self) -> None:
        """Discard epoch t, promote t+1, open an empty filter for t+2.

        Issuance counters of epoch t-1 go too: ``issue`` reads only the
        epochs from the new t-1 to the new t+1.
        """
        self.epoch_now += 1
        self.issued = {key: end for key, end in self.issued.items()
                       if key[1] >= self.epoch_now - 1}
        self.erc_current = self.erc_next
        self.erc_next = BloomFilter(self.params, self.epoch_now + 1)


class PmNode:
    """Untrusted host shell around a ``TrustedCore``; one per manager.

    ``fault_bound`` is f, the assumed maximum number of faulty managers;
    eager push fans out to f+1 random peers and quarantine waits for
    reports from N-f distinct managers (itself included).
    """

    def __init__(self, node_id: str, core: TrustedCore, peers: list[str],
                 fault_bound: int, rng: random.Random, gossip_timeout: int):
        self.node_id = node_id
        self.core = core
        self.peers = [p for p in peers if p != node_id]
        self.fault_bound = fault_bound
        self.fanout = min(fault_bound + 1, len(self.peers))   # peers per push or relay
        self.rng = rng
        self.gossip_timeout = gossip_timeout
        self.mode = PmMode.SERVING
        self._reports: dict[int, set[str]] = {}  # epoch_now or epoch_now + 1 -> senders
        self._last_update: int | None = None     # when filters last arrived
        self._orders: dict[tuple, RevocationOrder] = {}  # relayed admin orders
        self.stats = {"pushes": 0, "pulls": 0, "forwards": 0}

    def deliver(self, sender: str, msg: Message, now: int) -> list[Outgoing]:
        """Route one message from ``sender`` at local time ``now``."""
        match msg:
            case ErcPush() | ErcPullResp() | EpochReport():
                try:
                    gained = self.core.merge_filters(msg.current, msg.next)
                except IncompatibleFilters as exc:
                    log.warning("%s: dropping incompatible filters: %s", self.node_id, exc)
                    return []
                if gained is not None:
                    self._last_update = now
                if type(msg) is EpochReport:
                    return self.handle_epoch_report(sender, msg)
                if not gained:
                    return []
                out = self.eager_push()
                self.stats["forwards"] += len(out)
                return out
            case ErcPullReq():
                return self.handle_pull_request(sender)
            case RevocationOrder():
                return self.handle_revoke(msg)
            case RequestRrp():
                return [Outgoing(sender, self.handle_request(msg))]
        return []

    # -- client-facing ----------------------------------------------------

    def handle_request(self, req: RequestRrp) -> RrpResponse:
        try:
            rrps = self.core.issue(req, quarantined=self.mode is PmMode.QUARANTINE)
        except IssuanceDenied as denied:
            return RrpResponse(denied.reason, req.epoch_id)
        return RrpResponse(DenialReason.NONE, req.epoch_id,
                           tuple((r.instance, r.endorsement) for r in rrps))

    # -- revocation and gossip --------------------------------------------

    def handle_revoke(self, order: RevocationOrder) -> list[Outgoing]:
        key = (order.cid, order.rts, order.epoch_id)
        if key in self._orders:
            return []
        before = self.core.erc_current, self.core.erc_next
        try:
            self.core.revoke(order)
        except ValueError as exc:
            log.warning("%s: revocation order rejected: %s", self.node_id, exc)
            return []
        # Relay the admin-signed order itself: peers that never served this
        # client learn the expulsion, which outlives both filter epochs.
        self._orders[key] = order
        relays = [Outgoing(p, order) for p in self.rng.sample(self.peers, self.fanout)]
        if order.epoch_id > self.core.epoch_now + 1:
            log.warning("%s: filters unchanged: order targets epoch %d, current is %d",
                        self.node_id, order.epoch_id, self.core.epoch_now)
        if before != (self.core.erc_current, self.core.erc_next):   # pushed on a gain only
            return self.eager_push() + relays
        return relays

    def eager_push(self) -> list[Outgoing]:
        """Send both filters to f+1 distinct random peers."""
        targets = self.rng.sample(self.peers, self.fanout)
        self.stats["pushes"] += len(targets)
        push = ErcPush(self.core.erc_current, self.core.erc_next)
        return [Outgoing(t, push) for t in targets]

    def handle_pull_request(self, requester: str) -> list[Outgoing]:
        out = [Outgoing(requester,
                        ErcPullResp(self.core.erc_current, self.core.erc_next))]
        if requester in self.peers:
            # peer managers also get the remembered orders so a recovering
            # node rebuilds its revoked-client set, not just its filter
            # bits; verifiers never do (orders name clients, filters don't)
            out += [Outgoing(requester, order) for order in self._orders.values()]
        return out

    def on_gossip_timer(self, now: int) -> list[Outgoing]:
        """Pull unless filters arrived within the last ``gossip_timeout``."""
        if self._last_update is not None and now - self._last_update < self.gossip_timeout:
            return []
        return self._pull()

    def on_recover(self, now: int) -> list[Outgoing]:
        """Back from a crash: begin a missed epoch transition, then pull."""
        return self.on_clock(now) + self._pull()

    def _pull(self) -> list[Outgoing]:
        if not self.peers:
            return []
        self.stats["pulls"] += 1
        return [Outgoing(self.rng.choice(self.peers), ErcPullReq())]

    # -- epoch transition -------------------------------------------------

    def on_clock(self, now: int) -> list[Outgoing]:
        """Enter quarantine when the local clock crosses an epoch boundary."""
        local_epoch, _ = self.core.geometry.epoch_and_slot(now)
        if local_epoch <= self.core.epoch_now or self.mode is not PmMode.SERVING:
            return []
        self.mode = PmMode.QUARANTINE
        self._reports.setdefault(self.core.epoch_now, set()).add(self.node_id)
        report = EpochReport(self.core.epoch_now, self.core.erc_current,
                             self.core.erc_next)
        self._maybe_finish_quarantine()
        return [Outgoing(p, report) for p in self.peers]

    def handle_epoch_report(self, sender: str, report: EpochReport) -> list[Outgoing]:
        """Count a report whose filters ``deliver`` merged, or echo a laggard."""
        # a past quorum is moot.  One two or more epochs ahead counts only
        # after this node rotates twice, and by then its own reports draw
        # echoes from the nodes ahead, so those senders are not kept: any
        # sender can name any epoch
        if self.core.epoch_now <= report.from_epoch <= self.core.epoch_now + 1:
            self._reports.setdefault(report.from_epoch, set()).add(sender)
            self._maybe_finish_quarantine()
        if (report.from_epoch < self.core.epoch_now
                and report.current.epoch_id == report.from_epoch):
            # sender is a laggard catching up after a crash (its live filter
            # still belongs to the old epoch): echo a report for that epoch
            # so it can assemble a quorum long after everyone moved on.
            # Echoes carry a newer filter, so they are never echoed back.
            echo = EpochReport(report.from_epoch, self.core.erc_current,
                               self.core.erc_next)
            return [Outgoing(sender, echo)]
        return []

    def _maybe_finish_quarantine(self) -> None:
        quorum = len(self.peers) + 1 - self.fault_bound
        if (self.mode is PmMode.QUARANTINE
                and len(self._reports.get(self.core.epoch_now, ())) >= quorum):
            self._reports.pop(self.core.epoch_now, None)
            self.core.rotate_epoch()
            self.mode = PmMode.SERVING
