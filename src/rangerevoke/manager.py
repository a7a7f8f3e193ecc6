"""Pseudonym-manager node: issuance, revocation, gossip, epoch transition.

A manager is split in two parts mirroring the intended deployment on
trusted hardware:

* ``TrustedCore`` holds everything secret or safety-critical: the manager
  signing key, the administrator public key, the client registry and
  per-client issuance counters, the two live revocation filters (one for
  the current epoch, one for the next) and the epoch transition.  It alone
  builds filters, decides issuance and rotates.  Per pseudonym it keeps
  only public values, per live epoch and client: instance 1's public key
  and root latchkey, its endorsement once issued here, and the public key
  of every other instance issued here.  It rebuilds the key pair of each
  kept public key without Ed25519, so it never derives a key it issued
  again.
* ``PmNode`` is the untrusted host shell: message routing, gossip fan-out,
  the periodic pull, the clock and the laggard echo.  It holds no key
  material and reads no client id, though every ``RequestRrp`` and
  ``RevocationOrder`` it routes carries one in clear (ROADMAP item 14).
  Its order table lists each admin order taken, as signed, in first-seen
  order, to relay and resend.

A node is a single state machine on its own local clock with two entry
points, ``deliver`` and the periodic ``on_tick``, which return the messages
to transmit, so nodes drop unchanged into the simulator or behind a real
transport.  Filters enter one way, whichever message carries them: the core
merges both or neither, only filters for a held epoch postpone the pull,
and gainful pushed or pulled ones are forwarded.  The core counts the
managers, itself included, that reported leaving its epoch; it is in
quarantine once it reported itself and rotates at N - f.  The shell hands
it a peer's report of that epoch; a laggard's report of a past epoch draws
an echo, but the one completing a quorum does not.  Rotation follows the
clock, which only ``on_tick`` reads: each tick past ``epoch_now`` reports
leaving it, which starts a transition, resends in quarantine and rejoins
after a crash.

An admin order expels its client and is relayed; only the managers the
admin sends it to sign its filter bits, by one rule in whatever epoch it
arrives; each rotation writes into the filter it opens the part of every
order signed before, and a gain is pushed.
"""

from __future__ import annotations

import logging
import random
from collections.abc import Iterable

from .crypto import PUBLIC_KEY_LEN, SIGNATURE_LEN, KeyPair, det_sign, ver_sign
from .ercset import BloomFilter, FilterParams
from .messages import (
    PULL_REQUEST,
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
from .pseudonym import (CLIENT_ID_LEN, Rrp, carries_path, endorse, endorsement_message,
                        pseudonym_keypair, pseudonym_seed, verify_capability)
from .slot_tree import EpochConfig, NodeLabel, SlotRange, safe_cover

log = logging.getLogger(__name__)

_ENDORSED = PUBLIC_KEY_LEN + SIGNATURE_LEN   # where a ``firsts`` entry's endorsement starts
_ISSUED = _ENDORSED + SIGNATURE_LEN          # where instance 2's public key starts


def revocation_cover_ercset(keypair: KeyPair, epoch_id: int, cover: set[NodeLabel],
                            params: FilterParams, root: bytes | None = None) -> BloomFilter:
    """Filter revoking the pseudonym of ``keypair`` over a contiguous slot range.

    ``cover`` is ``safe_cover(cfg, rng)`` of the range; it depends on the
    range alone, so a caller revoking many instances computes it once.  A
    whole epoch is the one-label cover ``{NodeLabel(epoch_id, 0, 0)}``.
    Signs only the cover's labels instead of materializing every in-range
    capability; the result is bit-identical to running the full capability
    pipeline (the cover labels are exactly the latchkeys that survive it).
    A kept ``root`` latchkey is written as it is, not signed again.  The
    filter is built empty and written only by ``add``, so it records the
    few positions it set, and merging it into a live filter costs those
    bits, not the whole array (see ``BloomFilter``).
    """
    flt = BloomFilter(params, epoch_id)
    for label in cover:
        flt.add(root if root is not None and label.level == 0
                else det_sign(keypair, label.canonical_bytes))
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

    ``issue`` denies in a fixed order: epoch window, registry, expelled
    client, standing, budget, proof, so a request past its budget costs no
    proof check.  ``firsts`` keeps, per live epoch and client, one flat
    entry: instance 1's public key and root latchkey from the standing
    probe, then its endorsement and the public keys of instances 2, 3, ...
    in instance order as ``issue`` issues them (a core issues a client's
    instances of an epoch contiguously from 1).  ``_keypair`` is the one
    source of pseudonym key pairs: it pairs each kept public key with its
    seed (no Ed25519 call), hands out instance 1's kept root with it, and
    derives every other pair.  So ``revoke``, a rotation and the proof
    check derive no key this core issued.  Nothing kept is signed again:
    the probe queries the root, an instance-1 proof is compared with the
    root and the endorsement, and an order revoking the whole epoch writes
    the root.

    ``peers`` are the other managers' ids and ``fault_bound`` is f, the most
    managers assumed faulty; the defaults are a lone manager.  Only
    ``report`` enters the next epoch.  ``signed`` lists the orders signed
    of epoch ``epoch_now`` - 1 or later; an older order writes no bit in
    a live or later filter, so it is neither kept nor walked again.
    """

    def __init__(self, pm_key: KeyPair, admin_public: bytes,
                 geometry: EpochConfig, params: FilterParams,
                 max_instances: int, peers: Iterable[str] = (), fault_bound: int = 0):
        self.pm_key = pm_key
        self.admin_public = admin_public
        self.geometry = geometry          # slot geometry; its epoch_id is the start epoch
        self.params = params
        self.max_instances = max_instances
        self.epoch_now = geometry.epoch_id
        self.registry: set[bytes] = set()
        self.revoked: set[bytes] = set()  # expelled clients (order seen locally)
        self.issued: dict[tuple[bytes, int], int] = {}  # (cid, epoch) -> highest instance
        # live epoch -> cid -> instance 1's public key ‖ root latchkey, then
        # its endorsement and instance 2's, 3's, ... public key as issued
        # here; flat bytes so that copying a core stays cheap
        self.firsts: dict[int, dict[bytes, bytes]] = {}
        self.erc_current = BloomFilter(params, self.epoch_now)
        self.erc_next = BloomFilter(params, self.epoch_now + 1)
        self.peers = tuple(peers)
        self.fault_bound = fault_bound
        self._reports: set[str | None] = set()   # reported leaving epoch_now; None is this core
        self.signed: dict[RevocationOrder, None] = {}

    def cfg_for(self, epoch_id: int) -> EpochConfig:
        return self.geometry.with_epoch(epoch_id)

    def register(self, cid: bytes) -> None:
        if len(cid) != CLIENT_ID_LEN:
            raise ValueError(f"cid must be {CLIENT_ID_LEN} bytes")
        self.registry.add(cid)

    def erc_for(self, epoch_id: int) -> BloomFilter | None:
        i = epoch_id - self.epoch_now
        return (self.erc_current, self.erc_next)[i] if 0 <= i <= 1 else None

    # -- issuance ---------------------------------------------------------

    def issue(self, req: RequestRrp) -> list[Rrp]:
        """Issue the next unused instances, or raise ``IssuanceDenied``.

        Clients may request pseudonyms for the current or the next epoch
        only.  The first-ever request of a client needs no capability proof
        (it cannot have one); every later request must present, for the
        slot it names, the capability of one of the client's pseudonyms
        byte for byte as the core rebuilds it, and that capability must not
        be revoked.  Denials come in the order window, registry, expelled,
        standing, budget, proof.  Every key pair comes from ``_keypair``,
        so each key is derived (a kept one paired with its seed) and each
        signature made at most once per request, and no key pair outlives
        the request.
        Instance 1's endorsement and every later instance's public key are
        kept in ``firsts`` beside instance 1's key.
        """
        if req.epoch_id not in (self.epoch_now, self.epoch_now + 1):
            raise IssuanceDenied(DenialReason.QUARANTINE if self.quarantined
                                 and req.epoch_id == self.epoch_now + 2
                                 else DenialReason.EPOCH_OUT_OF_WINDOW)
        if req.cid not in self.registry:
            raise IssuanceDenied(DenialReason.UNKNOWN_CLIENT)
        if req.cid in self.revoked:
            raise IssuanceDenied(DenialReason.REVOKED)
        self._check_standing(req.cid)
        start = self.issued.get((req.cid, req.epoch_id), 0) + 1
        end = start + req.count - 1
        if end > self.max_instances:
            raise IssuanceDenied(DenialReason.BUDGET_EXHAUSTED)
        if any(self.issued.get((req.cid, e)) for e in (self.epoch_now - 1,
                                                       self.epoch_now,
                                                       self.epoch_now + 1)):
            self._check_proof(req)
        rrps = [endorse(req.cid, req.epoch_id, i, self._keypair(req.cid, req.epoch_id, i)[0],
                        self.pm_key) for i in range(start, end + 1)]
        # the standing probe made the entry; it grows in instance order
        self.firsts[req.epoch_id][req.cid] += b"".join(
            rrp.endorsement if rrp.instance == 1 else rrp.keypair.public for rrp in rrps)
        self.issued[(req.cid, req.epoch_id)] = end
        return rrps

    def _check_standing(self, cid: bytes) -> None:
        """Deny clients whose pseudonyms are wholesale-revoked for a live epoch.

        A manager that learned of a revocation only through gossiped filters
        (never the order itself) can still recognize the client: full-epoch
        revocation puts every instance's root latchkey in the filter, and
        roots are derivable from the cid alone.  One probe per live epoch
        suffices because revocation always covers instance 1.  Each probe
        queries the current filter, but ``firsts`` keeps the probed public
        key and root latchkey, so only a client's first probe in an epoch
        derives and signs.  Afterwards ``firsts`` holds the client for both
        live epochs.
        """
        for epoch_id in (self.epoch_now, self.epoch_now + 1):
            kept = self.firsts.setdefault(epoch_id, {})
            if cid not in kept:
                keypair, _ = self._keypair(cid, epoch_id, 1)     # derived: nothing kept yet
                kept[cid] = keypair.public + det_sign(
                    keypair, NodeLabel(epoch_id, 0, 0).canonical_bytes)
            if self.erc_for(epoch_id).query(kept[cid][PUBLIC_KEY_LEN:_ENDORSED]):
                raise IssuanceDenied(DenialReason.REVOKED)

    def _keypair(self, cid: bytes, epoch_id: int, instance: int) -> tuple[KeyPair, bytes | None]:
        """A pseudonym's key pair, and its root latchkey if kept: its seed
        and the public key ``firsts`` keeps (instance 1 once probed, any
        other once issued here), else derived; only instance 1's root is
        kept."""
        kept = self.firsts.get(epoch_id, {}).get(cid, b"")
        at = _ISSUED + (instance - 2) * PUBLIC_KEY_LEN if instance > 1 else 0
        public = kept[at:at + PUBLIC_KEY_LEN]
        if not public:
            return pseudonym_keypair(cid, epoch_id, instance), None
        return (KeyPair(pseudonym_seed(cid, epoch_id, instance), public),
                kept[PUBLIC_KEY_LEN:_ENDORSED] if instance == 1 else None)

    def _check_proof(self, req: RequestRrp) -> None:
        """Deny unless the proof is exactly the capability the core rebuilds.

        Signing is deterministic: the core re-signs the endorsement, derives
        the client's keys until one is the proof's and re-signs the slot's
        latchkeys one by one.  Byte equality passes every genuine proof and
        refuses latchkeys re-signed with another nonce, which still verify.
        The epoch, the slot and the labels pass the verifier's rule
        (``carries_path``) before any Ed25519 call, and no tree object is
        built.  The key scan runs through ``_keypair`` from instance 1,
        which is tried only if its kept public key is the proof's: its pair
        is then rebuilt, its root is neither re-signed nor re-queried, and
        its endorsement is compared with the kept one if this core issued it.
        Any other instance this core issued is rebuilt, not derived.
        """
        proof = req.proof
        erc = None if proof is None else self.erc_for(proof.epoch_id)
        if erc is None or not carries_path(proof, req.proof_slot, self.geometry):
            raise IssuanceDenied(DenialReason.BAD_PROOF)
        kept = self.firsts[proof.epoch_id][req.cid]
        first = proof.pseudonym_pub == kept[:PUBLIC_KEY_LEN]
        endorsed = kept[_ENDORSED:_ISSUED] if first else b""
        if proof.endorsement != (endorsed or det_sign(
                self.pm_key, endorsement_message(proof.epoch_id, proof.pseudonym_pub))):
            raise IssuanceDenied(DenialReason.BAD_PROOF)
        scan = (self._keypair(req.cid, proof.epoch_id, i)
                for i in range(1 if first else 2, self.max_instances + 1))
        keypair, root = next((pair for pair in scan if pair[0].public == proof.pseudonym_pub),
                             (None, None))
        if keypair is None or any(lk.sig != (root if root is not None and lk.label.level == 0
                                             else det_sign(keypair, lk.label.canonical_bytes))
                                  for lk in proof.latchkeys):
            raise IssuanceDenied(DenialReason.BAD_PROOF)
        if any(erc.query(lk.sig) for lk in proof.latchkeys[:-1 if root else None]):
            raise IssuanceDenied(DenialReason.REVOKED)

    # -- revocation -------------------------------------------------------

    def expel(self, order: RevocationOrder) -> None:
        """Expel an administrator order's client for good, writing no filter
        bit; ``ValueError``, and no state change, if its signature is bad or
        its slot lies outside the epoch."""
        slots = self.geometry.slots      # every epoch has the same slots
        if not 0 <= order.rts < slots:
            raise ValueError(f"rts {order.rts} outside the epoch's {slots} slots")
        if not ver_sign(self.admin_public, order.signed_payload(), order.admin_sig):
            raise ValueError("bad signature")
        self.revoked.add(order.cid)

    def revoke(self, order: RevocationOrder) -> None:
        """``expel``, then write the order's filter bits.

        An order of epoch E revokes every instance from slot ``rts`` to the
        end of E, and all of E + 1, where the client may already hold
        pseudonyms.  One rule, whatever epoch the core is in, writes each
        held epoch's part: E gets the minimal tree cover of [rts, T - 1],
        computed once and signed under each instance's key; E + 1 each
        instance's root latchkey; any other epoch nothing.  Key pairs come
        from ``_keypair``, so where ``firsts`` holds the client instance 1's
        is rebuilt and its kept root latchkey written as kept, and every
        other instance this core issued is rebuilt.  A core before E lacks
        a part; each rotation writes the part of the filter it opens.
        Merging is idempotent, so replays change nothing.  An order of an
        epoch before ``epoch_now`` - 1 costs its signature check alone.
        """
        self.expel(order)
        if order.epoch_id >= self.epoch_now - 1:
            self.signed[order] = None
        self.erc_current = self._written(order, self.erc_current)
        self.erc_next = self._written(order, self.erc_next)

    def _written(self, order: RevocationOrder, flt: BloomFilter) -> BloomFilter:
        """``flt`` with the order's part of its epoch merged in, one
        instance at a time."""
        epoch_id = flt.epoch_id
        if epoch_id == order.epoch_id:
            cfg = self.cfg_for(epoch_id)
            cover = safe_cover(cfg, SlotRange(order.rts, cfg.slots - 1))
        elif epoch_id == order.epoch_id + 1:
            cover = {NodeLabel(epoch_id, 0, 0)}
        else:
            return flt
        for i in range(1, self.max_instances + 1):
            keypair, root = self._keypair(order.cid, epoch_id, i)
            flt = flt.merged(revocation_cover_ercset(keypair, epoch_id, cover, self.params, root))
        return flt

    # -- filter state -----------------------------------------------------

    def merge_filters(self, current: BloomFilter, nxt: BloomFilter) -> bool | None:
        """Merge the filters for the two epochs held, all or nothing: one
        of another shape raises ``IncompatibleFilters`` before any is kept
        (the codec decodes none).  None if neither is for a held epoch,
        else whether a bit was gained."""
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

    # -- epoch transition -------------------------------------------------

    @property
    def quarantined(self) -> bool:      # reported leaving epoch_now
        return None in self._reports

    def report(self, sender: str | None = None) -> bool | None:
        """Count this core's or a peer's report of leaving ``epoch_now``, once
        each, and rotate at N - f: None if it did not, else whether signing
        again gained a bit.  Any other id is ignored."""
        if sender is None or sender in self.peers:
            self._reports.add(sender)
        if None in self._reports and len(self._reports) >= len(self.peers) + 1 - self.fault_bound:
            return self._rotate()
        return None

    def _rotate(self) -> bool:
        """Discard epoch t, promote t+1, open an empty filter for t+2.

        Issuance counters of epoch t-1 go too: ``issue`` reads only the
        epochs from the new t-1 to the new t+1.  ``firsts`` drops epoch t
        with every public key kept for it, and ``signed`` the orders of
        t-1.  Only the new filter is written: the t+2 roots of each signed
        order of t+1 and the t+2 cover of each of t+2, with no signature
        check; whether that gained a bit."""
        self._reports.clear()
        self.epoch_now += 1
        self.issued = {key: end for key, end in self.issued.items()
                       if key[1] >= self.epoch_now - 1}
        self.firsts.pop(self.epoch_now - 1, None)
        self.signed = {order: None for order in self.signed
                       if order.epoch_id >= self.epoch_now - 1}
        self.erc_current = self.erc_next
        opened = self.erc_next = BloomFilter(self.params, self.epoch_now + 1)
        for order in self.signed:
            self.erc_next = self._written(order, self.erc_next)
        return self.erc_next is not opened


class PmNode:
    """Untrusted host shell around a ``TrustedCore``; one per manager.

    It answers pulls with one ``ErcPullResp`` per pair of the core's
    filters, kept until either is replaced: filters are never written in
    place, so the response still holds the bits it was built with."""

    def __init__(self, node_id: str, core: TrustedCore, rng: random.Random,
                 gossip_timeout: int):
        self.node_id = node_id
        self.core = core
        self.peers = core.peers
        self.fanout = min(core.fault_bound + 1, len(self.peers))   # peers per push or relay
        self.rng = rng
        self.gossip_timeout = gossip_timeout
        self._last_update: int | None = None     # when filters last arrived
        self._orders: dict[RevocationOrder, None] = {}   # orders taken, first seen first
        self._pull_resp: ErcPullResp | None = None       # the core's filters, as last pulled
        self.stats = {"pushes": 0, "pulls": 0, "forwards": 0}

    def deliver(self, sender: str, msg: Message, now: int) -> list[Outgoing]:
        """Route one message from ``sender`` at local time ``now``."""
        match msg:
            case ErcPush() | ErcPullResp() | EpochReport():
                gained = self.core.merge_filters(msg.current, msg.next)
                if gained is not None:
                    self._last_update = now
                if type(msg) is EpochReport:
                    return self.handle_epoch_report(sender, msg, now)
                if not gained:
                    return []
                out = self.eager_push()
                self.stats["forwards"] += len(out)
                return out
            case ErcPullReq():
                return self.handle_pull_request(sender)
            case RevocationOrder():
                return self.handle_revoke(sender, msg)
            case RequestRrp():
                return [Outgoing(sender, self.handle_request(msg))]
        return []

    # -- client-facing ----------------------------------------------------

    def handle_request(self, req: RequestRrp) -> RrpResponse:
        try:
            rrps = self.core.issue(req)
        except IssuanceDenied as denied:
            return RrpResponse(denied.reason, req.epoch_id)
        return RrpResponse(DenialReason.NONE, req.epoch_id,
                           tuple((r.instance, r.endorsement) for r in rrps))

    # -- revocation and gossip --------------------------------------------

    def handle_revoke(self, sender: str, order: RevocationOrder) -> list[Outgoing]:
        """Relay an admin order on first sight and sign its bits only on the
        admin's own copy.  A peer's copy, relayed or resent in a pull response,
        only expels; it never stands in for the admin's, so a spoofed sender
        can delay that work but not drop it.  A copy under another signature
        is a new order, checked afresh, and so is the admin's replay of an
        order the core no longer keeps: one signature check, no bit."""
        relayed = sender in self.peers
        if order in self._orders and (relayed or order in self.core.signed):
            return []
        before = self.core.erc_current, self.core.erc_next
        try:
            (self.core.expel if relayed else self.core.revoke)(order)
        except ValueError as exc:
            log.warning("%s: revocation order rejected: %s", self.node_id, exc)
            return []
        # Relay the admin-signed order itself, once: peers that never served
        # this client learn the expulsion, which outlives both filter epochs.
        relays = []
        if order not in self._orders:
            relays = [Outgoing(p, order) for p in self.rng.sample(self.peers, self.fanout)]
            self._orders[order] = None
        if relayed:
            return relays
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
        core, resp = self.core, self._pull_resp
        if resp is None or resp.current is not core.erc_current \
                or resp.next is not core.erc_next:
            resp = self._pull_resp = ErcPullResp(core.erc_current, core.erc_next)
        out = [Outgoing(requester, resp)]
        if requester in self.peers:
            # peer managers also get the remembered orders so a recovering
            # node rebuilds its revoked-client set, not just its filter
            # bits; verifiers never do (orders name clients, filters don't)
            out += [Outgoing(requester, order) for order in self._orders]
        return out

    def on_tick(self, now: int) -> list[Outgoing]:
        """Report leaving a past epoch (``on_clock``), then pull unless
        filters arrived within the last ``gossip_timeout``."""
        out = self.on_clock(now)
        if self._last_update is not None and now - self._last_update < self.gossip_timeout:
            return out
        return out + self._pull()

    def _pull(self) -> list[Outgoing]:
        if not self.peers:
            return []
        self.stats["pulls"] += 1
        return [Outgoing(self.rng.choice(self.peers), PULL_REQUEST)]

    # -- epoch transition -------------------------------------------------

    def on_clock(self, now: int) -> list[Outgoing]:
        """Report leaving ``epoch_now`` once the local clock is past it."""
        if self.core.geometry.epoch_and_slot(now)[0] <= self.core.epoch_now:
            return []
        report = EpochReport(self.core.epoch_now, self.core.erc_current,
                             self.core.erc_next)
        return [Outgoing(p, report) for p in self.peers] + self._counted(self.core.report(), now)

    def handle_epoch_report(self, sender: str, report: EpochReport, now: int) -> list[Outgoing]:
        """Hand the core a peer's report of ``epoch_now``, or echo a peer that lags."""
        if report.from_epoch == self.core.epoch_now:       # the core ignores a non-peer
            return self._counted(self.core.report(sender), now)
        if (sender in self.peers and report.from_epoch < self.core.epoch_now
                and report.current.epoch_id == report.from_epoch):
            # the sender lags; an echo's newer filter is never echoed back
            return [Outgoing(sender, EpochReport(report.from_epoch, self.core.erc_current,
                                                 self.core.erc_next))]
        return []

    def _counted(self, gained: bool | None, now: int) -> list[Outgoing]:
        """After a rotation, push a gain and report the next epoch if due."""
        if gained is None:
            return []
        return (self.eager_push() if gained else []) + self.on_clock(now)
