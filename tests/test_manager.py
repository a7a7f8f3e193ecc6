import copy
import functools
import hashlib
import logging
import random
from collections import Counter
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    check_proof_by_verifying,
    create_ercset,
    merge_latchkeys,
    reference_issue,
    remove_redundant,
    remove_unsafe,
    sign_with_nonce,
)
from rangerevoke import codec, crypto, manager, pseudonym
from rangerevoke.crypto import KeyPair, det_sign, seed_from_parts, ver_sign
from rangerevoke.ercset import BloomFilter, FilterParams, IncompatibleFilters, is_revoked
from rangerevoke.manager import (
    IssuanceDenied,
    PmNode,
    TrustedCore,
    revocation_cover_ercset,
)
from rangerevoke.messages import (
    DenialReason,
    EpochReport,
    ErcPullReq,
    ErcPullResp,
    ErcPush,
    Outgoing,
    RequestRrp,
    RevocationOrder,
    RrpResponse,
)
from rangerevoke.pseudonym import (
    Latchkey,
    create_rrp,
    endorse,
    get_capability,
    pseudonym_keypair,
    verify_capability,
)
from rangerevoke.slot_tree import EpochConfig, NodeLabel, SlotRange, safe_cover

PARAMS = FilterParams(8192, 4)
GEOMETRY = EpochConfig(0, 60, 15, 2)


class Core(TrustedCore):
    """A ``TrustedCore`` that tests can move on by hand: ``rotate_epoch``
    hands it its own report, then each peer's until it rotates."""

    def rotate_epoch(self) -> None:
        for sender in (None, *self.peers):
            if self.report(sender) is not None:
                return


def make_core(pm_key, admin_key, cid, peers=(), f=0):
    core = Core(pm_key, admin_key.public, GEOMETRY, PARAMS, 8, peers, f)
    core.register(cid)
    return core


def signed_order(admin_key, cid, rts, epoch):
    payload = cid + rts.to_bytes(8, "big") + epoch.to_bytes(8, "big")
    return RevocationOrder(cid, rts, epoch, det_sign(admin_key, payload))


def proof_for(core, rrp, slot=0):
    return get_capability(rrp, slot, core.cfg_for(rrp.epoch_id))


# -- issuance ---------------------------------------------------------------

def test_first_request_needs_no_proof(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrps = core.issue(RequestRrp(cid, 0, 3))
    assert [r.instance for r in rrps] == [1, 2, 3]
    assert all(r.cid == cid for r in rrps)


def test_second_request_requires_proof(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrps = core.issue(RequestRrp(cid, 0, 2))
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 2))
    assert exc.value.reason is DenialReason.BAD_PROOF
    more = core.issue(RequestRrp(cid, 0, 2, proof_for(core, rrps[0]), 0))
    assert [r.instance for r in more] == [3, 4]


def test_unknown_client_denied(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(b"\x05" * 32, 0, 1))
    assert exc.value.reason is DenialReason.UNKNOWN_CLIENT


def test_budget_exhausted(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrps = core.issue(RequestRrp(cid, 0, 8))
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, proof_for(core, rrps[0]), 0))
    assert exc.value.reason is DenialReason.BUDGET_EXHAUSTED


def test_epoch_window(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    assert core.issue(RequestRrp(cid, 1, 1))[0].epoch_id == 1   # next is fine
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 2, 1))
    assert exc.value.reason is DenialReason.EPOCH_OUT_OF_WINDOW
    quarantined = make_core(pm_key, admin_key, cid, peers=["pm1"])
    assert quarantined.report() is None and quarantined.quarantined
    with pytest.raises(IssuanceDenied) as exc:
        quarantined.issue(RequestRrp(cid, 2, 1))
    assert exc.value.reason is DenialReason.QUARANTINE


def test_proof_must_belong_to_requesting_client(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    other_cid = b"\x09" * 32
    core.register(other_cid)
    core.issue(RequestRrp(cid, 0, 1))
    other_rrp = core.issue(RequestRrp(other_cid, 0, 1))[0]
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, proof_for(core, other_rrp), 0))
    assert exc.value.reason is DenialReason.BAD_PROOF


def test_proof_from_past_the_instance_budget_is_bad(pm_key, admin_key, cid):
    """A genuinely endorsed proof of instance I + 1 is not the client's: the
    key scan stops at I, so one bound past it would grant the request."""
    core = make_core(pm_key, admin_key, cid)
    core.issue(RequestRrp(cid, 0, 2))
    last = core.max_instances
    beyond = endorse(cid, 0, last + 1, pseudonym_keypair(cid, 0, last + 1), pm_key)
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, proof_for(core, beyond), 0))
    assert exc.value.reason is DenialReason.BAD_PROOF
    at_budget = endorse(cid, 0, last, pseudonym_keypair(cid, 0, last), pm_key)
    assert [r.instance for r in core.issue(
        RequestRrp(cid, 0, 1, proof_for(core, at_budget), 0))] == [3]


def test_revoked_proof_denied(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrp = core.issue(RequestRrp(cid, 0, 2))[0]
    core.revoke(signed_order(admin_key, cid, 0, 0))
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, proof_for(core, rrp), 0))
    assert exc.value.reason is DenialReason.REVOKED


def test_stale_epoch_proof_is_bad(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrp = core.issue(RequestRrp(cid, 0, 1))[0]
    proof = proof_for(core, rrp)
    core.rotate_epoch()   # epoch 0 filter is gone; the proof can't be vetted
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 1, 1, proof, 0))
    assert exc.value.reason is DenialReason.BAD_PROOF


def test_issuance_is_stateless_recoverable(pm_key, admin_key, cid):
    a = make_core(pm_key, admin_key, cid)
    b = make_core(pm_key, admin_key, cid)
    assert a.issue(RequestRrp(cid, 0, 4)) == b.issue(RequestRrp(cid, 0, 4))


# -- revocation -------------------------------------------------------------

def test_revoke_rejects_bad_signature(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 1, 0)
    forged = RevocationOrder(cid, 2, 0, order.admin_sig)
    with pytest.raises(ValueError):
        core.revoke(forged)


@pytest.mark.parametrize("offset, current, nxt", [
    (-2, None, None),
    (-1, "roots", None),
    (0, "cover", "roots"),
    (1, None, "cover"),
    (3, None, None),
], ids=["late-2", "late-1", "current", "early-1", "early-3"])
def test_an_order_writes_its_part_of_each_held_epoch(pm_key, admin_key, cid,
                                                       offset, current, nxt):
    """An order of epoch E = epoch_now + ``offset`` revokes [rts, T - 1] of
    E and all of E + 1: each held epoch's filter holds exactly the cover
    labels or the roots of every instance that this rule gives it, and the
    client is expelled whatever E is."""
    core = make_core(pm_key, admin_key, cid)
    for _ in range(2):
        core.rotate_epoch()
    order_epoch = core.epoch_now + offset
    core.revoke(signed_order(admin_key, cid, 1, order_epoch))
    assert cid in core.revoked
    for erc, part in ((core.erc_current, current), (core.erc_next, nxt)):
        e = erc.epoch_id
        labels = {"cover": [NodeLabel(e, 2, 1), NodeLabel(e, 1, 1)],   # [1, 3] of T = 4
                  "roots": [NodeLabel(e, 0, 0)], None: []}[part]
        expected = BloomFilter(PARAMS, e)
        for i in range(1, 9):
            for label in labels:
                expected.add(det_sign(pseudonym_keypair(cid, e, i), label.canonical_bytes))
        assert erc == expected, e
        assert any(erc.bits) is (part is not None), e


def test_revoke_hits_all_instances_from_rts(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrps = core.issue(RequestRrp(cid, 0, 8))
    core.revoke(signed_order(admin_key, cid, 2, 0))
    for rrp in rrps:
        for slot in range(4):
            cap = get_capability(rrp, slot, core.cfg_for(0))
            assert is_revoked(core.erc_current, cap) == (slot >= 2)
    # next epoch: revoked outright via the root latchkey
    nxt = create_rrp(cid, 1, 1, pm_key, 8)
    cap = get_capability(nxt, 0, core.cfg_for(1))
    assert is_revoked(core.erc_next, cap)


def test_revoke_is_idempotent(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 1, 0)
    core.revoke(order)
    current, nxt = core.erc_current, core.erc_next
    core.revoke(order)
    assert core.erc_current == current and core.erc_next == nxt


def test_rotation_drops_issuance_counters_no_request_reads(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    core.issue(RequestRrp(cid, 0, 2))
    core.rotate_epoch()
    assert core.issued == {(cid, 0): 2}    # epoch 0 is t-1: a request still reads it
    core.rotate_epoch()
    assert core.issued == {}


def test_rotate_epoch(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    core.revoke(signed_order(admin_key, cid, 0, 0))
    promoted = core.erc_next
    core.rotate_epoch()
    assert core.epoch_now == 1
    assert core.erc_current is promoted
    assert core.erc_next.epoch_id == 2 and not any(core.erc_next.bits)


def test_merge_filters_reports_change(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    cfg = core.cfg_for(0)
    incoming = revocation_cover_ercset(pseudonym_keypair(cid, 0, 1), 0,
                                       safe_cover(cfg, SlotRange(1, 3)), PARAMS)
    assert core.merge_filters(incoming, BloomFilter(PARAMS, 1)) is True
    assert core.merge_filters(incoming, BloomFilter(PARAMS, 1)) is False   # redundant


def test_merge_filters_takes_both_or_neither(pm_key, admin_key, cid):
    """A gainful filter beside one of another shape is not kept: the
    second raises before the first is stored.  No decoded message holds
    such a pair; only a direct caller can hand one over."""
    core = make_core(pm_key, admin_key, cid)
    gainful = revocation_cover_ercset(pseudonym_keypair(cid, 0, 1), 0, {NodeLabel(0, 0, 0)},
                                      PARAMS)
    held = core.erc_current, core.erc_next
    with pytest.raises(IncompatibleFilters):
        core.merge_filters(gainful, BloomFilter(FilterParams(4096, 4), 1))
    assert core.erc_current is held[0] and core.erc_next is held[1]
    assert not any(core.erc_current.bits)


def test_helper_filters(pm_key, cid):
    cfg = GEOMETRY.with_epoch(1)
    root = revocation_cover_ercset(pseudonym_keypair(cid, 1, 1), 1, {NodeLabel(1, 0, 0)},
                                   PARAMS)
    for slot in range(cfg.slots):
        assert is_revoked(root, get_capability(create_rrp(cid, 1, 1, pm_key, 8), slot, cfg))
        assert not is_revoked(root, get_capability(create_rrp(cid, 1, 2, pm_key, 8), slot, cfg))


# -- node shell -------------------------------------------------------------

def make_node(pm_key, admin_key, cid, node_id="pm0", n=4, f=1, seed=1, timeout=5):
    peers = [f"pm{i}" for i in range(n) if f"pm{i}" != node_id]
    return PmNode(node_id, make_core(pm_key, admin_key, cid, peers, f), random.Random(seed),
                  timeout)


def test_deliver_takes_every_wire_message(pm_key, admin_key, cid, wire_messages):
    """No decoded message makes a manager raise, from any sender, serving
    or in quarantine: each is answered with a list of ``Outgoing``."""
    for now in (1, 61):
        node = make_node(pm_key, admin_key, cid)
        node.on_clock(now)
        assert node.core.quarantined is (now == 61)
        for sender in ("pm1", "v0", "client0"):
            for label, msg in wire_messages:
                out = node.deliver(sender, msg, now)
                assert isinstance(out, list), label
                assert all(isinstance(o, Outgoing) for o in out), label


def test_deliver_answers_a_request_to_its_sender(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    [out] = node.deliver("client0", RequestRrp(cid, 0, 2), now=1)
    assert out.dst == "client0" and out.msg.granted and len(out.msg.endorsements) == 2


@pytest.mark.parametrize("kind", ["push", "pull-response", "report"])
def test_gossip_timer_pulls_only_after_a_quiet_timeout(pm_key, admin_key, cid,
                                                      wire_messages, kind):
    node = make_node(pm_key, admin_key, cid, timeout=5)
    node.deliver("pm1", dict(wire_messages)[kind], now=40)
    assert node.on_tick(44) == []
    out = node.on_tick(45)
    assert [type(o.msg) for o in out] == [ErcPullReq] and out[0].dst in node.peers
    assert node.stats["pulls"] == 1


def other_plan_message(kind, cid):
    """The ``kind``-incompatible message: a push, pull response or report
    whose filters are 4096-bit, or a push whose first filter is a gainful
    one of ``PARAMS`` and whose second is 4096-bit."""
    other = BloomFilter(FilterParams(4096, 4), 0), BloomFilter(FilterParams(4096, 4), 1)
    gainful = revocation_cover_ercset(pseudonym_keypair(cid, 0, 1), 0, {NodeLabel(0, 0, 0)},
                                      PARAMS)
    return {"push-incompatible": ErcPush(*other),
            "push-half-incompatible": ErcPush(gainful, other[1]),
            "pull-response-incompatible": ErcPullResp(*other),
            "report-incompatible": EpochReport(0, *other)}[kind]


@pytest.mark.parametrize("kind", ["push-incompatible", "pull-response-incompatible",
                                  "report-incompatible", "push-half-incompatible",
                                  "push-far-epoch", "pull-response-far-epoch",
                                  "report-future"])
def test_dropped_filters_do_not_postpone_the_pull(pm_key, admin_key, cid, wire_messages,
                                                  kind, caplog):
    """Filters for no epoch the node holds are no update, and no warning:
    a pull still goes out within ``gossip_timeout`` of them.  Filters of
    another plan are dropped before the node: their bytes do not decode
    under the node's plan, so nothing reaches ``deliver``."""
    node = make_node(pm_key, admin_key, cid, timeout=5)
    with caplog.at_level(logging.WARNING, logger="rangerevoke"):
        if kind.endswith("incompatible"):
            blob = codec.encode_message(other_plan_message(kind, cid))
            with pytest.raises((codec.Truncated, codec.TrailingBytes)):
                codec.decode_message(blob, PARAMS)
        else:
            assert node.deliver("pm1", dict(wire_messages)[kind], now=40) == []
    assert caplog.records == []
    out = node.on_tick(44)
    assert [type(o.msg) for o in out] == [ErcPullReq]


def node_trace(node):
    """Everything of a manager that a message could change."""
    core = node.core
    return (core.epoch_now, core.quarantined, node._last_update,
            [(erc.epoch_id, hashlib.sha256(erc.bits).hexdigest())
             for erc in (core.erc_current, core.erc_next)],
            set(core._reports), set(core.revoked),
            list(node._orders), list(core.signed), dict(core.issued), dict(node.stats))


def test_refused_messages_leave_no_trace(pm_key, admin_key, cid, wire_messages,
                                         hostile_messages):
    """A hostile message changes no filter bit, no pull deadline, quorum,
    order, issuance or counter of a manager, serving or in quarantine,
    and draws nothing but a denial to its sender."""
    assert "push-far-epoch" in dict(hostile_messages)
    for now in (1, 61):
        node = make_node(pm_key, admin_key, cid)
        # the client holds pseudonyms, so a later request needs a proof
        assert node.deliver("client0", dict(wire_messages)["request"], now)[0].msg.granted
        node.on_clock(now)
        for label, msg in hostile_messages:
            before = node_trace(node)
            out = node.deliver("pm1", msg, now)
            assert node_trace(node) == before, label
            assert all(o.dst == "pm1" and isinstance(o.msg, RrpResponse)
                       and not o.msg.granted for o in out), label


def test_reports_far_ahead_keep_no_senders(pm_key, admin_key, cid):
    """Only a report of the current epoch counts: reports naming any other
    epoch, the next one included, still merge their filters, but their
    senders are not kept."""
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    other = make_node(pm_key, admin_key, cid, node_id="pm1")
    other.handle_revoke("admin", signed_order(admin_key, cid, 1, 0))
    for from_epoch in range(1, 1002):
        node.deliver("pm1", EpochReport(from_epoch, other.core.erc_current,
                                        other.core.erc_next), now=1)
    assert node.core.erc_current == other.core.erc_current     # merged all the same
    assert node.core._reports == set()
    node.deliver("pm1", EpochReport(0, other.core.erc_current, other.core.erc_next), now=1)
    assert node.core._reports == {"pm1"}


def test_handle_request_response(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    resp = node.handle_request(RequestRrp(cid, 0, 2))
    assert resp.granted and len(resp.endorsements) == 2
    resp = node.handle_request(RequestRrp(b"\x06" * 32, 0, 1))
    assert not resp.granted and resp.reason is DenialReason.UNKNOWN_CLIENT


def test_short_client_id_is_refused(pm_key, admin_key, cid):
    # a client id must be 32 bytes when it is registered; a request naming
    # a shorter one is answered as an unknown client, not with an exception
    node = make_node(pm_key, admin_key, cid)
    short = cid[:31]
    with pytest.raises(ValueError, match="32 bytes"):
        node.core.register(short)
    resp = node.handle_request(RequestRrp(short, 0, 1))
    assert not resp.granted and resp.reason is DenialReason.UNKNOWN_CLIENT


def test_eager_push_fanout(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, f=1)
    order = signed_order(admin_key, cid, 1, 0)
    out = node.handle_revoke("admin", order)
    pushes = [o for o in out if not isinstance(o.msg, RevocationOrder)]
    relays = [o for o in out if isinstance(o.msg, RevocationOrder)]
    assert len({o.dst for o in pushes}) == 2   # filters to f + 1 distinct peers
    assert len({o.dst for o in relays}) == 2   # the order itself travels too
    assert all(o.dst != "pm0" for o in out)
    assert node.handle_revoke("admin", order) == []     # replay: nothing new to say


def test_stale_epoch_order_still_expels(pm_key, admin_key, cid, caplog):
    """An order one epoch late writes the roots of the epoch after its own
    and pushes them; one two epochs late writes nothing and is only
    relayed.  Neither is abnormal, so neither logs."""
    node = make_node(pm_key, admin_key, cid)
    node.core.rotate_epoch()
    with caplog.at_level(logging.DEBUG, logger="rangerevoke.manager"):
        out = node.handle_revoke("admin", signed_order(admin_key, cid, 1, 0))
        assert {type(o.msg) for o in out} == {ErcPush, RevocationOrder}
        assert any(node.core.erc_current.bits)
        node.core.rotate_epoch()
        out = node.handle_revoke("admin", signed_order(admin_key, cid, 2, 0))
        assert out and all(isinstance(o.msg, RevocationOrder) for o in out)
    assert not caplog.records
    resp = node.handle_request(RequestRrp(cid, 2, 1))
    assert not resp.granted and resp.reason is DenialReason.REVOKED


def test_future_epoch_order_expels_and_is_relayed(pm_key, admin_key, cid, caplog):
    """An order one epoch early writes its cover into the next epoch's
    filter and pushes it, silently; one two epochs ahead writes no bit, is
    relayed and draws the one warning."""
    node = make_node(pm_key, admin_key, cid)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        out = node.handle_revoke("admin", signed_order(admin_key, cid, 1, 1))
    assert not caplog.records
    assert {type(o.msg) for o in out} == {ErcPush, RevocationOrder}
    assert any(node.core.erc_next.bits)
    node = make_node(pm_key, admin_key, cid)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        out = node.handle_revoke("admin", signed_order(admin_key, cid, 1, 2))
    assert out and all(isinstance(o.msg, RevocationOrder) for o in out)  # no filter push
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "filters unchanged" in caplog.text
    assert not any(node.core.erc_current.bits)
    assert not any(node.core.erc_next.bits)
    assert cid in node.core.revoked


def test_an_order_whose_bits_a_push_brought_is_only_relayed(pm_key, admin_key, cid):
    """A manager whose filters already hold an order's bits, pushed by the
    peer that applied the order first, gains nothing from the order and
    answers it with relays alone."""
    order = signed_order(admin_key, cid, 1, 0)
    entry = make_node(pm_key, admin_key, cid)
    push = next(o.msg for o in entry.handle_revoke("admin", order)
                if isinstance(o.msg, ErcPush))
    node = make_node(pm_key, admin_key, cid, node_id="pm1")
    assert node.deliver("pm0", push, 0)                 # the push gained bits
    out = node.handle_revoke("admin", order)
    assert len(out) == 2 and all(o.msg is order for o in out)
    assert cid in node.core.revoked


def count_ed25519(monkeypatch) -> Counter:
    """Count ``det_keygen``, ``det_sign`` and ``ver_sign`` calls made
    through the manager and pseudonym modules from now on."""
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.update([name]) or original(*args))
    counted(manager, "det_sign")
    counted(manager, "ver_sign")
    counted(pseudonym, "det_keygen")
    return calls


@pytest.mark.parametrize("via", ["relay", "pull-response"])
def test_a_peer_relay_expels_and_relays_without_signing(pm_key, admin_key, cid,
                                                        monkeypatch, via):
    """An order from a peer, relayed or resent in a pull response, costs
    one admin-signature check and no key or filter signature: it expels
    its client and is relayed to f + 1 peers, and no filter bit changes."""
    order = signed_order(admin_key, cid, 1, 0)
    entry = make_node(pm_key, admin_key, cid)
    entry.deliver("admin", order, 0)
    [resent] = [o.msg for o in entry.handle_pull_request("pm1")
                if isinstance(o.msg, RevocationOrder)]
    node = make_node(pm_key, admin_key, cid, node_id="pm1")
    before = node.core.erc_current, node.core.erc_next
    calls = count_ed25519(monkeypatch)
    out = node.deliver("pm0", order if via == "relay" else resent, 1)
    assert calls == {"ver_sign": 1}
    assert node.core.erc_current is before[0] and node.core.erc_next is before[1]
    assert cid in node.core.revoked
    assert all(isinstance(o.msg, RevocationOrder) for o in out)   # no ErcPush
    assert len({o.dst for o in out}) == 2 and "pm1" not in {o.dst for o in out}
    assert node.stats["pushes"] == 0
    assert node.deliver("pm2", order, 1) == []          # a second relay: nothing to do


def test_a_relay_with_a_bad_signature_expels_nobody(pm_key, admin_key, cid, caplog):
    node = make_node(pm_key, admin_key, cid, node_id="pm1")
    forged = RevocationOrder(cid, 2, 0, signed_order(admin_key, cid, 1, 0).admin_sig)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        assert node.deliver("pm0", forged, 1) == []
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "bad signature" in caplog.text
    assert cid not in node.core.revoked and not node._orders


def test_a_relay_of_an_order_this_node_signed_costs_nothing(pm_key, admin_key, cid,
                                                            monkeypatch):
    node = make_node(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 1, 0)
    node.deliver("admin", order, 1)
    calls = count_ed25519(monkeypatch)
    assert node.deliver("pm1", order, 2) == []
    assert not calls                       # not even an admin-signature check
    assert list(node._orders) == list(node.core.signed) == [order]


@pytest.mark.parametrize("first", ["admin", "pm2"])
def test_a_forged_relay_of_a_known_order_is_refused(pm_key, admin_key, cid, caplog, first):
    """A relay is known by its whole signed order: a copy of a taken order
    under another signature is checked like a new one, refused with one
    warning, and kept out of the table."""
    node = make_node(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 1, 0)
    node.deliver(first, order, 1)
    forged = replace(order, admin_sig=signed_order(admin_key, cid, 2, 0).admin_sig)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        assert node.deliver("pm1", forged, 2) == []
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "bad signature" in caplog.text
    assert list(node._orders) == [order]
    assert list(node.core.signed) == ([order] if first == "admin" else [])


def test_pull_responses_list_orders_in_first_seen_order(pm_key, admin_key, cid):
    """Orders are resent in the order the node first took them, whoever
    sent them; an admin copy taken after its relay keeps the relay's
    place."""
    node = make_node(pm_key, admin_key, cid)
    orders = [signed_order(admin_key, cid, rts, 0) for rts in (3, 1, 2)]
    node.deliver("pm1", orders[0], 1)
    node.deliver("admin", orders[1], 1)
    node.deliver("admin", orders[0], 2)
    node.deliver("pm3", orders[2], 2)
    resent = [o.msg for o in node.handle_pull_request("pm2")
              if isinstance(o.msg, RevocationOrder)]
    assert resent == orders
    assert [order in node.core.signed for order in node._orders] == [True, True, False]


def test_the_admins_copy_after_a_relay_is_applied_in_full(pm_key, admin_key, cid):
    """A relay seen first does not stand in for the admin's own copy: that
    copy still writes every bit a fresh core's ``revoke`` writes and
    pushes them, without relaying the order a second time."""
    order = signed_order(admin_key, cid, 1, 0)
    node = make_node(pm_key, admin_key, cid, node_id="pm1")
    relays = node.deliver("pm0", order, 1)
    out = node.deliver("admin", order, 2)
    assert [type(o.msg) for o in out] == [ErcPush, ErcPush]
    assert not {o.dst for o in out} & {"pm1"}
    fresh = make_core(pm_key, admin_key, cid)
    fresh.revoke(order)
    assert (node.core.erc_current, node.core.erc_next) == (fresh.erc_current,
                                                           fresh.erc_next)
    assert node.stats["pushes"] == 2 and len(relays) == 2
    assert node.deliver("admin", order, 3) == []         # the admin's replay


def test_an_order_taken_before_its_epoch_is_signed_again_on_entering_it(
        pm_key, admin_key, cid, monkeypatch):
    """A core in epoch 0 that signs an epoch-1 order holds no epoch 2, so
    it writes the epoch-1 cover alone.  Rotating into epoch 1 writes the
    epoch-2 roots into the filter it opens, with no signature check: its
    filters then equal those of a fresh epoch-1 core that took both orders,
    and it pushes them.  The epoch-0 order writes nothing more."""
    node = make_node(pm_key, admin_key, cid)
    orders = signed_order(admin_key, cid, 1, 0), signed_order(admin_key, cid, 1, 1)
    for order in orders:
        node.deliver("admin", order, 1)
    node.on_clock(61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 61)
    calls = count_ed25519(monkeypatch)
    out = node.deliver("pm2", report, 61)
    assert node.core.epoch_now == 1
    assert len({o.dst for o in out if isinstance(o.msg, ErcPush)}) == 2
    assert calls["ver_sign"] == 0
    fresh = make_core(pm_key, admin_key, cid)
    fresh.rotate_epoch()
    for order in orders:
        fresh.revoke(order)
    assert (node.core.erc_current, node.core.erc_next) == (fresh.erc_current,
                                                           fresh.erc_next)


def test_a_rotation_signs_only_the_roots_of_the_epoch_it_opens(pm_key, admin_key, cid,
                                                              monkeypatch):
    """An epoch-1 order taken in epoch 0 wrote its cover then: rotating into
    epoch 1 makes the I epoch-2 root signatures alone, with no admin
    signature check and no cover signed again, and gains them."""
    core = make_core(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 1, 1)
    core.revoke(order)
    calls, seeds = count_crypto(monkeypatch)
    core.report()                                      # a lone core rotates on its own report
    assert core.epoch_now == 1
    assert calls == Counter(det_keygen=core.max_instances, det_sign=core.max_instances)
    assert seeds == [seed_from_parts(cid, 2, i) for i in range(1, core.max_instances + 1)]
    fresh = make_core(pm_key, admin_key, cid)
    fresh.rotate_epoch()
    fresh.revoke(order)
    assert (core.erc_current, core.erc_next) == (fresh.erc_current, fresh.erc_next)


def test_an_early_orders_cover_is_in_the_filter_that_opens_its_epoch(pm_key, admin_key, cid):
    """An epoch-2 order taken in epoch 0 writes nothing then.  The rotation
    into epoch 1 opens the epoch-2 filter and writes the cover into it,
    which verifiers promote at the boundary; the next writes the epoch-3
    roots.  After each, the filters equal those of a core that took the
    order in that epoch."""
    core = make_core(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 2, 2)
    core.revoke(order)
    assert not core.erc_current.bits.strip(b"\0") and not core.erc_next.bits.strip(b"\0")
    for epoch in (1, 2):
        assert core.report() is True
        fresh = make_core(pm_key, admin_key, cid)
        while fresh.epoch_now < epoch:
            fresh.rotate_epoch()
        fresh.revoke(order)
        assert (core.erc_current, core.erc_next) == (fresh.erc_current, fresh.erc_next), epoch
    assert core.erc_current.query(det_sign(pseudonym_keypair(cid, 2, 1),
                                           NodeLabel(2, 1, 1).canonical_bytes))


def test_a_core_keeps_no_order_that_can_write_no_bit(pm_key, admin_key):
    """A lone core signs 5 orders in each of epochs 0-5 and rotates after
    each.  After every call it holds no order of an epoch before
    ``epoch_now`` - 1, so at epoch 6 it holds epoch 5's five, and its live
    filters are byte-equal to those of a core handed every order again
    before each rotation.  An order of a pruned epoch taken late is not
    kept either."""
    cids = [seed_from_parts(b"pruned-client", j) for j in range(5)]
    core, keeper = make_core(pm_key, admin_key, cids[0]), make_core(pm_key, admin_key, cids[0])
    taken = []

    def oldest_kept() -> int:
        return min(order.epoch_id for order in core.signed)

    for epoch in range(6):
        for j, client in enumerate(cids):
            order = signed_order(admin_key, client, j % GEOMETRY.slots, epoch)
            core.revoke(order)
            keeper.revoke(order)
            taken.append(order)
            assert oldest_kept() >= core.epoch_now - 1
        keeper.signed = dict.fromkeys(taken)
        core.rotate_epoch()
        keeper.rotate_epoch()
        assert oldest_kept() >= core.epoch_now - 1
        assert [(flt.epoch_id, flt.bits) for flt in (core.erc_current, core.erc_next)] == \
            [(flt.epoch_id, flt.bits) for flt in (keeper.erc_current, keeper.erc_next)], epoch
    assert core.epoch_now == 6 and list(core.signed) == taken[-5:]
    core.revoke(taken[0])
    assert list(core.signed) == taken[-5:] and cids[0] in core.revoked


def test_an_admin_replay_of_a_pruned_order_costs_one_signature_check(pm_key, admin_key, cid,
                                                                      monkeypatch):
    """Once its core dropped an order two epochs old, the admin's replay of
    it is checked again, writes no bit and is neither pushed nor relayed."""
    node = make_node(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 1, 0)
    node.deliver("admin", order, 1)
    node.core.rotate_epoch()
    node.core.rotate_epoch()
    assert order not in node.core.signed and order in node._orders
    before = node.core.erc_current, node.core.erc_next
    calls = count_ed25519(monkeypatch)
    assert node.deliver("admin", order, 130) == []
    assert calls == Counter(ver_sign=1)
    assert (node.core.erc_current, node.core.erc_next) == before
    assert order not in node.core.signed and node.stats["pushes"] == 2


def test_a_future_epoch_relay_logs_nothing(pm_key, admin_key, cid, caplog):
    """Only a manager that signs an order warns that it left the filters
    unchanged; a relay recipient signs nothing, so a relay for a far
    epoch is expelled on and relayed in silence."""
    node = make_node(pm_key, admin_key, cid, node_id="pm1")
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        out = node.deliver("pm0", signed_order(admin_key, cid, 1, 2), 1)
    assert not caplog.records
    assert len(out) == 2 and all(isinstance(o.msg, RevocationOrder) for o in out)
    assert cid in node.core.revoked


@pytest.mark.parametrize("epoch, rotations, forged", [
    (0, 0, False),    # current epoch: applied to the filters and pushed
    (0, 1, False),    # past epoch: next epoch's roots written, pushed and relayed
    (3, 0, False),    # far future epoch: recorded and relayed
    (0, 0, True),     # bad signature: dropped
], ids=["current", "past", "future", "forged"])
def test_one_admin_signature_check_per_order(pm_key, admin_key, cid, monkeypatch,
                                             epoch, rotations, forged):
    original, checks = manager.ver_sign, []
    monkeypatch.setattr(manager, "ver_sign",
                        lambda *args: checks.append(args) or original(*args))
    node = make_node(pm_key, admin_key, cid)
    for _ in range(rotations):
        node.core.rotate_epoch()
    order = signed_order(admin_key, cid, 1, epoch)
    if forged:
        order = RevocationOrder(cid, 2, epoch, order.admin_sig)
    assert bool(node.handle_revoke("admin", order)) is not forged
    assert len(checks) == 1
    assert (cid in node.core.revoked) is not forged


def test_pull_response_carries_orders_to_peers_only(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    node.handle_revoke("admin", signed_order(admin_key, cid, 1, 0))
    to_peer = node.handle_pull_request("pm2")
    assert any(isinstance(o.msg, RevocationOrder) for o in to_peer)
    to_verifier = node.handle_pull_request("v0")
    assert not any(isinstance(o.msg, RevocationOrder) for o in to_verifier)


def test_filter_only_knowledge_still_denies_issuance(pm_key, admin_key, cid):
    # a manager that merged gossiped filters but never saw the order itself
    witness = make_core(pm_key, admin_key, cid)
    witness.revoke(signed_order(admin_key, cid, 2, 0))
    bystander = make_core(pm_key, admin_key, cid)
    assert bystander.merge_filters(witness.erc_current, witness.erc_next)
    with pytest.raises(IssuanceDenied) as exc:
        bystander.issue(RequestRrp(cid, 1, 1))   # next-epoch shopping
    assert exc.value.reason is DenialReason.REVOKED
    bystander.rotate_epoch()
    with pytest.raises(IssuanceDenied) as exc:
        bystander.issue(RequestRrp(cid, 2, 1))   # epoch-t+2 shopping
    assert exc.value.reason is DenialReason.REVOKED


def test_bad_order_not_gossiped(pm_key, admin_key, cid, caplog):
    node = make_node(pm_key, admin_key, cid)
    order = signed_order(admin_key, cid, 1, 0)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        assert node.handle_revoke("admin", RevocationOrder(cid, 0, 0, order.admin_sig)) == []
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "bad signature" in caplog.text


@pytest.mark.parametrize("epoch", [0, 1, 3], ids=["current", "next", "future"])
@pytest.mark.parametrize("rts", [4, 2**64 - 1])      # T = 4 in every epoch
def test_order_outside_the_epoch_is_refused_whole(pm_key, admin_key, cid, caplog,
                                                  rts, epoch):
    node = make_node(pm_key, admin_key, cid)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        assert node.handle_revoke("admin", signed_order(admin_key, cid, rts, epoch)) == []
    assert f"rts {rts} outside the epoch" in caplog.text
    assert cid not in node.core.revoked and not node._orders
    assert not any(node.core.erc_current.bits)
    assert not any(node.core.erc_next.bits)
    assert node.handle_request(RequestRrp(cid, 0, 1)).granted


def test_redundant_gossip_not_forwarded(pm_key, admin_key, cid):
    a = make_node(pm_key, admin_key, cid, node_id="pm0")
    b = make_node(pm_key, admin_key, cid, node_id="pm1")
    a.handle_revoke("admin", signed_order(admin_key, cid, 1, 0))
    forwarded = b.deliver("pm0", ErcPush(a.core.erc_current, a.core.erc_next), 1)
    assert len(forwarded) == 2
    assert b.deliver("pm0", ErcPush(a.core.erc_current, a.core.erc_next), 1) == []


def test_pull_request_response(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    out = node.handle_pull_request("v0")
    assert len(out) == 1 and out[0].dst == "v0"
    assert out[0].msg.current is node.core.erc_current


def test_one_pull_response_per_pair_of_filters(pm_key, admin_key, cid):
    """Pulls get the same ``ErcPullResp`` while the core's two filters are
    the same objects; a revoke or a merge that gains bits, or a rotation,
    gets the next pull a new one with the core's new filters."""
    node = make_node(pm_key, admin_key, cid)
    core = node.core

    def pulled(requester="v0"):
        resp = node.handle_pull_request(requester)[0].msg
        assert resp.current is core.erc_current and resp.next is core.erc_next
        return resp

    first = pulled()
    assert pulled("pm1") is first
    assert node.deliver("pm1", ErcPush(core.erc_current, core.erc_next), 1) == []
    assert core.merge_filters(first.current, first.next) is False
    assert pulled() is first

    node.deliver("admin", signed_order(admin_key, cid, 1, 0), 2)
    revoked = pulled()
    assert revoked is not first and pulled() is revoked
    assert revoked.current.bits != first.current.bits
    assert revoked.next.bits != first.next.bits

    # a merge that gains bits in the current filter alone, then in the next alone
    root = revocation_cover_ercset(pseudonym_keypair(cid, 0, 1), 0, {NodeLabel(0, 0, 0)},
                                   PARAMS)
    assert core.merge_filters(root, core.erc_next) is True
    gained_current = pulled()
    assert gained_current is not revoked and pulled() is gained_current
    assert gained_current.current.bits != revoked.current.bits
    assert gained_current.next is revoked.next
    half = revocation_cover_ercset(pseudonym_keypair(cid, 1, 1), 1, {NodeLabel(1, 1, 0)},
                                   PARAMS)
    assert core.merge_filters(core.erc_current, half) is True
    merged = pulled()
    assert merged is not gained_current and pulled() is merged
    assert merged.current is gained_current.current
    assert merged.next.bits != gained_current.next.bits

    core.rotate_epoch()
    rotated = pulled()
    assert rotated is not merged and pulled() is rotated
    assert rotated.current is merged.next
    assert (rotated.current.epoch_id, rotated.next.epoch_id) == (1, 2)


def test_gossip_timeout_pulls_one_peer(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    out = node.on_tick(now=0)           # no filters have ever arrived
    assert len(out) == 1 and out[0].dst != "pm0"


def test_quarantine_quorum(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    out = node.on_clock(now=61)
    assert node.core.quarantined
    assert len(out) == 3                       # report to every peer
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 61)
    assert node.core.quarantined               # 2 of 3 needed reports
    node.deliver("pm2", report, 61)
    assert not node.core.quarantined           # self + 2 peers = N - f
    assert node.core.epoch_now == 1


def test_quarantine_ignores_duplicate_reports(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 61)
    node.deliver("pm1", report, 61)
    assert node.core.quarantined


def test_reports_of_a_past_epoch_are_echoed_not_kept(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 61)
    node.deliver("pm2", report, 61)
    assert node.core.epoch_now == 1
    out = node.deliver("pm3", report, 61)       # after the quorum
    assert [(o.dst, o.msg.from_epoch) for o in out] == [("pm3", 0)]
    assert node.core._reports == set()


def test_laggard_gets_echo(pm_key, admin_key, cid):
    ahead = make_node(pm_key, admin_key, cid, node_id="pm1")
    ahead.core.rotate_epoch()                  # already in epoch 1
    behind_report = EpochReport(0, BloomFilter(PARAMS, 0), BloomFilter(PARAMS, 1))
    out = ahead.deliver("pm3", behind_report, 61)
    assert [o.dst for o in out] == ["pm3"]
    echo = out[0].msg
    assert echo.from_epoch == 0 and echo.current.epoch_id == 1
    # echoes themselves are never echoed back
    assert ahead.deliver("pm2", echo, 61) == []


def test_the_report_that_completes_a_quorum_draws_no_echo(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    assert node.deliver("pm1", report, 61) == []
    assert node.deliver("pm2", report, 61) == []    # rotates, answers nothing
    assert node.core.epoch_now == 1 and not node.core.quarantined


def test_only_a_peers_report_counts_or_draws_an_echo(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    for sender in ("v0", "client0", "admin", "pm0"):
        assert node.deliver(sender, report, 61) == []
    assert node.core._reports == {None} and node.core.epoch_now == 0
    node.deliver("pm1", report, 61)
    node.deliver("pm2", report, 61)
    assert node.core.epoch_now == 1
    assert node.deliver("v0", report, 61) == []         # a laggard's, but no peer's


def test_rotation_follows_the_clock(pm_key, admin_key, cid):
    """A manager whose clock is already past the next boundary when it
    rotates goes back into quarantine at once, reporting its new epoch."""
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=121)                      # down across two boundaries
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 121)
    out = node.deliver("pm2", report, 121)
    assert node.core.epoch_now == 1 and node.core.quarantined
    assert [(o.dst, o.msg.from_epoch) for o in out] == [("pm1", 1), ("pm2", 1), ("pm3", 1)]
    assert node.core._reports == {None}


def test_a_quarantined_manager_reports_again_on_each_gossip_tick(pm_key, admin_key, cid):
    """A report lost to a crash, or dropped by a peer still in the epoch
    before, is sent again: peers past the epoch then echo it."""
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    assert [type(o.msg) for o in node.on_tick(5)] == [ErcPullReq]
    node.on_clock(now=61)
    node.deliver("pm1", EpochReport(0, node.core.erc_current, node.core.erc_next), 61)
    out = node.on_tick(65)
    assert [(o.dst, o.msg.from_epoch) for o in out
            if isinstance(o.msg, EpochReport)] == [("pm1", 0), ("pm2", 0), ("pm3", 0)]
    node.deliver("pm2", EpochReport(0, node.core.erc_current, node.core.erc_next), 66)
    assert not any(isinstance(o.msg, EpochReport) for o in node.on_tick(70))


def test_quarantine_denies_two_epochs_ahead(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    resp = node.handle_request(RequestRrp(cid, 2, 1))
    assert not resp.granted and resp.reason is DenialReason.QUARANTINE


# -- the core's epoch transition against its host ------------------------------

def test_the_core_counts_its_own_report_and_distinct_peers(pm_key, admin_key, cid):
    """N = 4, f = 1: the core enters the next epoch once it and two distinct
    peers reported, in any order.  A repeated peer, an id that is no peer's
    (its own included) and its peers' reports alone do not move it."""
    core = make_core(pm_key, admin_key, cid, ["pm1", "pm2", "pm3"], 1)
    for sender in ("pm1", "pm1", "pm0", "v0", "admin"):
        assert core.report(sender) is None
    assert core._reports == {"pm1"} and not core.quarantined
    assert core.report("pm2") is None               # N - f peers, but not itself
    assert core.report() is False                   # rotates: nothing to sign again
    assert core.epoch_now == 1 and core._reports == set() and not core.quarantined
    for sender in (None, "pm3", "pm3", None, "pm9"):
        assert core.report(sender) is None
    assert core.quarantined and core.epoch_now == 1
    assert core.report("pm1") is False and core.epoch_now == 2


HOST_SENDERS = (None, "pm0", "pm1", "pm2", "pm3", "v0")
_EPOCHS = st.integers(0, 4)
_ORDERS = st.tuples(st.integers(0, GEOMETRY.slots - 1), _EPOCHS)      # (rts, epoch)
# a few arguments per public method, drawn bare and built in the test (orders
# are signed there); a public method this test does not know gets none
HOST_ARGS = {"report": st.tuples(st.sampled_from(HOST_SENDERS)),
             "issue": st.tuples(_EPOCHS, st.integers(1, 2)), "revoke": _ORDERS,
             "expel": _ORDERS, "merge_filters": st.tuples(_EPOCHS),
             "register": st.just(()), "erc_for": st.tuples(_EPOCHS),
             "cfg_for": st.tuples(_EPOCHS)}
HOST_CALLS = st.sampled_from(sorted(
    name for name, value in vars(TrustedCore).items()
    if callable(value) and not name.startswith("_"))).flatmap(
        lambda name: HOST_ARGS.get(name, st.just(())).map(lambda args: (name, args)))


@functools.cache
def written_latchkeys(order: RevocationOrder, epoch_id: int, instances: int) -> tuple:
    """The latchkeys ``revoke`` writes for ``order`` into a filter of
    ``epoch_id``, derived afresh: each instance's cover of [rts, T - 1] in
    the order's epoch, its root in the next, nothing in any other."""
    cfg = GEOMETRY.with_epoch(epoch_id)
    if epoch_id == order.epoch_id:
        cover = safe_cover(cfg, SlotRange(order.rts, cfg.slots - 1))
    elif epoch_id == order.epoch_id + 1:
        cover = {NodeLabel(epoch_id, 0, 0)}
    else:
        return ()
    return tuple(det_sign(pseudonym_keypair(order.cid, epoch_id, i), label.canonical_bytes)
                 for i in range(1, instances + 1) for label in cover)


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(HOST_CALLS, min_size=1, max_size=25))
@example(calls=[("revoke", (2, 2)), ("report", (None,)), ("report", ("pm1",)),
                ("report", ("pm3",)), ("report", ("pm2",))])
def test_a_malicious_host_cannot_rotate_the_core_without_a_quorum(pm_key, admin_key, cid,
                                                                  calls):
    """A host calls the core's public methods in any order, each with one
    of a few arguments.  After every call: the core's epoch ends only once
    it and N - f distinct peers reported it; no pseudonym is issued for an
    epoch past the one after it, nor at all once the core took an order
    naming the client; and each live filter holds every latchkey
    ``revoke`` writes into a filter of its epoch for each order signed,
    whenever it was signed (the example signs an order two epochs early)."""
    peers, f = ("pm1", "pm2", "pm3"), 1
    core = TrustedCore(pm_key, admin_key.public, GEOMETRY, PARAMS, 2, peers, f)
    core.register(cid)
    built = {"issue": lambda e, n: (RequestRrp(cid, e, n),),
             "revoke": lambda rts, e: (signed_order(admin_key, cid, rts, e),),
             "merge_filters": lambda e: (BloomFilter(PARAMS, e), BloomFilter(PARAMS, e + 1)),
             "register": lambda: (cid,)}
    built["expel"] = built["revoke"]
    epoch, reporters, taken, signed = 0, set(), False, []
    for name, args in calls:
        call = built.get(name, lambda *a: a)(*args)
        if name == "report" and call[0] in (None, *peers):
            reporters.add(call[0])
            if None in reporters and len(reporters) >= len(peers) + 1 - f:
                epoch, reporters = epoch + 1, set()
        try:
            result = getattr(core, name)(*call)
        except IssuanceDenied:
            result = None
        assert core.epoch_now == epoch, (name, call)
        if name == "issue" and result:
            assert result[0].epoch_id <= epoch + 1 and not taken
        taken |= name in ("revoke", "expel")
        if name == "revoke":
            signed.append(call[0])
        for flt in (core.erc_current, core.erc_next):
            for order in signed:
                assert all(map(flt.query, written_latchkeys(order, flt.epoch_id, 2))), \
                    (order, flt.epoch_id)


def test_revoke_matches_full_capability_pipeline(pm_key, admin_key, cid, monkeypatch):
    """``revoke`` signs one shared cover per instance; its filters must be
    bit-identical to running ``create_ercset`` over every in-range
    capability of every instance, plus every next-epoch capability (whose
    pipeline keeps only the root latchkey), and the items it inserts must
    be exactly the signatures of the latchkeys that survive that pipeline."""
    added = []
    add = BloomFilter.add

    def recording_add(flt, item):
        added.append((flt.epoch_id, item))
        add(flt, item)
    monkeypatch.setattr(BloomFilter, "add", recording_add)
    instances = 3
    for slots, fanout in ((1, 2), (4, 2), (7, 2), (13, 2), (5, 3), (10, 3)):
        geometry = EpochConfig(0, slots, 1, fanout)
        for rts in range(slots):
            core = TrustedCore(pm_key, admin_key.public, geometry, PARAMS,
                               max_instances=instances)
            added.clear()
            core.revoke(signed_order(admin_key, cid, rts, 0))
            inserted = set(added)
            expected, surviving = [], set()
            for epoch_id, first in ((0, rts), (1, 0)):
                cfg = geometry.with_epoch(epoch_id)
                erc = BloomFilter(PARAMS, epoch_id)
                for i in range(1, instances + 1):
                    rrp = create_rrp(cid, epoch_id, i, pm_key, instances)
                    caps = [get_capability(rrp, s, cfg) for s in range(first, slots)]
                    erc = erc.merged(create_ercset(caps, cfg, PARAMS))
                    compact = remove_redundant(remove_unsafe(merge_latchkeys(caps), cfg), cfg)
                    surviving |= {(epoch_id, lk.sig) for lk in compact.latchkeys}
                expected.append(erc)
            assert [core.erc_current, core.erc_next] == expected, \
                (slots, fanout, rts)
            assert inserted == surviving, (slots, fanout, rts)


def test_proof_from_last_instance_accepted(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    last = core.issue(RequestRrp(cid, 0, 8))[-1]
    more = core.issue(RequestRrp(cid, 1, 1, proof_for(core, last), 0))
    assert last.instance == 8 and [r.instance for r in more] == [1]


def test_proof_of_another_client_rejected(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    other = b"\x07" * 32
    core.register(other)
    core.issue(RequestRrp(cid, 0, 1))
    foreign = core.issue(RequestRrp(other, 0, 1))[0]
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, proof_for(core, foreign), 0))
    assert exc.value.reason is DenialReason.BAD_PROOF


def test_deepcopied_core_signs_identically(pm_key, admin_key, cid):
    """The benchmark replays every pass on a deep copy of one core."""
    core = make_core(pm_key, admin_key, cid)
    clone = copy.deepcopy(core)
    assert clone.pm_key == core.pm_key
    order = signed_order(admin_key, cid, 2, 0)
    core.revoke(order)
    clone.revoke(order)
    assert clone.erc_current == core.erc_current and clone.erc_next == core.erc_next
    other = b"\x09" * 32
    endorsements = []
    for c in (core, clone):
        c.register(other)
        endorsements.append([r.endorsement for r in c.issue(RequestRrp(other, 0, 2))])
    assert endorsements[0] == endorsements[1]


# -- proofs are rebuilt, not verified ----------------------------------------

def renonced(cap, rrp, rng):
    """``cap`` with every latchkey re-signed under a fresh random nonce."""
    return replace(cap, latchkeys=tuple(
        Latchkey(lk.label, sign_with_nonce(rrp.keypair, lk.label.canonical_bytes,
                                           rng.randbytes(32)))
        for lk in cap.latchkeys))


def probed(core, cid):
    """What ``_check_standing`` does when the client's root latchkeys are
    unrevoked: keeps each live epoch's instance-1 public key and root
    latchkey in ``core.firsts`` if they are not kept yet."""
    for epoch_id in (core.epoch_now, core.epoch_now + 1):
        kept = core.firsts.setdefault(epoch_id, {})
        if cid not in kept:
            keypair = pseudonym_keypair(cid, epoch_id, 1)
            kept[cid] = keypair.public + det_sign(keypair,
                                                  NodeLabel(epoch_id, 0, 0).canonical_bytes)


def verdict(core, req):
    """``_check_proof`` alone, called as after a standing probe that passed;
    the probe costs nothing when ``firsts`` already holds the client."""
    probed(core, req.cid)
    try:
        core._check_proof(req)
    except IssuanceDenied as denied:
        return denied.reason
    return DenialReason.NONE


def count_crypto(monkeypatch) -> tuple[Counter, list[bytes]]:
    """Count the crypto calls the manager and the pseudonym layer make, and
    list the seeds passed to ``det_keygen`` in call order."""
    calls, seeds = Counter(), []

    def counted(name):
        def call(*args):
            calls.update([name])
            if name == "det_keygen":
                seeds.append(args[0])
            return getattr(crypto, name)(*args)
        return call
    for module in (manager, pseudonym):
        for name in ("det_keygen", "det_sign", "ver_sign"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name))
    return calls, seeds


def test_probed_is_what_the_standing_probe_returns(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    core.rotate_epoch()
    clone = copy.deepcopy(core)
    core._check_standing(cid)
    probed(clone, cid)
    assert core.firsts == clone.firsts and set(core.firsts) == {1, 2}


def test_nonce_taking_signer_is_ed25519(pm_key):
    rng = random.Random(3)
    for message in (b"", b"m", bytes(range(256))):
        assert sign_with_nonce(pm_key, message) == det_sign(pm_key, message)
        forged = sign_with_nonce(pm_key, message, rng.randbytes(32))
        assert forged != det_sign(pm_key, message)
        assert ver_sign(pm_key.public, message, forged)


def test_renonced_proof_refused(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrp = core.issue(RequestRrp(cid, 0, 2))[0]
    forged = renonced(proof_for(core, rrp, 1), rrp, random.Random(1))
    assert verify_capability(forged, pm_key.public, 1, core.cfg_for(0))
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, forged, 1))
    assert exc.value.reason is DenialReason.BAD_PROOF
    assert [r.instance for r in core.issue(
        RequestRrp(cid, 0, 1, proof_for(core, rrp, 1), 1))] == [3]


def test_renonced_proof_refused_after_gossiped_revocation(pm_key, admin_key, cid):
    """A core that knows a partial-epoch revocation only from merged filters
    can tell a revoked proof only by its latchkeys.  (``issue`` would refuse
    this client earlier, on the next-epoch root latchkeys, so the proof
    check is called alone.)"""
    witness, bystander = make_core(pm_key, admin_key, cid), make_core(pm_key, admin_key, cid)
    rts = 2
    witness.revoke(signed_order(admin_key, cid, rts, 0))
    assert bystander.merge_filters(witness.erc_current, witness.erc_next)
    assert cid not in bystander.revoked
    rng = random.Random(2)
    for instance in (1, 5):
        rrp = create_rrp(cid, 0, instance, pm_key, 8)
        for slot in range(rts, GEOMETRY.slots):
            canonical = proof_for(bystander, rrp, slot)
            assert verdict(bystander, RequestRrp(cid, 0, 1, canonical, slot)) \
                is DenialReason.REVOKED
            forged = renonced(canonical, rrp, rng)
            assert check_proof_by_verifying(bystander, RequestRrp(cid, 0, 1, forged, slot)) \
                is DenialReason.NONE                # what signature checks said
            assert verdict(bystander, RequestRrp(cid, 0, 1, forged, slot)) \
                is DenialReason.BAD_PROOF


def test_only_the_probed_root_goes_unqueried(pm_key, admin_key, cid):
    """A filter holding instance 3's root alone, as a false positive would:
    the probe's instance-1 roots pass, an instance-3 proof is revoked by its
    root and an instance-1 proof of the same slot is not."""
    core = make_core(pm_key, admin_key, cid)
    first = core.issue(RequestRrp(cid, 0, 3))[0]
    root3 = revocation_cover_ercset(pseudonym_keypair(cid, 0, 3), 0, {NodeLabel(0, 0, 0)},
                                    PARAMS)
    assert core.merge_filters(root3, BloomFilter(PARAMS, 1))
    third = create_rrp(cid, 0, 3, pm_key, 8)
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, proof_for(core, third, 2), 2))
    assert exc.value.reason is DenialReason.REVOKED
    assert [r.instance for r in core.issue(RequestRrp(cid, 0, 1, proof_for(core, first, 2), 2))] \
        == [4]


def test_proof_for_another_slot_refused(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    rrp = create_rrp(cid, 0, 2, pm_key, 8)
    proof = proof_for(core, rrp, 1)
    other = proof_for(core, rrp, 2)
    mixed = replace(proof, latchkeys=other.latchkeys[:1] + proof.latchkeys[1:])
    for cap, slot in ((proof, -1), (proof, GEOMETRY.slots), (proof, 2), (other, 1),
                      (mixed, 1), (mixed, 2)):
        assert verdict(core, RequestRrp(cid, 0, 1, cap, slot)) is DenialReason.BAD_PROOF
    assert verdict(core, RequestRrp(cid, 0, 1, proof, 1)) is DenialReason.NONE


def test_wrong_endorsement_derives_no_key(pm_key, admin_key, cid, monkeypatch):
    core = make_core(pm_key, admin_key, cid)
    proof = proof_for(core, create_rrp(cid, 0, 3, pm_key, 8))
    forged = replace(proof, endorsement=det_sign(admin_key, b"not an endorsement"))
    probed(core, cid)
    calls, _ = count_crypto(monkeypatch)
    assert verdict(core, RequestRrp(cid, 0, 1, forged, 0)) is DenialReason.BAD_PROOF
    assert calls == {"det_sign": 1}


def test_a_malformed_proof_costs_no_ed25519_call(pm_key, admin_key, cid, monkeypatch):
    """The epoch, the slot and the labels are checked before the
    endorsement is re-signed."""
    core = make_core(pm_key, admin_key, cid)
    rrp = create_rrp(cid, 0, 3, pm_key, 8)
    proof = proof_for(core, rrp, 3)
    keys = list(proof.latchkeys)
    keys[1] = replace(keys[1], label=replace(keys[1].label, index=keys[1].label.index ^ 1))
    relabelled = replace(proof, latchkeys=tuple(keys))
    stale = get_capability(create_rrp(cid, 2, 1, pm_key, 8), 3, core.cfg_for(2))
    probed(core, cid)
    calls, _ = count_crypto(monkeypatch)
    for cap, slot in ((relabelled, 3), (proof, -1), (proof, GEOMETRY.slots), (stale, 3)):
        assert verdict(core, RequestRrp(cid, 0, 1, cap, slot)) is DenialReason.BAD_PROOF
        assert calls == {}, (cap is stale, slot)
    assert verdict(core, RequestRrp(cid, 0, 1, proof, 3)) is DenialReason.NONE
    assert calls["det_sign"]


class _Label(NodeLabel):
    """A ``NodeLabel`` in every field but its type."""


def _label_defects(cap, slot, defect):
    """(capability, slot) pairs that each break the label rule by ``defect``
    alone: a per-latchkey defect at each latchkey in turn."""
    def relabelled(j, label):
        keys = list(cap.latchkeys)
        keys[j] = Latchkey(label, keys[j].sig)
        return replace(cap, latchkeys=tuple(keys)), slot

    per_latchkey = {"epoch": lambda lb: replace(lb, epoch_id=lb.epoch_id ^ 1),
                    "level": lambda lb: replace(lb, level=lb.level ^ 1),
                    "index": lambda lb: replace(lb, index=lb.index ^ 1),
                    "tuple": astuple,
                    "subclass": lambda lb: _Label(*astuple(lb))}
    if defect in per_latchkey:
        return [relabelled(j, per_latchkey[defect](lk.label))
                for j, lk in enumerate(cap.latchkeys)]
    return {"h latchkeys": [(replace(cap, latchkeys=cap.latchkeys[:-1]), slot),
                            (replace(cap, latchkeys=cap.latchkeys[1:]), slot)],
            "h + 2 latchkeys": [(replace(cap, latchkeys=cap.latchkeys + cap.latchkeys[-1:]),
                                 slot)],
            "slot -1": [(cap, -1)],
            "slot T": [(cap, GEOMETRY.slots)]}[defect]


@pytest.mark.parametrize("defect", ["epoch", "level", "index", "tuple", "subclass",
                                    "h latchkeys", "h + 2 latchkeys", "slot -1", "slot T"])
def test_both_checkers_apply_the_one_label_rule(pm_key, admin_key, cid, monkeypatch, defect):
    """``verify_capability`` and ``TrustedCore.issue``'s proof check refuse
    each label defect before any Ed25519 call, and the proof check builds
    no ``EpochConfig`` on the way; the genuine proof still passes both."""
    core = make_core(pm_key, admin_key, cid)
    core.issue(RequestRrp(cid, 0, 1))           # later requests need a proof
    slot = GEOMETRY.slots - 1
    proof = get_capability(create_rrp(cid, 0, 3, pm_key, 8), slot, GEOMETRY)

    def no_config(self, epoch_id):
        raise AssertionError("the proof check built an EpochConfig")

    monkeypatch.setattr(TrustedCore, "cfg_for", no_config)
    calls, _ = count_crypto(monkeypatch)
    for cap, at in _label_defects(proof, slot, defect):
        assert not verify_capability(cap, pm_key.public, at, GEOMETRY)
        with pytest.raises(IssuanceDenied) as denied:
            core.issue(RequestRrp(cid, 0, 1, cap, at))
        assert denied.value.reason is DenialReason.BAD_PROOF
        assert calls == {}, (cap, at)
    assert verify_capability(proof, pm_key.public, slot, GEOMETRY)
    assert [r.instance for r in core.issue(RequestRrp(cid, 0, 1, proof, slot))] == [2]


@pytest.mark.parametrize("instance", [1, 4, 8])
def test_accepted_proof_costs_signatures_not_verifies(pm_key, admin_key, cid, monkeypatch,
                                                      instance):
    """The key scan starts from the probe's instance-1 key, and an
    instance-1 proof's root latchkey is the probe's."""
    core = make_core(pm_key, admin_key, cid)
    proof = proof_for(core, create_rrp(cid, 1, instance, pm_key, 8), 3)
    probed(core, cid)
    calls, seeds = count_crypto(monkeypatch)
    assert verdict(core, RequestRrp(cid, 0, 1, proof, 3)) is DenialReason.NONE
    assert calls == Counter(det_keygen=instance - 1,
                            det_sign=GEOMETRY.height + 1 + (instance > 1))
    assert seeds == [seed_from_parts(cid, 1, i) for i in range(2, instance + 1)]


@pytest.mark.parametrize("count", [1, 3])
def test_issue_derives_each_key_and_makes_each_signature_once(pm_key, admin_key, cid,
                                                              monkeypatch, count):
    """A repeat current-epoch request with an instance-1 proof that issues
    instances 3 .. 2 + count: the probe's roots are kept from the first
    request, so one key derived per new instance and the proof's instance-1
    key rebuilt from the kept public key; the proof's h non-root latchkeys
    and one endorsement per new instance, the proof's endorsement being
    the one kept when instance 1 was issued.  A
    new client's first request derives and signs both probes' instance 1,
    then rebuilds the pair it endorses as instance 1."""
    core = make_core(pm_key, admin_key, cid)
    first = core.issue(RequestRrp(cid, 0, 2))[0]
    req = RequestRrp(cid, 0, count, proof_for(core, first, 1), 1)
    calls, seeds = count_crypto(monkeypatch)
    rrps = core.issue(req)
    assert [r.instance for r in rrps] == list(range(3, 3 + count))
    assert calls == Counter(det_keygen=count, det_sign=GEOMETRY.height + count)
    assert seeds == [seed_from_parts(cid, 0, r.instance) for r in rrps]
    calls.clear()
    seeds.clear()
    other = b"\x0c" * 32
    core.register(other)
    rrps = core.issue(RequestRrp(other, 1, count))
    assert [r.instance for r in rrps] == list(range(1, 1 + count))
    assert calls == Counter(det_keygen=1 + count, det_sign=2 + count)
    assert seeds == [seed_from_parts(other, e, 1) for e in (0, 1)] \
        + [seed_from_parts(other, 1, r.instance) for r in rrps[1:]]
    assert rrps[0] == create_rrp(other, 1, 1, pm_key, 8)
    assert rrps[0].keypair == pseudonym_keypair(other, 1, 1)


def signers_of(monkeypatch) -> list[bytes]:
    """The public key of every ``det_sign`` call the manager makes, in order."""
    keys, sign = [], manager.det_sign
    monkeypatch.setattr(manager, "det_sign",
                        lambda keypair, message: keys.append(keypair.public)
                        or sign(keypair, message))
    return keys


def test_an_instance_1_proof_at_its_issuer_signs_no_endorsement(pm_key, admin_key, cid,
                                                                monkeypatch):
    """The core that issued instance 1 kept its endorsement beside the key:
    an instance-1 proof costs the rebuilt pair and its h non-root latchkeys
    only, and is granted."""
    core = make_core(pm_key, admin_key, cid)
    first = core.issue(RequestRrp(cid, 0, 1))[0]
    assert core.firsts[0][cid].endswith(first.endorsement)
    req = RequestRrp(cid, 0, 1, proof_for(core, first, 3), 3)
    calls, _ = count_crypto(monkeypatch)
    signers = signers_of(monkeypatch)
    assert verdict(core, req) is DenialReason.NONE
    assert calls == Counter(det_sign=GEOMETRY.height)
    assert pm_key.public not in signers


def test_a_flipped_byte_of_a_kept_endorsement_costs_no_ed25519_call(pm_key, admin_key, cid,
                                                                    monkeypatch):
    """Each byte of an instance-1 proof's endorsement, changed, is refused
    by the comparison with the kept one, before any key or signature."""
    core = make_core(pm_key, admin_key, cid)
    first = core.issue(RequestRrp(cid, 0, 1))[0]
    proof = proof_for(core, first, 2)
    calls, _ = count_crypto(monkeypatch)
    for i in range(len(proof.endorsement)):
        flipped = bytearray(proof.endorsement)
        flipped[i] ^= 0xFF
        forged = replace(proof, endorsement=bytes(flipped))
        assert verdict(core, RequestRrp(cid, 0, 1, forged, 2)) is DenialReason.BAD_PROOF, i
    assert calls == {}


def test_a_core_that_did_not_issue_instance_1_signs_its_endorsement(pm_key, admin_key, cid,
                                                                    monkeypatch):
    """Two managers with one key: one issued the client's epoch-0 instance 1,
    the other only probed it (its first request there was for epoch 1).
    Shown that pseudonym's proof, the issuer signs no endorsement and the
    other signs it once; each still signs the endorsement of any other
    instance.  Both grant, and the other keeps no endorsement it did not
    issue."""
    issuer, other = make_core(pm_key, admin_key, cid), make_core(pm_key, admin_key, cid)
    first = issuer.issue(RequestRrp(cid, 0, 1))[0]
    other.issue(RequestRrp(cid, 1, 1))
    assert len(other.firsts[0][cid]) == crypto.PUBLIC_KEY_LEN + crypto.SIGNATURE_LEN
    signers = signers_of(monkeypatch)
    for core, instance, endorsements in ((issuer, 1, 0), (other, 1, 1),
                                         (issuer, 2, 1), (other, 2, 1)):
        signers.clear()
        proof = proof_for(core, create_rrp(cid, 0, instance, pm_key, 8), 3)
        assert verdict(core, RequestRrp(cid, 0, 1, proof, 3)) is DenialReason.NONE
        assert signers.count(pm_key.public) == endorsements, (core is issuer, instance)
        assert len(signers) == GEOMETRY.height + (instance > 1) + endorsements
    assert first.endorsement not in other.firsts[0][cid]


def test_a_kept_endorsement_leaves_with_its_epoch(pm_key, admin_key, cid, monkeypatch):
    """Instance 1 issued in epochs 0 and 1: each entry keeps its own
    endorsement.  The rotation into epoch 1 drops epoch 0's, and epoch 1's
    still spares its proof the endorsement signature; the rotation into
    epoch 2 drops it too, and the core holds neither."""
    core = make_core(pm_key, admin_key, cid)
    zero = core.issue(RequestRrp(cid, 0, 1))[0]
    one = core.issue(RequestRrp(cid, 1, 1, proof_for(core, zero), 0))[0]
    assert [core.firsts[e][cid][-crypto.SIGNATURE_LEN:] for e in (0, 1)] \
        == [zero.endorsement, one.endorsement]
    core.rotate_epoch()
    assert set(core.firsts) <= {1, 2} and core.firsts[1][cid].endswith(one.endorsement)
    signers = signers_of(monkeypatch)
    assert verdict(core, RequestRrp(cid, 1, 1, proof_for(core, one, 2), 2)) \
        is DenialReason.NONE
    assert pm_key.public not in signers
    core.rotate_epoch()
    assert kept_firsts(core) <= {(cid, 2), (cid, 3)}
    assert not [e for kept in core.firsts.values() for e in kept.values()
                if zero.endorsement in e or one.endorsement in e]


def test_an_over_budget_request_costs_no_proof_check(pm_key, admin_key, cid, monkeypatch):
    """The budget is checked before the proof: with the probe's roots kept,
    a request past the budget is refused with no crypto call, whatever
    proof it carries."""
    core = make_core(pm_key, admin_key, cid)
    rrp = core.issue(RequestRrp(cid, 0, 8))[0]
    proof = proof_for(core, rrp, 1)
    forged = replace(proof, endorsement=det_sign(admin_key, b"not an endorsement"))
    calls, _ = count_crypto(monkeypatch)
    for cap in (forged, renonced(proof, rrp, random.Random(5)), proof):
        with pytest.raises(IssuanceDenied) as exc:
            core.issue(RequestRrp(cid, 0, 1, cap, 1))
        assert exc.value.reason is DenialReason.BUDGET_EXHAUSTED
    assert calls == {}


@pytest.mark.parametrize("rts", [0, 1, 3])
def test_revoke_rebuilds_the_kept_instance_1(pm_key, admin_key, cid, monkeypatch, rts):
    """An order of the current epoch, at a core whose ``firsts`` holds the
    client and at one that derives everything: the first rebuilds instance
    1 of both epochs and writes its kept next-epoch root unsigned (and the
    kept current-epoch root too when the cover is the whole epoch), so it
    derives 2·I − 2 keys and makes I·|cover| + I − 1 signatures where the
    other derives 2·I and makes I·|cover| + I.  Both make 2·I merges and
    write the same bits."""
    instances = 8
    kept, fresh = make_core(pm_key, admin_key, cid), make_core(pm_key, admin_key, cid)
    kept.issue(RequestRrp(cid, 0, 1))
    order = signed_order(admin_key, cid, rts, 0)
    cover = safe_cover(GEOMETRY, SlotRange(rts, GEOMETRY.slots - 1))
    whole = int(cover == {NodeLabel(0, 0, 0)})
    merges, merged = [], BloomFilter.merged
    monkeypatch.setattr(BloomFilter, "merged",
                        lambda flt, other: merges.append(other) or merged(flt, other))
    calls, _ = count_crypto(monkeypatch)
    for core, rebuilt in ((kept, 1), (fresh, 0)):
        calls.clear()
        merges.clear()
        core.revoke(order)
        assert calls == Counter(
            ver_sign=1, det_keygen=2 * instances - 2 * rebuilt,
            det_sign=instances * len(cover) + instances - rebuilt * (1 + whole)), core
        assert len(merges) == 2 * instances
    assert whole == (rts == 0)
    assert (kept.erc_current, kept.erc_next) == (fresh.erc_current, fresh.erc_next)
    assert kept.erc_next.query(kept.firsts[1][cid][crypto.PUBLIC_KEY_LEN:])


def issue_in_two_epochs(core, cid, n):
    """Issue ``cid`` instances 1..n of epoch 0, in two requests, and of
    epoch 1, each later request carrying a genuine proof; the pseudonyms
    of both epochs in issuance order."""
    zero = core.issue(RequestRrp(cid, 0, 2))
    zero += core.issue(RequestRrp(cid, 0, n - 2, proof_for(core, zero[0], 1), 1))
    one = core.issue(RequestRrp(cid, 1, n, proof_for(core, zero[-1], 2), 2))
    assert [r.instance for r in zero] == [r.instance for r in one] == list(range(1, n + 1))
    return zero + one


def test_a_core_keeps_the_public_key_of_every_instance_it_issues(pm_key, admin_key, cid):
    """Each epoch's entry grows in instance order, request by request:
    instance 1's public key and root latchkey, its endorsement, then the
    public key of each later instance.  The rotation out of epoch 0 drops
    every key kept for it, and epoch 1's entry stays whole."""
    core = make_core(pm_key, admin_key, cid)
    rrps = issue_in_two_epochs(core, cid, 5)
    for epoch_id in (0, 1):
        mine = [r for r in rrps if r.epoch_id == epoch_id]
        root = det_sign(mine[0].keypair, NodeLabel(epoch_id, 0, 0).canonical_bytes)
        assert core.firsts[epoch_id][cid] == b"".join(
            [mine[0].keypair.public, root, mine[0].endorsement]
            + [r.keypair.public for r in mine[1:]]), epoch_id
    kept_one = core.firsts[1][cid]
    core.rotate_epoch()
    assert 0 not in core.firsts and core.firsts[1][cid] == kept_one
    left = b"".join(entry for kept in core.firsts.values() for entry in kept.values())
    assert not [r for r in rrps if r.epoch_id == 0 and r.keypair.public in left]


@pytest.mark.parametrize("issued", [3, 8])
def test_revoke_derives_no_key_the_core_issued(pm_key, admin_key, cid, monkeypatch, issued):
    """A core that issued instances 1..n of epochs 0 and 1 revokes the
    client: it rebuilds those 2·n pairs and derives only instances n + 1..I
    of each epoch, none when n = I, and its filters are bit-identical to
    those of a fresh core that derives every key for the same order."""
    core = make_core(pm_key, admin_key, cid)
    issue_in_two_epochs(core, cid, issued)
    order = signed_order(admin_key, cid, 3, 0)
    calls, seeds = count_crypto(monkeypatch)
    core.revoke(order)
    instances = range(issued + 1, core.max_instances + 1)
    assert seeds == [seed_from_parts(cid, e, i) for e in (0, 1) for i in instances]
    fresh = make_core(pm_key, admin_key, cid)
    fresh.revoke(order)
    assert (core.erc_current, core.erc_next) == (fresh.erc_current, fresh.erc_next)   # bits


@pytest.mark.parametrize("instance", [2, 5, 7])
def test_a_proof_of_an_issued_instance_is_matched_with_no_derivation(pm_key, admin_key, cid,
                                                                     monkeypatch, instance):
    """With instances 1..5 issued here, the key scan rebuilds instances
    2..k of an issued instance k and derives only the instances past the
    ones issued."""
    core = make_core(pm_key, admin_key, cid)
    core.issue(RequestRrp(cid, 0, 5))
    proof = proof_for(core, create_rrp(cid, 0, instance, pm_key, 8), 3)
    calls, seeds = count_crypto(monkeypatch)
    assert verdict(core, RequestRrp(cid, 0, 1, proof, 3)) is DenialReason.NONE
    assert calls == Counter(det_keygen=max(0, instance - 5), det_sign=GEOMETRY.height + 2)
    assert seeds == [seed_from_parts(cid, 0, i) for i in range(6, instance + 1)]


@pytest.mark.parametrize("epoch_id, rts", [(0, 0), (0, 2), (1, 0), (1, 3)])
def test_a_kept_root_writes_the_bits_of_signing_it(pm_key, admin_key, cid, epoch_id, rts):
    """Instance 1's cover from ``_keypair``, without ``firsts`` (a derived
    pair, no root) and with it (a rebuilt pair and the kept root), sets the
    bits of the derived pair signing every label, for a whole-epoch cover
    and a suffix cover; the kept root is written as it is."""
    core = make_core(pm_key, admin_key, cid)
    cfg = core.cfg_for(epoch_id)
    cover = safe_cover(cfg, SlotRange(rts, cfg.slots - 1))
    whole = {NodeLabel(epoch_id, 0, 0)}
    assert (cover == whole) == (rts == 0)
    signed = revocation_cover_ercset(pseudonym_keypair(cid, epoch_id, 1), epoch_id, cover,
                                     PARAMS)
    keypair, root = core._keypair(cid, epoch_id, 1)
    assert root is None
    assert revocation_cover_ercset(keypair, epoch_id, cover, PARAMS, root) == signed
    probed(core, cid)
    keypair, root = core._keypair(cid, epoch_id, 1)
    assert root == det_sign(pseudonym_keypair(cid, epoch_id, 1), whole.pop().canonical_bytes)
    assert revocation_cover_ercset(keypair, epoch_id, cover, PARAMS, root) == signed
    planted = revocation_cover_ercset(keypair, epoch_id, cover, PARAMS, b"\x07" * 64)
    assert planted.query(b"\x07" * 64) is (rts == 0)


def test_rebuilt_proof_check_agrees_with_signature_checks(pm_key, admin_key, cid):
    """Over every instance of two clients (one revoked from slot 2) in both
    live epochs, at random slots, and over a one-bit flip in every byte of
    the public key, the endorsement and each latchkey, and a changed label
    on each latchkey, the two checks give the same verdict.  Re-nonced
    latchkeys are the one input they disagree on.  The revocation reaches
    the core as a merged current-epoch filter: the proof check takes the
    standing probe's roots as unrevoked, and an order would revoke the
    next epoch's roots (``issue`` then denies before any proof check;
    ``test_issue_matches_the_reference_issuance`` covers that path)."""
    rng = random.Random(11)
    other = b"\x0b" * 32
    core = make_core(pm_key, admin_key, cid)
    core.register(other)
    witness = make_core(pm_key, admin_key, cid)
    witness.revoke(signed_order(admin_key, cid, 2, 0))
    assert core.merge_filters(witness.erc_current, BloomFilter(PARAMS, 1))

    def flipped(data: bytes, i: int) -> bytes:
        out = bytearray(data)
        out[i] ^= 1 << rng.randrange(8)
        return bytes(out)

    verdicts = Counter()
    for owner in (cid, other):
        for epoch_id in (0, 1):
            for instance in range(1, core.max_instances + 1):
                rrp = create_rrp(owner, epoch_id, instance, pm_key, core.max_instances)
                slot = rng.randrange(GEOMETRY.slots)
                proof = proof_for(core, rrp, slot)
                inputs = [(owner, proof), (cid if owner == other else other, proof)]
                inputs += [(owner, replace(proof, pseudonym_pub=flipped(proof.pseudonym_pub, i)))
                           for i in range(len(proof.pseudonym_pub))]
                inputs += [(owner, replace(proof, endorsement=flipped(proof.endorsement, i)))
                           for i in range(len(proof.endorsement))]
                for j, lk in enumerate(proof.latchkeys):
                    keys = list(proof.latchkeys)
                    keys[j] = replace(lk, label=replace(lk.label, index=lk.label.index ^ 1))
                    inputs.append((owner, replace(proof, latchkeys=tuple(keys))))
                    for i in range(len(lk.sig)):
                        keys[j] = replace(lk, sig=flipped(lk.sig, i))
                        inputs.append((owner, replace(proof, latchkeys=tuple(keys))))
                for requester, cap in inputs:
                    req = RequestRrp(requester, epoch_id, 1, cap, slot)
                    expected = check_proof_by_verifying(core, req)
                    assert verdict(core, req) is expected, (owner, epoch_id, instance)
                    verdicts[expected] += 1
                forged = renonced(proof, rrp, rng)
                req = RequestRrp(owner, epoch_id, 1, forged, slot)
                assert check_proof_by_verifying(core, req) is DenialReason.NONE
                assert verdict(core, req) is DenialReason.BAD_PROOF
    assert verdicts[DenialReason.NONE] and verdicts[DenialReason.REVOKED]


# -- issuance against the reference; nothing kept per pseudonym --------------

def test_issue_matches_the_reference_issuance(pm_key, admin_key):
    """Seeded random requests, orders, filter merges, quarantines and
    rotations go to the core and to a copy that issues through
    ``reference_issue``: each request
    gets byte-equal pseudonyms or the same denial, and both record the same
    issued instances.  Proofs are of instance 1 or k, of any epoch, the
    requester's or another client's, genuine, re-nonced at one level or at
    all, with one bit or one label changed, or named for another slot or one
    outside the epoch.  A small filter adds false positives."""
    rng = random.Random(41)
    geometry = EpochConfig(0, 600, 60, 2)                  # T = 10, h = 4
    instances = 5
    clients = [seed_from_parts(b"differential", i) for i in range(13)]
    seen = Counter()
    for params in (PARAMS, FilterParams(256, 2)):
        core = TrustedCore(pm_key, admin_key.public, geometry, params, instances, ["pm1"])
        for c in clients[:-1]:                             # the last is never registered
            core.register(c)
        reference = copy.deepcopy(core)
        for step in range(600):
            roll = rng.random()
            if roll < 0.015:
                order = signed_order(admin_key, rng.choice(clients[:-1]),
                                     rng.randrange(geometry.slots), core.epoch_now)
                core.revoke(order)
                reference.revoke(order)
                continue
            if roll < 0.06:                                # known from filters only
                witness = TrustedCore(pm_key, admin_key.public,
                                      geometry.with_epoch(core.epoch_now), params, instances)
                witness.revoke(signed_order(admin_key, rng.choice(clients[:-1]),
                                            rng.randrange(geometry.slots // 2), core.epoch_now))
                nxt = witness.erc_next if rng.random() < 0.25 \
                    else BloomFilter(params, core.epoch_now + 1)
                assert core.merge_filters(witness.erc_current, nxt) \
                    == reference.merge_filters(witness.erc_current, nxt)
                continue
            if step % 200 in (159, 199):                   # quarantined, then rotated
                assert core.report(None if step % 200 == 159 else "pm1") \
                    == reference.report(None if step % 200 == 159 else "pm1")
            requester = rng.choice(clients)
            epoch_id = max(0, core.epoch_now + rng.choice((-1, 0, 0, 0, 1, 1, 1, 2)))
            count = instances if rng.random() < 0.05 else rng.randint(1, 3)
            req, kind = RequestRrp(requester, epoch_id, count), "none"
            if rng.random() < 0.85:
                req, kind = random_proof_request(rng, pm_key, core, requester, epoch_id,
                                                 count, clients, instances)
            checked = requester in core.registry and requester not in core.revoked and any(
                core.issued.get((requester, core.epoch_now + d)) for d in (-1, 0, 1))
            outcome = issued_or_denied(core.issue, req)
            expected = issued_or_denied(reference_issue, reference, req)
            assert outcome == expected, (step, kind)
            assert core.issued == reference.issued
            seen[kind, checked, outcome[0] if isinstance(outcome[0], DenialReason)
                 else DenialReason.NONE] += 1
    for kind in ("genuine 1", "genuine k"):                # proofs that had to pass
        assert seen[kind, True, DenialReason.NONE] and seen[kind, True, DenialReason.REVOKED]
    renonced = [f"re-nonced at {level}" for level in ("all", *range(geometry.height + 1))]
    for kind in (*renonced, "flipped", "relabelled", "another slot", "outside",
                 "another client's"):
        assert seen[kind, True, DenialReason.BAD_PROOF], kind
    assert {reason for *_, reason in seen} == set(DenialReason)


def issued_or_denied(issue, *args) -> list:
    try:
        return issue(*args)
    except IssuanceDenied as denied:
        return [denied.reason]


def random_proof_request(rng, pm_key, core, requester, epoch_id, count, clients, instances):
    """A request with one of the proofs ``test_issue_matches_the_reference_issuance``
    lists, and the name of its kind."""
    owner = requester
    kind = rng.choice(("genuine 1", "genuine k", "genuine k", "re-nonced", "flipped",
                       "relabelled", "another slot", "outside", "another client's"))
    if kind == "another client's":
        owner = rng.choice([c for c in clients if c != requester])
    proof_epoch = max(0, core.epoch_now + rng.choice((-1, 0, 0, 1)))
    cfg = core.cfg_for(proof_epoch)
    instance = 1 if kind == "genuine 1" or rng.random() < 0.4 else rng.randint(2, instances)
    rrp = create_rrp(owner, proof_epoch, instance, pm_key, instances)
    slot = rng.randrange(cfg.slots)
    proof, proof_slot = get_capability(rrp, slot, cfg), slot
    keys = list(proof.latchkeys)
    level = rng.randrange(len(keys))
    if kind == "re-nonced":
        levels = range(len(keys)) if rng.random() < 0.2 else [level]
        for j in levels:
            keys[j] = Latchkey(keys[j].label, sign_with_nonce(
                rrp.keypair, keys[j].label.canonical_bytes, rng.randbytes(32)))
        kind += f" at {keys[level].label.level}" if len(levels) == 1 else " at all"
    elif kind == "flipped":
        field = rng.choice(("pseudonym_pub", "endorsement", "latchkey"))
        flip = 1 << rng.randrange(8)
        data = bytearray(keys[level].sig if field == "latchkey" else getattr(proof, field))
        data[rng.randrange(len(data))] ^= flip
        if field == "latchkey":
            keys[level] = replace(keys[level], sig=bytes(data))
        else:
            proof = replace(proof, **{field: bytes(data)})
    elif kind == "relabelled":
        label = keys[level].label
        keys[level] = replace(keys[level], label=replace(label, index=label.index ^ 1))
    elif kind == "another slot":
        proof_slot = (slot + rng.randrange(1, cfg.slots)) % cfg.slots
    elif kind == "outside":
        proof_slot = rng.choice((-1, cfg.slots))
    proof = replace(proof, latchkeys=tuple(keys))
    return RequestRrp(requester, epoch_id, count, proof, proof_slot), kind


def kept_firsts(core) -> set[tuple[bytes, int]]:
    """(cid, epoch) of every instance-1 public key and root the core keeps."""
    return {(c, epoch_id) for epoch_id, kept in core.firsts.items() for c in kept}


def test_a_root_merged_after_the_probe_was_kept_still_denies(pm_key, admin_key, cid):
    """``firsts`` keeps roots, not verdicts: each request queries the kept
    roots against the filters as they are now.  An instance-1 proof's root
    is the probe's, so only the probe can catch a revocation from slot 0."""
    core = make_core(pm_key, admin_key, cid)
    first = core.issue(RequestRrp(cid, 0, 1))[0]
    assert kept_firsts(core) == {(cid, 0), (cid, 1)}
    req = RequestRrp(cid, 0, 1, proof_for(core, first, 3), 3)
    assert len(core.issue(req)) == 1                      # granted on the kept roots
    witness = make_core(pm_key, admin_key, cid)
    witness.revoke(signed_order(admin_key, cid, 0, 0))
    assert core.merge_filters(witness.erc_current, BloomFilter(PARAMS, 1))
    assert cid not in core.revoked
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(req)
    assert exc.value.reason is DenialReason.REVOKED


def test_rotation_keeps_firsts_of_live_epochs_only(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    first = core.issue(RequestRrp(cid, 1, 1))[0]
    core.rotate_epoch()
    assert kept_firsts(core) == {(cid, 1)}      # epoch 0 is t-1: no request probes it
    assert (cid, 1) in core.issued
    core.issue(RequestRrp(cid, 2, 1, proof_for(core, first), 0))
    assert kept_firsts(core) == {(cid, 1), (cid, 2)}
    core.rotate_epoch()
    core.rotate_epoch()
    assert set(core.firsts) <= {3, 4}
    assert kept_firsts(core) == set() and set(core.issued) == {(cid, 2)}


def test_two_epochs_of_a_client_never_share_a_first(pm_key, admin_key, cid):
    """An epoch-1 instance-1 proof matches epoch 1's kept key, and a filter
    revoking epoch 1's roots alone denies the client."""
    core = make_core(pm_key, admin_key, cid)
    core.issue(RequestRrp(cid, 1, 1))
    proof = proof_for(core, create_rrp(cid, 1, 1, pm_key, 8), 2)
    assert [r.instance for r in core.issue(RequestRrp(cid, 0, 1, proof, 2))] == [1]
    witness = make_core(pm_key, admin_key, cid)
    witness.revoke(signed_order(admin_key, cid, GEOMETRY.slots - 1, 0))
    assert core.merge_filters(BloomFilter(PARAMS, 0), witness.erc_next)
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 0, 1, proof, 2))
    assert exc.value.reason is DenialReason.REVOKED


def test_core_keeps_no_pseudonym_key_or_seed(pm_key, admin_key):
    """The manager re-creates every pseudonym from (cid, epoch, instance):
    after issuances with proofs, orders, merges and a rotation, no key pair
    but the manager's own and no pseudonym seed is reachable from the core."""
    clients = [seed_from_parts(b"stateless", i) for i in range(4)]
    core = TrustedCore(pm_key, admin_key.public, GEOMETRY, PARAMS, max_instances=8)
    for c in clients:
        core.register(c)
        first = core.issue(RequestRrp(c, 0, 2))[0]
        core.issue(RequestRrp(c, 1, 3, proof_for(core, first, 1), 1))
        core.issue(RequestRrp(c, 0, 1, proof_for(core, first, 2), 2))
    core.revoke(signed_order(admin_key, clients[0], 2, 0))
    witness = make_core(pm_key, admin_key, clients[1])
    witness.revoke(signed_order(admin_key, clients[1], 0, 0))
    assert core.merge_filters(witness.erc_current, witness.erc_next)
    core.report()                          # a lone manager's own report ends its epoch
    for c in clients[2:]:
        proof = proof_for(core, create_rrp(c, 1, 3, pm_key, 8), 3)
        assert len(core.issue(RequestRrp(c, 2, 2, proof, 3))) == 2
    found, stack, visited = [], [core], set()
    while stack:
        obj = stack.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        found.append(obj)
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, list | tuple | set | frozenset):
            stack += list(obj)
        elif not isinstance(obj, bytes | bytearray | str | int | float | type(None)):
            stack += list(getattr(obj, "__dict__", {}).values())
            stack += [getattr(obj, name) for name in getattr(type(obj), "__slots__", ())
                      if hasattr(obj, name)]
    assert [k for k in found if isinstance(k, KeyPair)] == [core.pm_key]
    seeds = [seed_from_parts(c, e, i) for c in clients for e in range(4) for i in range(1, 9)]
    blobs = [bytes(b) for b in found if isinstance(b, bytes | bytearray)]
    assert blobs and not [s for s in seeds for b in blobs if s in b]
