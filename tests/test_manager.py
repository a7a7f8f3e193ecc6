import copy
import hashlib
import logging
import random
from collections import Counter
from dataclasses import replace

import pytest

from oracles import (
    check_proof_by_verifying,
    create_ercset,
    merge_latchkeys,
    reference_issue,
    remove_redundant,
    remove_unsafe,
    sign_with_nonce,
)
from rangerevoke import crypto, manager, pseudonym
from rangerevoke.crypto import KeyPair, det_sign, seed_from_parts, ver_sign
from rangerevoke.ercset import BloomFilter, FilterParams, is_revoked
from rangerevoke.manager import (
    IssuanceDenied,
    PmMode,
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


def make_core(pm_key, admin_key, cid):
    core = TrustedCore(pm_key, admin_key.public, GEOMETRY, PARAMS, max_instances=8)
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
    with pytest.raises(IssuanceDenied) as exc:
        core.issue(RequestRrp(cid, 2, 1), quarantined=True)
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
    incoming = revocation_cover_ercset(cid, 0, 1, safe_cover(cfg, SlotRange(1, 3)), PARAMS)
    assert core.merge_filters(incoming, BloomFilter(PARAMS, 1)) is True
    assert core.merge_filters(incoming, BloomFilter(PARAMS, 1)) is False   # redundant


def test_helper_filters(pm_key, cid):
    cfg = GEOMETRY.with_epoch(1)
    root = revocation_cover_ercset(cid, 1, 1, {NodeLabel(1, 0, 0)}, PARAMS)
    for slot in range(cfg.slots):
        assert is_revoked(root, get_capability(create_rrp(cid, 1, 1, pm_key, 8), slot, cfg))
        assert not is_revoked(root, get_capability(create_rrp(cid, 1, 2, pm_key, 8), slot, cfg))


# -- node shell -------------------------------------------------------------

def make_node(pm_key, admin_key, cid, node_id="pm0", n=4, f=1, seed=1, timeout=5):
    peers = [f"pm{i}" for i in range(n)]
    core = make_core(pm_key, admin_key, cid)
    return PmNode(node_id, core, peers, f, random.Random(seed), timeout)


def test_deliver_takes_every_wire_message(pm_key, admin_key, cid, wire_messages):
    """No decoded message makes a manager raise, from any sender, serving
    or in quarantine: each is answered with a list of ``Outgoing``."""
    for now in (1, 61):
        node = make_node(pm_key, admin_key, cid)
        node.on_clock(now)
        assert (node.mode is PmMode.QUARANTINE) is (now == 61)
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
    node.deliver("pm1", dict(wire_messages)[kind], now=100)
    assert node.on_gossip_timer(104) == []
    out = node.on_gossip_timer(105)
    assert [type(o.msg) for o in out] == [ErcPullReq] and out[0].dst in node.peers
    assert node.stats["pulls"] == 1


@pytest.mark.parametrize("kind", ["push-incompatible", "pull-response-incompatible",
                                  "report-incompatible", "push-half-incompatible",
                                  "push-far-epoch", "pull-response-far-epoch",
                                  "report-future"])
def test_dropped_filters_do_not_postpone_the_pull(pm_key, admin_key, cid, wire_messages,
                                                  kind, caplog):
    """Filters refused as incompatible, or for no epoch the node holds,
    are no update: a pull still goes out within ``gossip_timeout`` of
    them.  Only incompatible ones are abnormal enough to warn of."""
    messages = dict(wire_messages)
    push = messages["push-incompatible"]
    messages["pull-response-incompatible"] = ErcPullResp(push.current, push.next)
    node = make_node(pm_key, admin_key, cid, timeout=5)
    with caplog.at_level(logging.WARNING, logger="rangerevoke"):
        assert node.deliver("pm1", messages[kind], now=100) == []
    warned = [r.getMessage() for r in caplog.records]
    if kind.endswith("incompatible"):
        assert len(warned) == 1 and warned[0].startswith("pm0: dropping incompatible filters")
    else:
        assert warned == []
    out = node.on_gossip_timer(104)
    assert [type(o.msg) for o in out] == [ErcPullReq]


def node_trace(node):
    """Everything of a manager that a message could change."""
    core = node.core
    return (core.epoch_now, node.mode, node._last_update,
            [(erc.epoch_id, hashlib.sha256(erc.bits).hexdigest())
             for erc in (core.erc_current, core.erc_next)],
            {e: set(s) for e, s in node._reports.items()}, set(core.revoked),
            dict(node._orders), dict(core.issued), dict(node.stats))


def test_refused_messages_leave_no_trace(pm_key, admin_key, cid, wire_messages,
                                         hostile_messages):
    """A hostile message changes no filter bit, no pull deadline, quorum,
    order, issuance or counter of a manager, serving or in quarantine,
    and draws nothing but a denial to its sender."""
    assert {"push-half-incompatible", "push-far-epoch"} <= dict(hostile_messages).keys()
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
    """Only a quorum for the current or the next epoch can complete before
    the next rotation: reports naming later epochs still merge their
    filters, but their senders are not kept."""
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    other = make_node(pm_key, admin_key, cid, node_id="pm1")
    other.handle_revoke(signed_order(admin_key, cid, 1, 0))
    for from_epoch in range(2, 1002):
        node.deliver("pm1", EpochReport(from_epoch, other.core.erc_current,
                                        other.core.erc_next), now=1)
    assert node.core.erc_current == other.core.erc_current     # merged all the same
    assert len(node._reports) <= 2
    node.deliver("pm1", EpochReport(1, other.core.erc_current, other.core.erc_next), now=1)
    assert node._reports == {1: {"pm1"}}


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
    out = node.handle_revoke(order)
    pushes = [o for o in out if not isinstance(o.msg, RevocationOrder)]
    relays = [o for o in out if isinstance(o.msg, RevocationOrder)]
    assert len({o.dst for o in pushes}) == 2   # filters to f + 1 distinct peers
    assert len({o.dst for o in relays}) == 2   # the order itself travels too
    assert all(o.dst != "pm0" for o in out)
    assert node.handle_revoke(order) == []     # replay: nothing new to say


def test_stale_epoch_order_still_expels(pm_key, admin_key, cid, caplog):
    """An order one epoch late writes the roots of the epoch after its own
    and pushes them; one two epochs late writes nothing and is only
    relayed.  Neither is abnormal, so neither logs."""
    node = make_node(pm_key, admin_key, cid)
    node.core.rotate_epoch()
    with caplog.at_level(logging.DEBUG, logger="rangerevoke.manager"):
        out = node.handle_revoke(signed_order(admin_key, cid, 1, 0))
        assert {type(o.msg) for o in out} == {ErcPush, RevocationOrder}
        assert any(node.core.erc_current.bits)
        node.core.rotate_epoch()
        out = node.handle_revoke(signed_order(admin_key, cid, 2, 0))
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
        out = node.handle_revoke(signed_order(admin_key, cid, 1, 1))
    assert not caplog.records
    assert {type(o.msg) for o in out} == {ErcPush, RevocationOrder}
    assert any(node.core.erc_next.bits)
    node = make_node(pm_key, admin_key, cid)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        out = node.handle_revoke(signed_order(admin_key, cid, 1, 2))
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
    push = next(o.msg for o in make_node(pm_key, admin_key, cid).handle_revoke(order)
                if isinstance(o.msg, ErcPush))
    node = make_node(pm_key, admin_key, cid, node_id="pm1")
    assert node.deliver("pm0", push, 0)                 # the push gained bits
    out = node.handle_revoke(order)
    assert len(out) == 2 and all(o.msg is order for o in out)
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
    assert bool(node.handle_revoke(order)) is not forged
    assert len(checks) == 1
    assert (cid in node.core.revoked) is not forged


def test_pull_response_carries_orders_to_peers_only(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    node.handle_revoke(signed_order(admin_key, cid, 1, 0))
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
        assert node.handle_revoke(RevocationOrder(cid, 0, 0, order.admin_sig)) == []
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "bad signature" in caplog.text


@pytest.mark.parametrize("epoch", [0, 1, 3], ids=["current", "next", "future"])
@pytest.mark.parametrize("rts", [4, 2**64 - 1])      # T = 4 in every epoch
def test_order_outside_the_epoch_is_refused_whole(pm_key, admin_key, cid, caplog,
                                                  rts, epoch):
    node = make_node(pm_key, admin_key, cid)
    with caplog.at_level(logging.WARNING, logger="rangerevoke.manager"):
        assert node.handle_revoke(signed_order(admin_key, cid, rts, epoch)) == []
    assert f"rts {rts} outside the epoch" in caplog.text
    assert cid not in node.core.revoked and not node._orders
    assert not any(node.core.erc_current.bits)
    assert not any(node.core.erc_next.bits)
    assert node.handle_request(RequestRrp(cid, 0, 1)).granted


def test_redundant_gossip_not_forwarded(pm_key, admin_key, cid):
    a = make_node(pm_key, admin_key, cid, node_id="pm0")
    b = make_node(pm_key, admin_key, cid, node_id="pm1")
    a.handle_revoke(signed_order(admin_key, cid, 1, 0))
    forwarded = b.deliver("pm0", ErcPush(a.core.erc_current, a.core.erc_next), 1)
    assert len(forwarded) == 2
    assert b.deliver("pm0", ErcPush(a.core.erc_current, a.core.erc_next), 1) == []


def test_pull_request_response(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    out = node.handle_pull_request("v0")
    assert len(out) == 1 and out[0].dst == "v0"
    assert out[0].msg.current is node.core.erc_current


def test_gossip_timeout_pulls_one_peer(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    out = node.on_gossip_timer(now=0)           # no filters have ever arrived
    assert len(out) == 1 and out[0].dst != "pm0"


def test_quarantine_quorum(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    out = node.on_clock(now=61)
    assert node.mode is PmMode.QUARANTINE
    assert len(out) == 3                       # report to every peer
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 61)
    assert node.mode is PmMode.QUARANTINE      # 2 of 3 needed reports
    node.deliver("pm2", report, 61)
    assert node.mode is PmMode.SERVING         # self + 2 peers = N - f
    assert node.core.epoch_now == 1


def test_quarantine_ignores_duplicate_reports(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 61)
    node.deliver("pm1", report, 61)
    assert node.mode is PmMode.QUARANTINE


def test_reports_of_a_past_epoch_are_echoed_not_kept(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.deliver("pm1", report, 61)
    node.deliver("pm2", report, 61)
    assert node.core.epoch_now == 1
    out = node.deliver("pm3", report, 61)       # after the quorum
    assert [(o.dst, o.msg.from_epoch) for o in out] == [("pm3", 0)]
    assert node._reports == {}


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


def test_quarantine_denies_two_epochs_ahead(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    resp = node.handle_request(RequestRrp(cid, 2, 1))
    assert not resp.granted and resp.reason is DenialReason.QUARANTINE


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
    """What ``_check_standing`` hands on when the client's root latchkeys
    are unrevoked: each live epoch's instance-1 key pair and root latchkey."""
    firsts = {}
    for epoch_id in (core.epoch_now, core.epoch_now + 1):
        keypair = pseudonym_keypair(cid, epoch_id, 1)
        firsts[epoch_id] = keypair, det_sign(keypair, NodeLabel(epoch_id, 0, 0).canonical_bytes)
    return firsts


def verdict(core, req, firsts=None):
    """``_check_proof`` alone, called as after a standing probe that passed."""
    try:
        core._check_proof(req, firsts or probed(core, req.cid))
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
    assert core._check_standing(cid) == probed(core, cid)


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
    assert core.merge_filters(revocation_cover_ercset(cid, 0, 3, {NodeLabel(0, 0, 0)}, PARAMS),
                              BloomFilter(PARAMS, 1))
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
    firsts = probed(core, cid)
    calls, _ = count_crypto(monkeypatch)
    assert verdict(core, RequestRrp(cid, 0, 1, forged, 0), firsts) is DenialReason.BAD_PROOF
    assert calls == {"det_sign": 1}


@pytest.mark.parametrize("instance", [1, 4, 8])
def test_accepted_proof_costs_signatures_not_verifies(pm_key, admin_key, cid, monkeypatch,
                                                      instance):
    """The key scan starts from the probe's instance-1 key, and an
    instance-1 proof's root latchkey is the probe's."""
    core = make_core(pm_key, admin_key, cid)
    proof = proof_for(core, create_rrp(cid, 1, instance, pm_key, 8), 3)
    firsts = probed(core, cid)
    calls, seeds = count_crypto(monkeypatch)
    assert verdict(core, RequestRrp(cid, 0, 1, proof, 3), firsts) is DenialReason.NONE
    assert calls == Counter(det_keygen=instance - 1,
                            det_sign=GEOMETRY.height + 1 + (instance > 1))
    assert seeds == [seed_from_parts(cid, 1, i) for i in range(2, instance + 1)]


@pytest.mark.parametrize("count", [1, 3])
def test_issue_derives_each_key_and_makes_each_signature_once(pm_key, admin_key, cid,
                                                              monkeypatch, count):
    """A current-epoch request with an instance-1 proof that issues
    instances 3 .. 2 + count: the probe's two instance-1 keys and one key
    per new instance; two probe roots, the endorsement check, the proof's
    h non-root latchkeys and one endorsement per new instance."""
    core = make_core(pm_key, admin_key, cid)
    first = core.issue(RequestRrp(cid, 0, 2))[0]
    req = RequestRrp(cid, 0, count, proof_for(core, first, 1), 1)
    calls, seeds = count_crypto(monkeypatch)
    rrps = core.issue(req)
    assert [r.instance for r in rrps] == list(range(3, 3 + count))
    assert calls == Counter(det_keygen=2 + count, det_sign=GEOMETRY.height + 3 + count)
    assert sorted(seeds) == sorted([seed_from_parts(cid, 0, 1), seed_from_parts(cid, 1, 1)]
                                   + [seed_from_parts(cid, 0, r.instance) for r in rrps])
    calls.clear()
    seeds.clear()
    other = b"\x0c" * 32
    core.register(other)
    assert [r.instance for r in core.issue(RequestRrp(other, 1, count))] \
        == list(range(1, 1 + count))                    # a new instance 1 reuses its key
    assert calls == Counter(det_keygen=1 + count, det_sign=2 + count)
    assert len(set(seeds)) == len(seeds)


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
    """Seeded random requests, orders, filter merges and rotations go to the
    core and to a copy that issues through ``reference_issue``: each request
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
        core = TrustedCore(pm_key, admin_key.public, geometry, params, instances)
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
            if step % 200 == 199:
                core.rotate_epoch()
                reference.rotate_epoch()
            requester = rng.choice(clients)
            epoch_id = max(0, core.epoch_now + rng.choice((-1, 0, 0, 0, 1, 1, 1, 2)))
            count = instances if rng.random() < 0.05 else rng.randint(1, 3)
            req, kind = RequestRrp(requester, epoch_id, count), "none"
            if rng.random() < 0.85:
                req, kind = random_proof_request(rng, pm_key, core, requester, epoch_id,
                                                 count, clients, instances)
            quarantined = rng.random() < 0.2
            checked = requester in core.registry and requester not in core.revoked and any(
                core.issued.get((requester, core.epoch_now + d)) for d in (-1, 0, 1))
            outcome = issued_or_denied(core.issue, req, quarantined)
            expected = issued_or_denied(reference_issue, reference, req, quarantined)
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
    core.rotate_epoch()
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
