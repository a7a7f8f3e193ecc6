import copy
import logging
import random

import pytest

from oracles import create_ercset, merge_latchkeys, remove_redundant, remove_unsafe
from rangerevoke.crypto import det_sign
from rangerevoke.ercset import BloomFilter, FilterParams, is_revoked, merge_ercset
from rangerevoke.manager import (
    IssuanceDenied,
    PmMode,
    PmNode,
    TrustedCore,
    empty_ercset,
    revocation_cover_ercset,
)
from rangerevoke.messages import (
    DenialReason,
    EpochReport,
    RequestRrp,
    RevocationOrder,
)
from rangerevoke.pseudonym import create_rrp, get_capability
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


def test_revoke_rejects_wrong_epoch(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    with pytest.raises(ValueError):
        core.revoke(signed_order(admin_key, cid, 1, 3))


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


def test_rotate_epoch(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    core.revoke(signed_order(admin_key, cid, 0, 0))
    promoted = core.erc_next
    core.rotate_epoch()
    assert core.epoch_now == 1
    assert core.erc_current is promoted
    assert core.erc_next.epoch_id == 2 and not any(core.erc_next.filter.bits)


def test_merge_filters_reports_change(pm_key, admin_key, cid):
    core = make_core(pm_key, admin_key, cid)
    cfg = core.cfg_for(0)
    incoming = revocation_cover_ercset(cid, 0, 1, cfg, safe_cover(cfg, SlotRange(1, 3)),
                                       PARAMS)
    assert core.merge_filters(incoming, None) is True
    assert core.merge_filters(incoming, None) is False   # redundant


def test_helper_filters(pm_key, cid):
    cfg = GEOMETRY.with_epoch(1)
    assert not any(empty_ercset(PARAMS, 0).filter.bits)
    root = revocation_cover_ercset(cid, 1, 1, cfg, {NodeLabel(1, 0, 0)}, PARAMS)
    for slot in range(cfg.slots):
        assert is_revoked(root, get_capability(create_rrp(cid, 1, 1, pm_key, 8), slot, cfg))
        assert not is_revoked(root, get_capability(create_rrp(cid, 1, 2, pm_key, 8), slot, cfg))


# -- node shell -------------------------------------------------------------

def make_node(pm_key, admin_key, cid, node_id="pm0", n=4, f=1, seed=1):
    peers = [f"pm{i}" for i in range(n)]
    core = make_core(pm_key, admin_key, cid)
    return PmNode(node_id, core, peers, f, random.Random(seed))


def test_handle_request_response(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    resp = node.handle_request(RequestRrp(cid, 0, 2))
    assert resp.granted and len(resp.endorsements) == 2
    resp = node.handle_request(RequestRrp(b"\x06" * 32, 0, 1))
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
    node = make_node(pm_key, admin_key, cid)
    node.core.rotate_epoch()
    with caplog.at_level(logging.DEBUG, logger="rangerevoke.manager"):
        out = node.handle_revoke(signed_order(admin_key, cid, 1, 0))
    assert all(isinstance(o.msg, RevocationOrder) for o in out)  # no filter push
    assert node.stats["stale_orders"] == 1
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert "filters unchanged" in caplog.text                     # at debug
    resp = node.handle_request(RequestRrp(cid, 1, 1))
    assert not resp.granted and resp.reason is DenialReason.REVOKED


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


def test_redundant_gossip_not_forwarded(pm_key, admin_key, cid):
    a = make_node(pm_key, admin_key, cid, node_id="pm0")
    b = make_node(pm_key, admin_key, cid, node_id="pm1")
    a.handle_revoke(signed_order(admin_key, cid, 1, 0))
    forwarded = b.handle_ercsets(a.core.erc_current, a.core.erc_next)
    assert len(forwarded) == 2
    assert b.handle_ercsets(a.core.erc_current, a.core.erc_next) == []


def test_pull_request_response(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    out = node.handle_pull_request("v0")
    assert len(out) == 1 and out[0].dst == "v0"
    assert out[0].msg.current is node.core.erc_current


def test_gossip_timeout_pulls_one_peer(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid)
    out = node.on_gossip_timeout()
    assert len(out) == 1 and out[0].dst != "pm0"


def test_quarantine_quorum(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    out = node.on_clock(now=61)
    assert node.mode is PmMode.QUARANTINE
    assert len(out) == 3                       # report to every peer
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.handle_epoch_report("pm1", report)
    assert node.mode is PmMode.QUARANTINE      # 2 of 3 needed reports
    node.handle_epoch_report("pm2", report)
    assert node.mode is PmMode.SERVING         # self + 2 peers = N - f
    assert node.core.epoch_now == 1


def test_quarantine_ignores_duplicate_reports(pm_key, admin_key, cid):
    node = make_node(pm_key, admin_key, cid, n=4, f=1)
    node.on_clock(now=61)
    report = EpochReport(0, node.core.erc_current, node.core.erc_next)
    node.handle_epoch_report("pm1", report)
    node.handle_epoch_report("pm1", report)
    assert node.mode is PmMode.QUARANTINE


def test_laggard_gets_echo(pm_key, admin_key, cid):
    ahead = make_node(pm_key, admin_key, cid, node_id="pm1")
    ahead.core.rotate_epoch()                  # already in epoch 1
    behind_report = EpochReport(0, empty_ercset(PARAMS, 0), empty_ercset(PARAMS, 1))
    out = ahead.handle_epoch_report("pm3", behind_report)
    assert [o.dst for o in out] == ["pm3"]
    echo = out[0].msg
    assert echo.from_epoch == 0 and echo.current.epoch_id == 1
    # echoes themselves are never echoed back
    assert ahead.handle_epoch_report("pm2", echo) == []


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
                erc = empty_ercset(PARAMS, epoch_id)
                for i in range(1, instances + 1):
                    rrp = create_rrp(cid, epoch_id, i, pm_key, instances)
                    caps = [get_capability(rrp, s, cfg) for s in range(first, slots)]
                    erc = merge_ercset(erc, create_ercset(caps, cfg, PARAMS))
                    compact = remove_redundant(remove_unsafe(merge_latchkeys(caps), cfg), cfg)
                    surviving |= {(epoch_id, lk.sig) for lk in compact.latchkeys}
                expected.append(erc.filter)
            assert [core.erc_current.filter, core.erc_next.filter] == expected, \
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
