import logging
import random
from dataclasses import replace

import pytest

from oracles import retry_with_extra_pseudonym
from rangerevoke import codec, pseudonym, verifier
from rangerevoke.crypto import det_sign
from rangerevoke.ercset import BloomFilter, FilterParams, is_revoked
from rangerevoke.manager import TrustedCore
from rangerevoke.messages import ErcPullReq, ErcPullResp, Outgoing, RevocationOrder
from rangerevoke.pseudonym import create_rrp, get_capability, verify_capability
from rangerevoke.slot_tree import EpochConfig
from rangerevoke.verifier import Decision, VerifierNode

PARAMS = FilterParams(8192, 4)
GEOMETRY = EpochConfig(0, 60, 15, 2)


def make_verifier(pm_key, **kwargs):
    return VerifierNode("v0", pm_key.public, GEOMETRY, ["pm0", "pm1"],
                        random.Random(4), pull_period=5, **kwargs)


def fresh(verifier, now=0, epoch=0):
    """Deliver an empty pull response so the verifier considers itself fresh."""
    resp = ErcPullResp(empty(epoch), empty(epoch + 1))
    assert verifier.handle_pull_response(resp, now)


def empty(epoch, params=PARAMS):
    return BloomFilter(params, epoch)


def cap_for(cid, pm_key, slot, epoch=0, instance=1):
    rrp = create_rrp(cid, epoch, instance, pm_key, 8)
    return get_capability(rrp, slot, GEOMETRY.with_epoch(epoch))


def test_stale_until_first_pull(cid, pm_key):
    v = make_verifier(pm_key)
    assert v.authenticate(cap_for(cid, pm_key, 0), now=1) is Decision.STALE_STATE
    fresh(v, now=2)
    assert v.authenticate(cap_for(cid, pm_key, 0), now=3) is Decision.GRANTED


def test_staleness_limit(cid, pm_key):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    assert v.authenticate(cap_for(cid, pm_key, 0), now=14) is Decision.GRANTED
    assert v.authenticate(cap_for(cid, pm_key, 0), now=16) is Decision.STALE_STATE


def test_wrong_epoch_and_slot(cid, pm_key):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    assert v.authenticate(cap_for(cid, pm_key, 0, epoch=1), now=1) \
        is Decision.WRONG_EPOCH
    assert v.authenticate(cap_for(cid, pm_key, 3), now=1) is Decision.WRONG_SLOT


def test_slot_skew_tolerance(cid, pm_key):
    v = make_verifier(pm_key, epsilon=2)
    fresh(v, now=0)
    assert v.authenticate(cap_for(cid, pm_key, 1), now=13) is Decision.GRANTED
    fresh(v, now=30)        # keep the filter fresh; only the slot is at issue
    assert v.authenticate(cap_for(cid, pm_key, 1), now=31) is Decision.GRANTED
    assert v.authenticate(cap_for(cid, pm_key, 1), now=33) is Decision.WRONG_SLOT


def test_not_genuine(cid, pm_key, admin_key):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    forged = cap_for(cid, admin_key, 0)     # endorsed by the wrong key
    assert v.authenticate(forged, now=1) is Decision.NOT_GENUINE


def test_revoked(cid, pm_key):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    cap = cap_for(cid, pm_key, 0)
    v.erc_local.add(cap.latchkeys[-1].sig)   # revoke via the root
    assert v.authenticate(cap, now=1) is Decision.REVOKED
    assert v.authenticate(cap_for(cid, pm_key, 0, instance=2), now=1) \
        is Decision.GRANTED


def test_filter_from_previous_epoch_is_stale(cid, pm_key):
    v = make_verifier(pm_key)
    fresh(v, now=0, epoch=0)
    # clock rolls into epoch 1 while the filter still belongs to epoch 0
    assert v.authenticate(cap_for(cid, pm_key, 0, epoch=1), now=61) \
        is Decision.STALE_STATE


def test_pull_response_epoch_selection(cid, pm_key):
    v = make_verifier(pm_key)
    # manager one epoch ahead: its *current* filter is useless, next matches
    resp = ErcPullResp(empty(1), empty(2))
    assert not v.handle_pull_response(resp, now=0)       # nothing for epoch 0
    resp = ErcPullResp(empty(0), empty(1))
    assert v.handle_pull_response(resp, now=0)
    # after rollover the lagging response's next filter is the right one
    assert v.handle_pull_response(resp, now=61)
    assert v.erc_local.epoch_id == 1


def test_pull_response_incompatible_params(pm_key, caplog):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    other = FilterParams(4096, 4)
    resp = ErcPullResp(empty(0, other), empty(1, other))
    with caplog.at_level(logging.WARNING, logger="rangerevoke"):
        assert not v.handle_pull_response(resp, now=1)   # m differs
    assert [r.getMessage() for r in caplog.records] == ["v0: dropping incompatible filter"]


@pytest.mark.xfail(strict=True, reason=(
    "a verifier adopts its first filter whatever its shape, so a 4096-bit one "
    "locks out every honest 8192-bit one after it; refusing it needs the planned "
    "filter params in VerifierNode(...), whose call perfbench/workloads.py pins "
    "(ROADMAP item 1), or authenticated gossip (ROADMAP item 3)"))
def test_a_first_filter_of_another_shape_does_not_lock_out_honest_ones(pm_key):
    v = make_verifier(pm_key)
    other = FilterParams(4096, 4)
    v.handle_pull_response(ErcPullResp(empty(0, other), empty(1, other)), now=0)
    assert v.handle_pull_response(ErcPullResp(empty(0), empty(1)), now=1)


def test_make_pull_targets_known_manager(pm_key):
    v = make_verifier(pm_key)
    [out] = v.on_pull_timer(now=0)
    assert out.dst in ("pm0", "pm1")
    assert out.msg == ErcPullReq()


def test_deliver_takes_every_wire_message(pm_key, wire_messages):
    """No decoded message makes a verifier raise or answer; only a pull
    response with a filter of its epoch refreshes it."""
    v = make_verifier(pm_key)
    for label, msg in wire_messages:
        assert v.deliver("pm0", msg, now=1) == [], label
        assert (v.last_pull == 1) is (label == "pull-response"), label
        v.last_pull = None


def test_refused_messages_leave_no_trace(pm_key, hostile_messages):
    """A hostile message leaves a verifier's filter and freshness as they
    were, and draws no message."""
    v = make_verifier(pm_key)
    fresh(v, now=0)
    v.erc_local.add(b"revoked")
    held, bits = v.erc_local, bytes(v.erc_local.bits)
    for label, msg in hostile_messages:
        assert v.deliver("pm0", msg, now=1) == [], label
        assert v.erc_local is held and bytes(held.bits) == bits, label
        assert v.last_pull == 0, label


def test_retry_consumes_extras_on_false_positive(cid, pm_key):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    rrps = [create_rrp(cid, 0, i, pm_key, 8) for i in (1, 2, 3)]
    # simulate a filter false positive on the first pseudonym only
    v.erc_local.add(get_capability(rrps[0], 0, GEOMETRY).latchkeys[0].sig)
    decision, used = retry_with_extra_pseudonym(rrps, 0, GEOMETRY, v, now=1)
    assert decision is Decision.GRANTED and used == 2


def test_retry_does_not_mask_other_denials(cid, pm_key):
    v = make_verifier(pm_key)
    rrps = [create_rrp(cid, 0, 1, pm_key, 8)]
    decision, used = retry_with_extra_pseudonym(rrps, 0, GEOMETRY, v, now=1)
    assert decision is Decision.STALE_STATE and used == 1
    with pytest.raises(ValueError):
        retry_with_extra_pseudonym([], 0, GEOMETRY, v, now=1)


def test_retry_exhausts_pool(cid, pm_key):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    rrps = [create_rrp(cid, 0, i, pm_key, 8) for i in (1, 2)]
    for rrp in rrps:
        v.erc_local.add(get_capability(rrp, 0, GEOMETRY).latchkeys[-1].sig)
    decision, used = retry_with_extra_pseudonym(rrps, 0, GEOMETRY, v, now=1)
    assert decision is Decision.REVOKED and used == 2


# -- the genuineness cache ----------------------------------------------------

def counting(monkeypatch):
    """Count Ed25519 verifies and filter queries from here on."""
    counts = {"ver_sign": 0, "query": 0}

    def wrap(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(pseudonym, "ver_sign", wrap("ver_sign", pseudonym.ver_sign))
    monkeypatch.setattr(BloomFilter, "query", wrap("query", BloomFilter.query))
    return counts


def test_genuineness_is_checked_once_per_capability_in_its_slot(cid, pm_key,
                                                                monkeypatch):
    # the verify workload's geometry (T = 1,440, h = 11), one pseudonym shown
    # at consecutive slots
    cfg = EpochConfig(0, 86_400, 60)
    h = cfg.height
    v = VerifierNode("v0", pm_key.public, cfg, ["pm0"], random.Random(4),
                     pull_period=cfg.epoch_len, epsilon=5)
    fresh(v)
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    caps = [get_capability(rrp, slot, cfg) for slot in range(100, 106)]
    counts = counting(monkeypatch)

    def cost(cap, now):
        before = dict(counts)
        decision = v.authenticate(cap, now)
        return decision, counts["ver_sign"] - before["ver_sign"], \
            counts["query"] - before["query"]

    for earlier, cap in zip([None] + caps, caps):
        start = cap.slot * cfg.delta
        assert cost(cap, start + 1) == (Decision.GRANTED, h + 2, h + 1)
        # the clock's slot changed: nothing found genuine before is kept
        assert list(v._genuine.values()) == [cap]
        copy = codec.decode_capability(codec.encode_capability(cap))
        assert cost(copy, start + 30) == (Decision.GRANTED, 0, h + 1)
        if earlier is not None:       # the skew still admits the previous slot:
            # verified once more in the clock's slot, then remembered
            assert cost(earlier, start + 2) == (Decision.GRANTED, h + 2, h + 1)
            assert cost(earlier, start + 3) == (Decision.GRANTED, 0, h + 1)
            assert list(v._genuine.values()) == [cap, earlier]
    # a revocation merged between two showings denies the second
    v.erc_local.add(caps[-1].latchkeys[-1].sig)
    assert cost(caps[-1], caps[-1].slot * cfg.delta + 40) == \
        (Decision.REVOKED, 0, h + 1)


def flip(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]


def tampered(cap, rng):
    """A copy with one bit flipped in the endorsement or one latchkey."""
    at = rng.randrange(-1, len(cap.latchkeys))
    if at < 0:
        return replace(cap, endorsement=flip(cap.endorsement, rng))
    latchkeys = list(cap.latchkeys)
    latchkeys[at] = replace(latchkeys[at], sig=flip(latchkeys[at].sig, rng))
    return replace(cap, latchkeys=tuple(latchkeys))


def cache_free(v, cap, now):
    """The decision with no memory: every check, ``verify_capability`` then
    ``is_revoked``, on every showing."""
    epoch = now // GEOMETRY.epoch_len
    if v.last_pull is None or now - v.last_pull > v.staleness_limit \
            or v.erc_local.epoch_id != epoch:
        return Decision.STALE_STATE
    if cap.epoch_id != epoch:
        return Decision.WRONG_EPOCH
    start = epoch * GEOMETRY.epoch_len + cap.slot * GEOMETRY.delta
    if not start - v.epsilon <= now < start + GEOMETRY.delta + v.epsilon:
        return Decision.WRONG_SLOT
    if not verify_capability(cap, v.pm_public, cap.slot, GEOMETRY.with_epoch(epoch)):
        return Decision.NOT_GENUINE
    if is_revoked(v.erc_local, cap):
        return Decision.REVOKED
    return Decision.GRANTED


@pytest.mark.parametrize("seed", range(4))
def test_cache_never_changes_a_decision(pm_key, admin_key, monkeypatch, seed):
    """A seeded stream over three epochs of four slots: repeated showings,
    tampered copies, revocations merged between two showings of one
    capability, lapsed pulls, slots the skew admits or not, and epoch
    changes."""
    rng = random.Random(f"verifier-cache/{seed}")
    cids = [bytes([i + 1]) * 32 for i in range(3)]
    core = TrustedCore(pm_key, admin_key.public, GEOMETRY, PARAMS, 2)
    rrps = {}
    v = make_verifier(pm_key, epsilon=2)
    calls = []
    monkeypatch.setattr(verifier, "verify_capability",
                        lambda *args: calls.append(args) or verify_capability(*args))
    decisions = []

    def show(cap, now):
        decision = v.authenticate(cap, now)
        assert decision is cache_free(v, cap, now), (seed, now, cap)
        decisions.append(decision)
        return decision

    flipped = 0
    for now in range(3 * GEOMETRY.epoch_len):
        epoch, slot_now = divmod(now, GEOMETRY.epoch_len)
        slot_now //= GEOMETRY.delta
        if epoch > core.epoch_now:
            core.rotate_epoch()
        if rng.random() < 0.3 and not 100 <= now < 120:   # pulls lapse for 20 s
            v.handle_pull_response(ErcPullResp(core.erc_current, core.erc_next), now)
        granted = None
        for _ in range(rng.randrange(4)):
            cid, instance = rng.choice(cids), rng.randint(1, 2)
            cap_epoch = epoch - (rng.random() < 0.05)
            slot = slot_now + rng.choice((0, 0, 0, 0, -1, 1))
            if cap_epoch < 0 or not 0 <= slot < GEOMETRY.slots:
                continue
            if (cid, cap_epoch, instance) not in rrps:
                rrps[cid, cap_epoch, instance] = create_rrp(cid, cap_epoch, instance,
                                                            pm_key, 2)
            cap = get_capability(rrps[cid, cap_epoch, instance], slot,
                                 GEOMETRY.with_epoch(cap_epoch))
            if rng.random() < 0.2:
                cap = tampered(cap, rng)
            if show(cap, now) is Decision.GRANTED:
                granted = cid, cap
        if granted and rng.random() < 0.1:   # revoke it, then show it again
            cid, cap = granted
            order = RevocationOrder(cid, cap.slot, cap.epoch_id, b"")
            core.revoke(replace(order, admin_sig=det_sign(admin_key,
                                                          order.signed_payload())))
            v.handle_pull_response(ErcPullResp(core.erc_current, core.erc_next), now)
            flipped += show(cap, now) is Decision.REVOKED
    assert set(decisions) == set(Decision)
    assert flipped
    checked = sum(d in (Decision.GRANTED, Decision.REVOKED, Decision.NOT_GENUINE)
                  for d in decisions)
    assert 0 < len(calls) < checked    # some showings skipped the signatures
