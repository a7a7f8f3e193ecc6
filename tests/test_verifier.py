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


def test_slot_boundaries_are_exact(cid, pm_key):
    """A capability is granted from its slot's first to its last
    microsecond and refused one microsecond outside, also in an epoch's
    last, shorter slot (T = 4 slots of 15 in 50: the last one is 5 long)."""
    cfg = EpochConfig(0, 50, 15)
    v = VerifierNode("v0", pm_key.public, cfg, ["pm0"], random.Random(4),
                     pull_period=cfg.epoch_len)
    fresh(v, now=0)
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    for slot in range(cfg.slots):
        cap = get_capability(rrp, slot, cfg)
        first, last = slot * cfg.delta, min((slot + 1) * cfg.delta, cfg.epoch_len) - 1
        assert v.authenticate(cap, first) is Decision.GRANTED, slot
        assert v.authenticate(cap, last) is Decision.GRANTED, slot
        if slot > 0:
            assert v.authenticate(cap, first - 1) is Decision.WRONG_SLOT, slot
        if slot < cfg.slots - 1:
            assert v.authenticate(cap, last + 1) is Decision.WRONG_SLOT, slot
    assert last == 49 and last - first == 4
    # one microsecond after the last slot the clock is in the next epoch
    fresh(v, now=cfg.epoch_len, epoch=1)
    assert v.authenticate(cap, cfg.epoch_len) is Decision.WRONG_EPOCH


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


def test_pull_response_incompatible_params(pm_key):
    """A pull response of 4096-bit filters never reaches a verifier of the
    8192-bit plan: its bytes do not decode (m differs), so the verifier
    stays stale.  The same response built with the plan decodes and is
    taken."""
    v = make_verifier(pm_key)
    other = FilterParams(4096, 4)
    blob = codec.encode_message(ErcPullResp(empty(0, other), empty(1, other)))
    with pytest.raises((codec.Truncated, codec.TrailingBytes)):
        codec.decode_message(blob, PARAMS)
    assert v.erc_local is None
    resp = codec.decode_message(codec.encode_message(ErcPullResp(empty(0), empty(1))), PARAMS)
    assert v.handle_pull_response(resp, now=1)
    assert v.erc_local.m == PARAMS.m


def test_the_next_epochs_filter_takes_over_at_the_boundary(cid, pm_key, admin_key):
    """A pull at 50 s keeps epoch 1's filter, in which an epoch-0 order
    already wrote the client's roots: with no pull since, the client is
    denied right after the boundary and another client is granted."""
    core = TrustedCore(pm_key, admin_key.public, GEOMETRY, PARAMS, 8)
    order = RevocationOrder(cid, 2, 0, b"")
    core.revoke(replace(order, admin_sig=det_sign(admin_key, order.signed_payload())))
    v = make_verifier(pm_key)
    assert v.handle_pull_response(ErcPullResp(core.erc_current, core.erc_next), now=50)
    assert v.erc_next.epoch_id == 1
    assert v.authenticate(cap_for(cid, pm_key, 0, epoch=1), now=61) is Decision.REVOKED
    assert v.authenticate(cap_for(bytes(32), pm_key, 0, epoch=1), now=62) is Decision.GRANTED
    assert v.erc_local.epoch_id == 1 and v.erc_next is None


def test_a_held_next_filter_vouches_only_while_fresh(cid, pm_key):
    """Freshness still counts from the last pull: once pulls stop, the
    next epoch's filter is denied with everything else past the staleness
    limit, and a pull that counts with no next filter (from a manager an
    epoch behind) drops the one held."""
    cap = cap_for(cid, pm_key, 0, epoch=1)
    v = make_verifier(pm_key)
    fresh(v, now=50)
    assert v.authenticate(cap, now=65) is Decision.GRANTED
    assert v.authenticate(cap, now=66) is Decision.STALE_STATE
    v = make_verifier(pm_key)
    fresh(v, now=44)
    assert v.authenticate(cap, now=60) is Decision.STALE_STATE
    later = cap_for(cid, pm_key, 0, epoch=2)
    v = make_verifier(pm_key)
    fresh(v, now=100, epoch=1)
    assert v.handle_pull_response(ErcPullResp(empty(0), empty(1)), now=110)
    assert v.erc_next is None
    assert v.authenticate(later, now=121) is Decision.STALE_STATE


@pytest.mark.xfail(strict=True, reason=(
    "a verifier handed filter objects adopts its first one whatever its shape, "
    "and merging an honest 8192-bit one into a 4096-bit one then raises "
    "IncompatibleFilters; no such filter decodes from the wire, but refusing it "
    "here needs the planned filter params in VerifierNode(...), whose call "
    "perfbench/workloads.py pins (ROADMAP items 1 and 15)"))
def test_a_first_filter_of_another_shape_does_not_lock_out_honest_ones(pm_key):
    v = make_verifier(pm_key)
    other = FilterParams(4096, 4)
    v.handle_pull_response(ErcPullResp(empty(0, other), empty(1, other)), now=0)
    assert v.handle_pull_response(ErcPullResp(empty(0), empty(1)), now=1)


def test_make_pull_targets_known_manager(pm_key):
    v = make_verifier(pm_key)
    [out] = v.on_tick(now=0)
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
    held, bits, held_next = v.erc_local, bytes(v.erc_local.bits), v.erc_next
    for label, msg in hostile_messages:
        assert v.deliver("pm0", msg, now=1) == [], label
        assert v.erc_local is held and bytes(held.bits) == bits, label
        assert v.erc_next is held_next and not any(held_next.bits), label
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


def test_genuineness_is_remembered_for_the_last_genuine_capability(cid, pm_key,
                                                                  monkeypatch):
    # the verify workload's geometry (T = 1,440, h = 11), one pseudonym shown
    # at consecutive slots
    cfg = EpochConfig(0, 86_400, 60)
    h = cfg.height
    v = VerifierNode("v0", pm_key.public, cfg, ["pm0"], random.Random(4),
                     pull_period=cfg.epoch_len)
    fresh(v)
    rrp, other = (create_rrp(cid, 0, i, pm_key, 8) for i in (1, 2))
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
        # an equal copy costs no verify, only the filter queries
        copy = codec.decode_capability(codec.encode_capability(cap))
        assert cost(copy, start + 30) == (Decision.GRANTED, 0, h + 1)
        if earlier is not None:       # the previous slot's capability is refused
            assert cost(earlier, start + 2) == (Decision.WRONG_SLOT, 0, 0)
    # A, B, A within one slot: only the last genuine one is kept
    a, b = caps[-1], get_capability(other, caps[-1].slot, cfg)
    now = a.slot * cfg.delta + 40
    assert cost(b, now) == (Decision.GRANTED, h + 2, h + 1)
    assert cost(a, now) == (Decision.GRANTED, h + 2, h + 1)
    # a copy with one byte changed is verified afresh, and does not displace A
    forged = replace(a, endorsement=bytes([a.endorsement[0] ^ 1]) + a.endorsement[1:])
    decision, verifies, queries = cost(forged, now)
    assert decision is Decision.NOT_GENUINE and verifies > 0 and queries == 0
    assert cost(a, now) == (Decision.GRANTED, 0, h + 1)
    # a revocation merged between two showings denies the second
    v.erc_local.add(a.latchkeys[-1].sig)
    assert cost(a, now + 1) == (Decision.REVOKED, 0, h + 1)


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
    if not start <= now < start + GEOMETRY.delta:
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
    capability, lapsed pulls, adjacent slots and epoch changes."""
    rng = random.Random(f"verifier-cache/{seed}")
    cids = [bytes([i + 1]) * 32 for i in range(3)]
    core = TrustedCore(pm_key, admin_key.public, GEOMETRY, PARAMS, 2)
    rrps = {}
    v = make_verifier(pm_key)
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
            core.report()              # a lone manager's own report ends its epoch
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
