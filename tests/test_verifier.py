import random

import pytest

from oracles import retry_with_extra_pseudonym
from rangerevoke.ercset import BloomFilter, ErcSet, FilterParams
from rangerevoke.messages import ErcPullResp
from rangerevoke.pseudonym import create_rrp, get_capability
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
    return ErcSet(BloomFilter(params, epoch))


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
    v.erc_local.filter.add(cap.latchkeys[-1].sig)   # revoke via the root
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
    v = make_verifier(pm_key)
    fresh(v, now=0)
    other = FilterParams(4096, 4)
    resp = ErcPullResp(empty(0, other), empty(1, other))
    assert not v.handle_pull_response(resp, now=1)       # m differs


def test_make_pull_targets_known_manager(pm_key):
    v = make_verifier(pm_key)
    target, req = v.make_pull(now=0)
    assert target in ("pm0", "pm1")
    assert req.epoch_id == 0


def test_retry_consumes_extras_on_false_positive(cid, pm_key):
    v = make_verifier(pm_key)
    fresh(v, now=0)
    rrps = [create_rrp(cid, 0, i, pm_key, 8) for i in (1, 2, 3)]
    # simulate a filter false positive on the first pseudonym only
    v.erc_local.filter.add(get_capability(rrps[0], 0, GEOMETRY).latchkeys[0].sig)
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
        v.erc_local.filter.add(get_capability(rrp, 0, GEOMETRY).latchkeys[-1].sig)
    decision, used = retry_with_extra_pseudonym(rrps, 0, GEOMETRY, v, now=1)
    assert decision is Decision.REVOKED and used == 2
