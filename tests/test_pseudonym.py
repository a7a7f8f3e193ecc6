import copy
import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import label_name, verify_capability_by_path
from rangerevoke import codec, pseudonym
from rangerevoke.crypto import det_keygen, det_sign, digest, ver_sign
from rangerevoke.pseudonym import (
    Latchkey,
    create_rrp,
    endorsement_message,
    get_capability,
    pseudonym_keypair,
    pseudonym_public_keys_of,
    verify_capability,
)
from rangerevoke.slot_tree import EpochConfig, NodeLabel, path_to_root


def test_create_rrp_deterministic(cid, pm_key):
    a = create_rrp(cid, 3, 1, pm_key, 8)
    b = create_rrp(cid, 3, 1, pm_key, 8)
    assert a == b
    assert a.keypair.public != create_rrp(cid, 3, 2, pm_key, 8).keypair.public
    assert a.keypair.public != create_rrp(cid, 4, 1, pm_key, 8).keypair.public


def test_repr_shows_no_private_seed(cid, pm_key):
    rrp = create_rrp(cid, 3, 1, pm_key, 8)
    for seed in (rrp.keypair.seed, pm_key.seed):
        assert repr(seed) not in repr(rrp.keypair) and repr(seed) not in repr(rrp)
    assert repr(rrp.keypair.public) in repr(rrp)


def test_create_rrp_validation(cid, pm_key):
    with pytest.raises(ValueError):
        create_rrp(b"short", 0, 1, pm_key, 8)
    with pytest.raises(ValueError):
        create_rrp(cid, 0, 0, pm_key, 8)
    with pytest.raises(ValueError):
        create_rrp(cid, 0, 9, pm_key, 8)


def test_endorsement_binds_epoch_and_key(cid, pm_key):
    rrp = create_rrp(cid, 3, 1, pm_key, 8)
    assert ver_sign(pm_key.public, endorsement_message(3, rrp.keypair.public),
                    rrp.endorsement)
    assert not ver_sign(pm_key.public,
                        endorsement_message(4, rrp.keypair.public),
                        rrp.endorsement)


def test_capability_shape(cid, pm_key, fig_cfg):
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    cap = get_capability(rrp, 2, fig_cfg)
    assert cap.slot == 2
    assert len(cap.latchkeys) == fig_cfg.height + 1
    assert [label_name(lk.label) for lk in cap.latchkeys] == ["e10", "e1", "e"]
    for lk in cap.latchkeys:
        assert ver_sign(rrp.keypair.public, lk.label.canonical_bytes, lk.sig)


def test_capability_epoch_mismatch(cid, pm_key, fig_cfg):
    rrp = create_rrp(cid, 1, 1, pm_key, 8)
    with pytest.raises(ValueError):
        get_capability(rrp, 0, fig_cfg)


def test_verify_capability_accepts_genuine(cid, pm_key, fig_cfg):
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    for slot in range(fig_cfg.slots):
        cap = get_capability(rrp, slot, fig_cfg)
        assert verify_capability(cap, pm_key.public, slot, fig_cfg)


def test_verify_capability_rejects_tampering(cid, pm_key, fig_cfg):
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    cap = get_capability(rrp, 1, fig_cfg)
    other = det_keygen(digest(b"not the pm"))
    assert not verify_capability(cap, pm_key.public, 2, fig_cfg)   # wrong slot
    assert not verify_capability(cap, other.public, 1, fig_cfg)    # wrong pm
    bad_sig = dataclasses.replace(cap, endorsement=b"\x00" * 64)
    assert not verify_capability(bad_sig, pm_key.public, 1, fig_cfg)
    flipped = dataclasses.replace(
        cap, latchkeys=(Latchkey(cap.latchkeys[0].label, b"\x01" * 64),)
        + cap.latchkeys[1:])
    assert not verify_capability(flipped, pm_key.public, 1, fig_cfg)
    truncated = dataclasses.replace(cap, latchkeys=cap.latchkeys[:-1])
    assert not verify_capability(truncated, pm_key.public, 1, fig_cfg)
    assert not verify_capability(cap, pm_key.public, 99, fig_cfg)  # bad slot


def test_verify_capability_rejects_wrong_epoch(cid, pm_key, fig_cfg):
    rrp = create_rrp(cid, 1, 1, pm_key, 8)
    cap = get_capability(rrp, 1, fig_cfg.with_epoch(1))
    assert verify_capability(cap, pm_key.public, 1, fig_cfg.with_epoch(1))
    assert not verify_capability(cap, pm_key.public, 1, fig_cfg)


def test_distinct_pseudonyms_share_no_bytes(cid, pm_key, fig_cfg):
    """Unlinkability basis: capabilities of different pseudonym instances
    have disjoint keys, endorsements and latchkey signatures."""
    tokens = []
    for instance in (1, 2, 3):
        rrp = create_rrp(cid, 0, instance, pm_key, 8)
        for slot in range(fig_cfg.slots):
            cap = get_capability(rrp, slot, fig_cfg)
            tokens.append({cap.pseudonym_pub, cap.endorsement}
                          | {lk.sig for lk in cap.latchkeys})
    for i, a in enumerate(tokens):
        for j, b in enumerate(tokens):
            same_instance = i // fig_cfg.slots == j // fig_cfg.slots
            if not same_instance:
                assert not a & b


def test_same_pseudonym_shares_root_latchkey(cid, pm_key, fig_cfg):
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    a = get_capability(rrp, 0, fig_cfg)
    b = get_capability(rrp, 3, fig_cfg)
    assert a.latchkeys[-1] == b.latchkeys[-1]      # shared root
    assert a.latchkeys[0] != b.latchkeys[0]        # distinct leaves


# one epoch, three trees: d = 2 over T = 10 and T = 16, d = 3 over T = 12
SAME_EPOCH = (EpochConfig(4, 600, 60, 2), EpochConfig(4, 960, 60, 2),
              EpochConfig(4, 720, 60, 3))
SHOWINGS = st.lists(st.tuples(st.sampled_from(range(len(SAME_EPOCH))), st.integers(-2, 17)),
                    max_size=30)


@functools.cache
def fresh_capability(cid: bytes, pm_key, instance: int, at: int, slot: int):
    """The capability of a pseudonym that built none before."""
    rrp = create_rrp(cid, 4, instance, pm_key, 8)
    return get_capability(rrp, slot, SAME_EPOCH[at])


def counted_signs():
    """Patch the pseudonym layer's ``det_sign`` with a mock that counts."""
    return mock.patch.object(pseudonym, "det_sign", side_effect=det_sign)


@settings(max_examples=60, deadline=None)
@given(showings=SHOWINGS)
def test_any_slot_sequence_gives_a_fresh_pseudonyms_capabilities(cid, pm_key, showings):
    """Whatever slots a pseudonym shows, in any order, repeated, in trees of
    fanout 2 and 3 over one epoch, and with slots outside the epoch raising
    in between, each capability equals a fresh pseudonym's and encodes to
    the same bytes; the last path never outgrows the tree."""
    rrp = create_rrp(cid, 4, 1, pm_key, 8)
    for at, slot in showings:
        cfg = SAME_EPOCH[at]
        if not 0 <= slot < cfg.slots:
            with pytest.raises(ValueError):
                get_capability(rrp, slot, cfg)
            continue
        cap = get_capability(rrp, slot, cfg)
        fresh = fresh_capability(cid, pm_key, 1, at, slot)
        assert cap == fresh and codec.encode_capability(cap) == codec.encode_capability(fresh)
        assert len(rrp.last_path) == cfg.height + 1


@settings(max_examples=30, deadline=None)
@given(at=st.sampled_from(range(len(SAME_EPOCH))), data=st.data())
def test_an_increasing_run_signs_each_label_once(cid, pm_key, at, data):
    """A run of increasing slots makes one signature per distinct label of
    the run's paths: a label that leaves the path never comes back."""
    cfg = SAME_EPOCH[at]
    slots = sorted(data.draw(st.sets(st.integers(0, cfg.slots - 1), min_size=1)))
    rrp = create_rrp(cid, 4, 2, pm_key, 8)
    with counted_signs() as signs:
        for slot in slots:
            get_capability(rrp, slot, cfg)
    assert signs.call_count == len({label for slot in slots for label in path_to_root(cfg, slot)})


def test_a_replaced_key_pair_starts_with_no_path(cid, pm_key):
    """``dataclasses.replace`` builds a pseudonym that shares no latchkey
    with the one it copies: its capabilities are the new key's."""
    cfg = SAME_EPOCH[0]
    rrp = create_rrp(cid, 4, 1, pm_key, 8)
    get_capability(rrp, 3, cfg)
    other = dataclasses.replace(rrp, keypair=pseudonym_keypair(cid, 4, 2))
    assert other.last_path == []
    cap = get_capability(other, 3, cfg)
    assert [lk.sig for lk in cap.latchkeys] == [
        lk.sig for lk in fresh_capability(cid, pm_key, 2, 0, 3).latchkeys]
    assert all(ver_sign(other.keypair.public, lk.label.canonical_bytes, lk.sig)
               for lk in cap.latchkeys)


def test_a_deep_copy_signs_identically(cid, pm_key):
    """A deep copy keeps its own last path: from then on it and the
    original build the same capabilities with the same signatures made."""
    cfg = SAME_EPOCH[1]
    rrp = create_rrp(cid, 4, 1, pm_key, 8)
    get_capability(rrp, 5, cfg)
    twin = copy.deepcopy(rrp)
    assert twin == rrp and twin.last_path == rrp.last_path
    assert twin.last_path is not rrp.last_path
    for holder in (rrp, twin):
        with counted_signs() as signs:
            caps = [get_capability(holder, slot, cfg) for slot in (6, 7, 2)]
        assert signs.call_count == 2 + 1 + 3      # slot 5 to 6, 6 to 7, 7 to 2
        assert caps == [fresh_capability(cid, pm_key, 1, 1, slot) for slot in (6, 7, 2)]


def test_pseudonym_public_keys_of(cid):
    keys = pseudonym_public_keys_of(cid, 7, 4)
    assert len(keys) == 4
    assert keys[1] == pseudonym_keypair(cid, 7, 2).public
    assert len(set(keys)) == 4


def test_tall_tree_capability(cid, pm_key):
    cfg = EpochConfig(5, 2**16, 1, 2)
    rrp = create_rrp(cid, 5, 1, pm_key, 8)
    cap = get_capability(rrp, 12345, cfg)
    assert len(cap.latchkeys) == 17
    assert verify_capability(cap, pm_key.public, 12345, cfg)


def _label_mutants(cap, rng):
    """(what changed, capability) for one latchkey, chosen at random, with
    each label field changed in turn, its label replaced by a tuple of the
    same fields and by None, and its signature flipped; plus the capability
    with a latchkey dropped, duplicated or moved, and with its own epoch,
    key or endorsement changed."""
    j = rng.randrange(len(cap.latchkeys))
    lk = cap.latchkeys[j]
    label = lk.label
    relabelled = {
        "epoch": NodeLabel(label.epoch_id + rng.choice((-1, 1)), label.level, label.index),
        "level": NodeLabel(label.epoch_id, label.level + rng.choice((-1, 1)), label.index),
        "index": NodeLabel(label.epoch_id, label.level, label.index + rng.choice((-1, 1))),
        "label type tuple": (label.epoch_id, label.level, label.index),
        "label type None": None,
    }
    flipped = bytearray(lk.sig)
    flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
    swaps = {what: Latchkey(new, lk.sig) for what, new in relabelled.items()}
    swaps["signature"] = Latchkey(label, bytes(flipped))
    for what, new in swaps.items():
        yield what, dataclasses.replace(
            cap, latchkeys=cap.latchkeys[:j] + (new,) + cap.latchkeys[j + 1:])
    latchkeys = cap.latchkeys
    for what, changed in (("length, no leaf", latchkeys[1:]),
                          ("length, no root", latchkeys[:-1]),
                          ("length, root twice", latchkeys + latchkeys[-1:]),
                          ("length, none", ()),
                          ("order", latchkeys[::-1])):
        yield what, dataclasses.replace(cap, latchkeys=changed)
    yield "capability epoch", dataclasses.replace(cap, epoch_id=cap.epoch_id + 1)
    yield "pseudonym key", dataclasses.replace(cap, pseudonym_pub=bytes(32))
    yield "endorsement", dataclasses.replace(cap, endorsement=bytes(64))


@pytest.mark.parametrize("cfg", [EpochConfig(0, 600, 60, 2), EpochConfig(2, 700, 60, 3)],
                         ids=["d=2", "d=3"])
def test_label_walk_matches_path_reference(cid, pm_key, cfg, monkeypatch):
    """``verify_capability`` gives the verdict of the reference that builds
    the slot's whole ``path_to_root``, over genuine capabilities and each
    field mutated, at expected slots inside and outside the epoch, and
    makes the same Ed25519 checks in the same order.  Neither raises.
    T = 10 at d = 2 and T = 12 at d = 3, so both trees have virtual leaves."""
    calls = []

    def recorded(public, message, sig):
        calls.append((public, message, sig))
        return ver_sign(public, message, sig)

    monkeypatch.setattr(pseudonym, "ver_sign", recorded)
    monkeypatch.setattr(oracles, "ver_sign", recorded)
    rng = random.Random(cfg.fanout)
    other_pm = det_keygen(digest(b"not the pm")).public
    for instance in (1, 2):
        rrp = create_rrp(cid, cfg.epoch_id, instance, pm_key, 8)
        for slot in rng.sample(range(cfg.slots), 4):
            cap = get_capability(rrp, slot, cfg)
            cases = [("genuine", cap, slot, pm_key.public),
                     ("other manager", cap, slot, other_pm)]
            cases += [(f"expected slot {s}", cap, s, pm_key.public)
                      for s in (slot - 1, slot + 1, -1, cfg.slots, 2**64)]
            cases += [(what, mutant, slot, pm_key.public)
                      for what, mutant in _label_mutants(cap, rng)]
            for what, presented, expected_slot, pm_public in cases:
                calls.clear()
                got = verify_capability(presented, pm_public, expected_slot, cfg)
                made = list(calls)
                calls.clear()
                want = verify_capability_by_path(presented, pm_public, expected_slot, cfg)
                assert (got, made) == (want, calls), (what, slot)
                assert got == (what == "genuine"), (what, slot)
