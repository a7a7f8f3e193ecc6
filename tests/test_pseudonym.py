import dataclasses

import pytest

from oracles import label_name
from rangerevoke.crypto import det_keygen, digest, ver_sign
from rangerevoke.pseudonym import (
    Latchkey,
    create_rrp,
    endorsement_message,
    get_capability,
    pseudonym_keypair,
    pseudonym_public_keys_of,
    verify_capability,
)
from rangerevoke.slot_tree import EpochConfig


def test_create_rrp_deterministic(cid, pm_key):
    a = create_rrp(cid, 3, 1, pm_key, 8)
    b = create_rrp(cid, 3, 1, pm_key, 8)
    assert a == b
    assert a.keypair.public != create_rrp(cid, 3, 2, pm_key, 8).keypair.public
    assert a.keypair.public != create_rrp(cid, 4, 1, pm_key, 8).keypair.public


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
