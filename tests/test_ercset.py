import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ExactSet,
    create_ercset,
    filter_positions,
    label_name,
    latchkeys_encoding,
    merge_latchkeys,
    query_every_position,
    remove_redundant,
    remove_unsafe,
)
from rangerevoke import sizing
from rangerevoke.crypto import digest
from rangerevoke.ercset import (
    BloomFilter,
    FilterParams,
    default_salt,
    is_revoked,
)
from rangerevoke.manager import revocation_cover_ercset
from rangerevoke.pseudonym import create_rrp, get_capability, pseudonym_keypair
from rangerevoke.slot_tree import EpochConfig, NodeLabel, SlotRange, safe_cover

PARAMS = FilterParams(8192, 4)


def caps_for(rng, cfg, cid, pm_key, instance=1):
    rrp = create_rrp(cid, cfg.epoch_id, instance, pm_key, 8)
    return [get_capability(rrp, s, cfg) for s in range(rng.first, rng.last + 1)]


# -- filters ----------------------------------------------------------------

def test_default_salt():
    assert default_salt(1) == default_salt(1)
    assert default_salt(1) != default_salt(2)
    assert len(default_salt(0)) == 16


def test_salt_derived_once_per_epoch():
    for epoch in (0, 1, 7, 2**63):
        assert default_salt(epoch) == digest(b"ercset-salt" + epoch.to_bytes(8, "big"))[:16]
    params = FilterParams(64, 2)
    a, b = BloomFilter(params, 5), BloomFilter(params, 5, bytes(8))
    b.add(b"x")
    assert a.salt is b.salt is default_salt(5)
    assert a.merged(b).salt is a.salt
    assert a.merged(b).query(b"x")


def test_filter_params_validation():
    with pytest.raises(ValueError):
        FilterParams(12, 4)     # not a byte multiple
    with pytest.raises(ValueError):
        FilterParams(0, 4)
    with pytest.raises(ValueError):
        FilterParams(8192, 0)


def test_bloom_bit_layout():
    """Bit i lives at byte i//8, mask 1 << (i % 8) — fixed for mergeability."""
    flt = BloomFilter(FilterParams(64, 1), 0)
    item = b"layout-probe"
    d = digest(item + flt.salt)
    g1 = int.from_bytes(d[:8], "big")
    pos = g1 % 64
    flt.add(item)
    assert flt.bits[pos // 8] == 1 << (pos % 8)
    assert sum(bin(b).count("1") for b in flt.bits) == 1


def test_bloom_add_query_no_false_negatives():
    flt = BloomFilter(PARAMS, 0)
    items = [digest(bytes([i])) for i in range(50)]
    for item in items:
        flt.add(item)
    assert all(flt.query(item) for item in items)


def test_bloom_merge_is_union():
    a, b = BloomFilter(PARAMS, 0), BloomFilter(PARAMS, 0)
    a.add(b"only-a")
    b.add(b"only-b")
    m = a.merged(b)
    assert m.query(b"only-a") and m.query(b"only-b")
    assert m == b.merged(a) and m.epoch_id == 0
    assert a.merged(a) == a         # idempotent


def test_bloom_merge_incompatible():
    a = BloomFilter(PARAMS, 0)
    with pytest.raises(ValueError):
        a.merged(BloomFilter(PARAMS, 1))
    with pytest.raises(ValueError):
        a.merged(BloomFilter(FilterParams(4096, 4), 0))


def test_merge_ercset_and_epoch_binding():
    """A merged revocation filter keeps its epoch and never joins a
    filter of another epoch."""
    a, b = BloomFilter(PARAMS, 0), BloomFilter(PARAMS, 0)
    a.add(b"x")
    merged = a.merged(b)
    assert merged.query(b"x")
    assert merged.epoch_id == 0
    with pytest.raises(ValueError):
        a.merged(BloomFilter(PARAMS, 1))


def test_bloom_rejects_bad_bits_length():
    with pytest.raises(ValueError):
        BloomFilter(PARAMS, 0, bits=b"\x00" * 3)


def test_exact_set_semantics():
    s = ExactSet(0)
    s.add(b"x")
    assert s.query(b"x") and not s.query(b"y")
    assert b"x" not in s.items          # one-way: stores digests only
    other = ExactSet(0)
    other.add(b"y")
    assert s.merged(other).query(b"y")
    with pytest.raises(ValueError):
        s.merged(ExactSet(1))


@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.binary(min_size=1, max_size=64), max_size=30))
def test_bloom_never_false_negative_property(items):
    flt = BloomFilter(PARAMS, 0)
    for item in items:
        flt.add(item)
    assert all(flt.query(item) for item in items)


def _planned(delta: int) -> FilterParams:
    """The `rangerevoke size` defaults for a one-day epoch at this slot
    length: 103,328 bits at 60 s slots and 70,608 at 600 s, the filters of
    the verify and manage benchmark workloads."""
    plan = sizing.plan_filter(sizing.DeploymentParams(
        clients=250_000_000, pseudonyms=10, revoked_fraction=1e-4 / 365,
        delta=delta), 0.001)
    return FilterParams(plan.m, plan.k)


class _CountingBits(bytearray):
    """A filter's bit array that counts the bytes read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("delta", [60, 600])
def test_query_stops_at_first_clear_bit_and_matches_every_position(delta):
    """``query`` answers as the reference that computes all k positions,
    on an empty, a half full and a full filter at the planned sizes.  It
    reads the positions in order j = 0, 1, ... and stops after the first
    clear one.  ``add`` sets exactly the reference's positions."""
    params = _planned(delta)
    assert params.k == 10 and params.m in (103_328, 70_608)
    rng = random.Random(delta)
    nbytes = params.m // 8
    added = [rng.randbytes(64) for _ in range(200)]
    fresh = [rng.randbytes(64) for _ in range(1000)]
    half = BloomFilter(params, 0, rng.randbytes(nbytes))
    want = bytearray(half.bits)
    for item in added:
        half.add(item)
        for i in filter_positions(half, item):
            want[i >> 3] |= 1 << (i & 7)
        assert half.bits == want
    filters = {"empty": BloomFilter(params, 0), "half": half,
               "full": BloomFilter(params, 0, b"\xff" * nbytes)}
    fill = sum(bin(b).count("1") for b in half.bits) / params.m
    assert 0.45 < fill < 0.55
    for name, flt in filters.items():
        flt.bits = _CountingBits(flt.bits)
        answers = []
        for item in added + fresh:
            is_set = [bool(flt.bits[i >> 3] & (1 << (i & 7)))
                      for i in filter_positions(flt, item)]
            flt.bits.reads = 0
            got = flt.query(item)
            assert flt.bits.reads == (is_set.index(False) + 1 if not all(is_set)
                                      else params.k), (name, item)
            assert got == query_every_position(flt, item) == all(is_set), (name, item)
            answers.append(got)
        if name == "half":
            assert all(answers[:len(added)]) and not all(answers[len(added):])
        else:
            assert set(answers) == {name == "full"}


# -- pipeline ---------------------------------------------------------------

def test_merge_latchkeys_rules(cid, pm_key, fig_cfg):
    caps = caps_for(SlotRange(0, 3), fig_cfg, cid, pm_key)
    merged = merge_latchkeys(caps)
    assert merged.pseudonym_pub == caps[0].pseudonym_pub
    # 4 leaves + 2 mid + 1 root distinct labels
    assert len(merged.latchkeys) == 7
    assert merge_latchkeys([]).pseudonym_pub == b""
    other = caps_for(SlotRange(0, 0), fig_cfg, cid, pm_key, instance=2)
    with pytest.raises(ValueError):
        merge_latchkeys(caps + other)


def test_merge_latchkeys_rejects_mixed_epochs(cid, pm_key, fig_cfg):
    a = caps_for(SlotRange(0, 0), fig_cfg, cid, pm_key)
    b = caps_for(SlotRange(0, 0), fig_cfg.with_epoch(1), cid, pm_key)
    with pytest.raises(ValueError):
        merge_latchkeys(a + b)


def test_remove_unsafe_drops_partial_ancestors(cid, pm_key, fig_cfg):
    caps = caps_for(SlotRange(1, 1), fig_cfg, cid, pm_key)
    merged = merge_latchkeys(caps)       # labels e01, e0, e
    safe = remove_unsafe(merged, fig_cfg)
    assert {label_name(l) for l in safe.labels} == {"e01"}


def test_remove_redundant_keeps_highest(cid, pm_key, fig_cfg):
    caps = caps_for(SlotRange(0, 3), fig_cfg, cid, pm_key)
    safe = remove_unsafe(merge_latchkeys(caps), fig_cfg)
    assert {label_name(l) for l in safe.labels} == {"e", "e0", "e1",
                                               "e00", "e01", "e10", "e11"}
    compact = remove_redundant(safe, fig_cfg)
    assert {label_name(l) for l in compact.labels} == {"e"}


def test_pipeline_worked_example(cid, pm_key, fig_cfg):
    caps = caps_for(SlotRange(1, 3), fig_cfg, cid, pm_key)
    erc = create_ercset(caps, fig_cfg, PARAMS)
    all_caps = caps_for(SlotRange(0, 3), fig_cfg, cid, pm_key)
    assert not is_revoked(erc, all_caps[0])
    assert all(is_revoked(erc, c) for c in all_caps[1:])


def test_cover_shortcut_is_bit_identical(cid, pm_key):
    """Signing only the minimal cover must build the exact same filter as
    running the full pipeline over every in-range capability."""
    for slots, first, last in ((4, 1, 3), (4, 0, 3), (7, 2, 5), (16, 5, 5),
                               (13, 0, 11), (32, 9, 30)):
        cfg = EpochConfig(2, slots, 1, 2)
        rng = SlotRange(first, last)
        caps = caps_for(rng, cfg, cid, pm_key)
        via_pipeline = create_ercset(caps, cfg, PARAMS)
        via_cover = revocation_cover_ercset(pseudonym_keypair(cid, 2, 1), 2,
                                            safe_cover(cfg, rng), PARAMS)
        assert via_pipeline == via_cover, (slots, first, last)


def test_latchkeys_encoding_inserts_each_latchkey(cid, pm_key, fig_cfg):
    caps = caps_for(SlotRange(0, 3), fig_cfg, cid, pm_key)
    lset = merge_latchkeys(caps)
    erc = latchkeys_encoding(lset, PARAMS, 0)
    manual = BloomFilter(PARAMS, 0)
    for lk in lset.latchkeys:
        manual.add(lk.sig)
    assert erc == manual
    assert all(erc.query(lk.sig) for lk in lset.latchkeys)


def test_safe_set_disjoint_from_unrevoked_slots(cid, pm_key):
    """No surviving latchkey ever appears in a capability for a slot
    outside the revoked range (what keeps old uses unlinkable)."""
    rng = random.Random(7)
    for _ in range(25):
        slots = rng.randint(1, 24)
        first = rng.randrange(slots)
        last = rng.randint(first, slots - 1)
        cfg = EpochConfig(0, slots, 1, 2)
        caps = caps_for(SlotRange(first, last), cfg, cid, pm_key)
        safe = remove_unsafe(merge_latchkeys(caps), cfg)
        for slot in range(slots):
            if first <= slot <= last:
                continue
            outside = set(get_capability(
                create_rrp(cid, 0, 1, pm_key, 8), slot, cfg).latchkeys)
            assert not (set(safe.latchkeys) & outside)


def test_root_only_revokes_everything(cid, pm_key, fig_cfg):
    caps = caps_for(SlotRange(0, 3), fig_cfg, cid, pm_key)
    erc = revocation_cover_ercset(pseudonym_keypair(cid, 0, 1), 0, {NodeLabel(0, 0, 0)},
                                  PARAMS)
    root = [lk for lk in caps[0].latchkeys if lk.label == NodeLabel(0, 0, 0)]
    manual = BloomFilter(PARAMS, 0)
    manual.add(root[0].sig)
    assert erc == manual
    assert all(is_revoked(erc, c) for c in caps)


def test_bloom_merge_matches_bytewise_or():
    """``merged`` is the bytewise OR of its inputs however each was built:
    from bits, empty and filled by ``add`` below and past the point where
    it stops recording positions, or by a merge.  It returns the receiver
    exactly when no bit is gained and modifies neither input, also when
    the one new bit is any single recorded position, and after ``add`` on
    a merge result or a decoded filter."""
    rnd = random.Random(3)
    for m in (8, 64, 8192, 70_608):
        params = FilterParams(m, 4)
        bound = m >> 8                      # positions a filter built empty records

        def from_bits(density):
            return BloomFilter(params, 0, bits=bytes(
                sum((rnd.random() < density) << j for j in range(8)) for _ in range(m // 8)))

        def by_add(items):
            flt = BloomFilter(params, 0)
            for _ in range(items):
                flt.add(rnd.randbytes(8))
            return flt

        below = by_add(bound // params.k)
        past = by_add(bound // params.k + 2)
        assert below._positions == {i for i in range(m) if below.bits[i >> 3] & (1 << (i & 7))}
        assert past._positions is None
        operands = [from_bits(d) for d in (0.0, 0.01, 0.5, 1.0)] + [
            below, past, by_add(0), by_add(bound // params.k // 2),
            from_bits(0.01).merged(below), below.merged(from_bits(0.01))]
        for a in operands:
            for b in operands:
                a_bits, b_bits = bytes(a.bits), bytes(b.bits)
                a_rec, b_rec = (None if f._positions is None else set(f._positions)
                                for f in (a, b))
                want = bytes(x | y for x, y in zip(a_bits, b_bits))
                merged = a.merged(b)
                assert bytes(merged.bits) == want, m
                assert merged == b.merged(a)                    # commutes
                assert merged.merged(merged) == merged          # idempotent
                assert merged.merged(a) == merged               # absorbs its inputs
                assert (merged.m, merged.k, merged.salt) == (m, params.k, a.salt)
                assert (bytes(a.bits), bytes(b.bits)) == (a_bits, b_bits)
                assert (a._positions, b._positions) == (a_rec, b_rec)
                # the receiver itself exactly when nothing is gained
                assert (merged is a) == (want == a_bits)
                assert merged is a or merged._positions is None
                assert merged.merged(BloomFilter(params, 0, bytes(merged.bits))) is merged
                subset = BloomFilter(params, 0, bits=bytes(x & y for x, y in zip(a_bits, b_bits)))
                assert a.merged(subset) is a
        # a gain of any one recorded position, over a receiver with other bits
        noise = from_bits(0.01)
        want = bytes(x | y for x, y in zip(noise.bits, below.bits))
        for pos in sorted(below._positions):
            bits = bytearray(want)
            bits[pos >> 3] &= ~(1 << (pos & 7))
            receiver = BloomFilter(params, 0, bits)
            merged = receiver.merged(below)
            assert merged is not receiver and bytes(merged.bits) == want
            assert receiver.bits == bits
        # add on a merge result and on a decoded filter, then merge both ways
        for flt in (noise.merged(below), BloomFilter(params, 0, bytes(noise.bits))):
            assert flt._positions is None
            flt.add(rnd.randbytes(8))
            for other in (below, from_bits(0.01)):
                want = bytes(x | y for x, y in zip(flt.bits, other.bits))
                assert bytes(flt.merged(other).bits) == bytes(other.merged(flt).bits) == want


def test_bloom_merge_incompatible_epoch_and_type():
    a = BloomFilter(PARAMS, 0)
    with pytest.raises(ValueError):
        a.merged(BloomFilter(PARAMS, 1))      # another epoch, so another salt
    with pytest.raises(ValueError):
        a.merged(BloomFilter(FilterParams(8192, 5), 0))
    with pytest.raises(ValueError):
        a.merged(ExactSet(0))
