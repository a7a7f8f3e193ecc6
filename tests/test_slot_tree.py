import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import label_name, labels_under, leaves_under, parent_label, real_nodes_at
from rangerevoke.slot_tree import EpochConfig, NodeLabel, SlotRange, path_to_root, safe_cover


def names(labels, fanout=2):
    return sorted(label_name(l, fanout) for l in labels)


def cfg_for(slots: int, fanout: int = 2) -> EpochConfig:
    return EpochConfig(0, slots, 1, fanout)


# -- geometry ---------------------------------------------------------------

def test_slots_and_height():
    assert cfg_for(4).slots == 4
    assert cfg_for(4).height == 2
    assert cfg_for(1).height == 0
    assert cfg_for(6).height == 3          # padded to 8 virtual leaves
    assert EpochConfig(0, 86_400, 600).slots == 144
    assert EpochConfig(0, 86_400, 600).height == 8
    assert EpochConfig(0, 86_400, 60).height == 11
    assert EpochConfig(0, 100, 30).slots == 4   # ceil division


def test_config_validation():
    for epoch_len, delta in ((0, 1), (10, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            EpochConfig(0, epoch_len, delta)
    with pytest.raises(ValueError):
        EpochConfig(0, 10, 20)
    with pytest.raises(ValueError):
        EpochConfig(0, 10, 1, fanout=1)


def test_real_nodes_at():
    cfg = cfg_for(6)
    assert real_nodes_at(cfg, 3) == 6
    assert real_nodes_at(cfg, 2) == 3   # the 4th level-2 node is virtual
    assert real_nodes_at(cfg, 1) == 2
    assert real_nodes_at(cfg, 0) == 1


# -- labels -----------------------------------------------------------------

def test_label_names():
    assert label_name(NodeLabel(0, 0, 0)) == "e"
    assert label_name(NodeLabel(0, 1, 0)) == "e0"
    assert label_name(NodeLabel(0, 1, 1)) == "e1"
    assert label_name(NodeLabel(0, 2, 1)) == "e01"
    assert label_name(NodeLabel(0, 2, 5), 3) == "e12"


def test_canonical_bytes_injective():
    seen = set()
    for epoch in (0, 1):
        for level in (0, 1, 2):
            for index in (0, 1, 2):
                seen.add(NodeLabel(epoch, level, index).canonical_bytes)
    assert len(seen) == 18


def test_path_to_root(fig_cfg):
    path = path_to_root(fig_cfg, 0)
    assert [label_name(l) for l in path] == ["e00", "e0", "e"]
    assert len(path) == fig_cfg.height + 1
    with pytest.raises(ValueError):
        path_to_root(fig_cfg, 4)
    with pytest.raises(ValueError):
        path_to_root(fig_cfg, -1)


def test_parent_label(fig_cfg):
    leaf = NodeLabel(0, 2, 3)
    assert parent_label(fig_cfg, leaf) == NodeLabel(0, 1, 1)
    assert parent_label(fig_cfg, NodeLabel(0, 0, 0)) is None


def test_labels_under_and_leaves_under():
    cfg = cfg_for(6)
    root = NodeLabel(0, 0, 0)
    assert len(labels_under(cfg, root)) == 1 + 2 + 3 + 6
    assert list(leaves_under(cfg, NodeLabel(0, 1, 1))) == [4, 5]
    with pytest.raises(ValueError):
        labels_under(cfg, NodeLabel(0, 2, 3))   # virtual node


# -- covers -----------------------------------------------------------------

def test_worked_example_covers(fig_cfg):
    assert names(safe_cover(fig_cfg, SlotRange(1, 3))) == ["e01", "e1"]
    assert names(safe_cover(fig_cfg, SlotRange(0, 3))) == ["e"]
    assert names(safe_cover(fig_cfg, SlotRange(2, 2))) == ["e10"]


def test_cover_rejects_out_of_range(fig_cfg):
    with pytest.raises(ValueError):
        safe_cover(fig_cfg, SlotRange(0, 4))


def test_slot_range_validation():
    with pytest.raises(ValueError):
        SlotRange(3, 2)
    with pytest.raises(ValueError):
        SlotRange(-1, 2)
    assert 2 in SlotRange(1, 3)
    assert 0 not in SlotRange(1, 3)


def assert_cover_exact(cfg, rng):
    """The cover hits every in-range slot's path and no other path."""
    cover = safe_cover(cfg, rng)
    for slot in range(cfg.slots):
        on_path = set(path_to_root(cfg, slot)) & cover
        assert bool(on_path) == (slot in rng), (cfg.slots, rng, slot)
    # antichain: no covered node is an ancestor of another
    for label in cover:
        node = label
        while (node := parent_label(cfg, node)) is not None:
            assert node not in cover
    # minimal: no complete sibling group left uncollapsed
    for label in cover:
        parent = parent_label(cfg, label)
        if parent is not None:
            span = leaves_under(cfg, parent)
            assert not (span[0] in rng and span[-1] in rng), \
                f"{label} should have collapsed into {parent}"


def test_cover_exactness_small_sweep():
    for slots in range(1, 21):
        cfg = cfg_for(slots)
        for first in range(slots):
            for last in range(first, slots):
                assert_cover_exact(cfg, SlotRange(first, last))


def test_cover_exactness_ternary():
    for slots in (1, 3, 5, 9, 10):
        cfg = cfg_for(slots, fanout=3)
        for first in range(slots):
            for last in range(first, slots):
                assert_cover_exact(cfg, SlotRange(first, last))


def test_suffix_cover_is_logarithmic():
    for slots, bound in ((144, 8), (1440, 11)):
        cfg = cfg_for(slots)
        worst = max(len(safe_cover(cfg, SlotRange(s, slots - 1)))
                    for s in range(slots))
        assert worst <= bound


def test_full_epoch_cover_is_root():
    for slots in (1, 2, 5, 16, 144):
        cfg = cfg_for(slots)
        assert safe_cover(cfg, SlotRange(0, slots - 1)) == {NodeLabel(0, 0, 0)}


@settings(max_examples=120, deadline=None)
@given(data=st.data(), slots=st.integers(1, 64), fanout=st.integers(2, 4))
def test_cover_exactness_property(data, slots, fanout):
    cfg = cfg_for(slots, fanout)
    first = data.draw(st.integers(0, slots - 1))
    last = data.draw(st.integers(first, slots - 1))
    assert_cover_exact(cfg, SlotRange(first, last))


def bottom_up_cover(cfg, rng):
    """Reference cover built bottom-up: start from the range's leaves and
    replace a sibling group by its parent whenever every real leaf under
    that parent lies in the range."""
    current = {NodeLabel(cfg.epoch_id, cfg.height, s) for s in range(rng.first, rng.last + 1)}
    for level in range(cfg.height, 0, -1):
        by_parent = {}
        for lb in current:
            if lb.level == level:
                by_parent.setdefault(lb.index // cfg.fanout, []).append(lb)
        for parent_idx, group in by_parent.items():
            parent = NodeLabel(cfg.epoch_id, level - 1, parent_idx)
            span = leaves_under(cfg, parent)
            if span[0] in rng and span[-1] in rng:
                current -= set(group)
                current.add(parent)
    return current


def greedy_cover_size(cfg, rng):
    """Size of the minimal cover counted on slot indices alone: from the
    left end of the range, repeatedly take the widest aligned block
    (clamped to T) that starts there and stays inside the range."""
    count, pos = 0, rng.first
    while pos <= rng.last:
        width = 1
        while (width < cfg.fanout ** cfg.height and pos % (width * cfg.fanout) == 0
               and min(pos + width * cfg.fanout, cfg.slots) - 1 <= rng.last):
            width *= cfg.fanout
        count, pos = count + 1, pos + width
    return count


@pytest.mark.parametrize("fanout", [2, 3])
def test_cover_exhaustive_against_oracles(fanout):
    """Every range [a, b] for T <= 40: the cover meets exactly the in-range
    paths, equals the bottom-up construction and has the minimal size."""
    for slots in range(1, 41):
        cfg = cfg_for(slots, fanout)
        paths = [set(path_to_root(cfg, s)) for s in range(slots)]
        for first in range(slots):
            for last in range(first, slots):
                rng = SlotRange(first, last)
                cover = safe_cover(cfg, rng)
                for slot, path in enumerate(paths):
                    assert bool(path & cover) == (first <= slot <= last), (slots, rng, slot)
                assert cover == bottom_up_cover(cfg, rng), (slots, rng)
                assert len(cover) == greedy_cover_size(cfg, rng), (slots, rng)


def test_cover_is_logarithmic_at_a_million_slots():
    cfg = cfg_for(2**20)
    assert len(safe_cover(cfg, SlotRange(1, 2**20 - 1))) == 20
    assert len(safe_cover(cfg, SlotRange(1, 2**20 - 2))) == 38
