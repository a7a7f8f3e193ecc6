import math

import pytest
from scipy import stats

from oracles import full_access_probability_as_printed
from rangerevoke import sizing
from rangerevoke.sizing import (
    DeploymentParams,
    capability_false_positive,
    compare_linear_scheme,
    epoch_demand,
    expected_insertions,
    false_positive_rate,
    full_access_probability,
    optimal_k,
    plan_filter,
    slot_demand,
    storage_comparison,
)
from rangerevoke.slot_tree import EpochConfig

FLEET = DeploymentParams(clients=2.5e8, pseudonyms=10,
                         revoked_fraction=1e-4 / 365,
                         epoch_len=86_400, delta=600)


def with_slots(slots: int) -> DeploymentParams:
    return DeploymentParams(clients=2.5e8, pseudonyms=10,
                            revoked_fraction=1e-4 / 365,
                            epoch_len=600 * slots, delta=600)


def test_expected_insertions_reference():
    assert abs(expected_insertions(FLEET) - 4911) < 1


def test_expected_insertions_edge_cases():
    none = DeploymentParams(clients=100, pseudonyms=10, revoked_fraction=0.0,
                            epoch_len=86_400, delta=600)
    assert expected_insertions(none) == 0.0
    single = DeploymentParams(clients=100, pseudonyms=10, revoked_fraction=0.5,
                              epoch_len=600, delta=600)
    assert expected_insertions(single) == 100 * 10 * 0.5   # one slot, no tree


def test_insertion_growth_factor():
    ratio = expected_insertions(with_slots(1440)) / expected_insertions(FLEET)
    assert round(ratio, 2) == 1.46


def test_params_validation():
    with pytest.raises(ValueError):
        DeploymentParams(clients=0, pseudonyms=10, revoked_fraction=0.1)
    with pytest.raises(ValueError):
        DeploymentParams(clients=10, pseudonyms=10, revoked_fraction=1.5)
    with pytest.raises(ValueError):
        DeploymentParams(clients=10, pseudonyms=10, revoked_fraction=0.1,
                         epoch_len=100, delta=600)


def test_false_positive_rate():
    assert false_positive_rate(8192, 4, 0) == 0.0
    m = 1 << 20
    n = m * math.log(2)
    assert abs(false_positive_rate(m, 1, n) - 0.5) < 0.01
    nine_kb = false_positive_rate(9 * 8192, optimal_k(9 * 8192, 4911), 4911)
    assert abs(nine_kb - 0.001) < 0.0005
    with pytest.raises(ValueError):
        false_positive_rate(0, 1, 10)


def test_optimal_k():
    assert optimal_k(8192, 0) == 1
    assert optimal_k(1000, 100_000) == 1       # clamped
    assert optimal_k(9 * 8192, 4911) == 10


def test_capability_false_positive():
    assert capability_false_positive(0.0, 8) == 0.0
    assert abs(capability_false_positive(0.001, 7.17)
               - (1 - 0.999**7.17)) < 1e-12
    with pytest.raises(ValueError):
        capability_false_positive(1.5, 8)


def test_full_access_probability_reference():
    # p=10 accesses, per-capability FP 0.1%
    fail0 = 1.0 - full_access_probability(10, 0, 0.001)
    assert abs(fail0 - 0.01) < 0.002
    fail4 = 1.0 - full_access_probability(10, 4, 0.001)
    assert fail4 <= 5e-12
    assert full_access_probability(10, 0, 0.0) == 1.0


@pytest.mark.parametrize("p", [1, 10, 100, 1000, 10**4])
def test_full_access_probability_matches_scipy_binomial_cdf(p):
    for extra in (0, 1, 4, 50):
        for q in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 1.0):
            expected = float(stats.binom.cdf(extra, p + extra, q))
            got = full_access_probability(p, extra, q)
            assert abs(got - expected) <= 1e-10, (p, extra, q, got, expected)
            assert 0.0 <= got <= 1.0


def test_one_integer_tree_height_everywhere():
    # a float log_d T gave 4 for T = 125, d = 5 and T = 216, d = 6
    for fanout in range(2, 11):
        for slots in range(2, 5001):
            height = EpochConfig(0, slots, 1, fanout).height
            assert fanout ** (height - 1) < slots <= fanout**height
            params = DeploymentParams(clients=1, pseudonyms=1, revoked_fraction=0,
                                      fanout=fanout, epoch_len=slots, delta=1,
                                      needed=1)
            assert params.tree_height == height, (slots, fanout)
            assert compare_linear_scheme(params).revocation_entries_tree == height
            row = storage_comparison(1, slots, fanout, daily_demand=1)
            assert row.tree_entries == row.demand * height, (slots, fanout)


def test_full_access_probability_as_printed_diverges_for_large_p():
    exact = full_access_probability(1000, 0, 0.001)
    printed = full_access_probability_as_printed(1000, 0, 0.001)
    assert abs(exact - math.exp(-1)) < 0.01     # ~0.368
    assert abs(printed - 0.63) < 0.01           # the published figure
    # they agree when failure probability is small
    assert abs(full_access_probability(10, 2, 0.001)
               - full_access_probability_as_printed(10, 2, 0.001)) < 1e-9


def test_plan_filter_reference_sizes():
    day = plan_filter(FLEET, 0.001)
    assert abs(day.n - 4911) < 1
    assert day.m_kb == 9
    assert day.fp_rate <= 0.001
    minute = plan_filter(with_slots(1440), 0.001)
    assert abs(minute.m_kb - 13) <= 1


def test_plan_filter_is_minimal_whole_byte():
    result = plan_filter(FLEET, 0.001)
    assert result.m % 8 == 0
    smaller = result.m - 8
    assert false_positive_rate(smaller, optimal_k(smaller, result.n),
                               result.n) > 0.001


def test_plan_filter_validation_and_degenerate():
    with pytest.raises(ValueError):
        plan_filter(FLEET, 0.0)
    empty = DeploymentParams(clients=10, pseudonyms=1, revoked_fraction=0.0,
                             epoch_len=86_400, delta=600)
    assert plan_filter(empty, 0.001).m == 8


def test_compare_linear_scheme_growth():
    a = compare_linear_scheme(with_slots(144))
    b = compare_linear_scheme(with_slots(1440))
    assert b.revocation_entries_tree / a.revocation_entries_tree == 11 / 8
    assert b.revocation_entries_linear / a.revocation_entries_linear == 10
    assert a.client_pseudonyms_linear == 10 * 144
    assert a.client_pseudonyms_tree == 10


def test_compare_linear_single_slot_equal():
    c = compare_linear_scheme(with_slots(1))
    assert c.revocation_entries_tree == c.revocation_entries_linear
    assert c.client_pseudonyms_tree == c.client_pseudonyms_linear


# -- storage sweep ----------------------------------------------------------

YEAR = 365 * 86_400


def test_epoch_demand_presets():
    assert epoch_demand(86_400) == 692
    assert epoch_demand(30 * 86_400) == 5_677
    assert epoch_demand(YEAR) == 32_142
    assert epoch_demand(2 * 86_400) > 692


def test_slot_demand_monotone_and_bounded():
    demand = 692
    values = [slot_demand(d, 86_400, demand) for d in (1, 60, 900, 21_600, 86_400)]
    assert values == sorted(values)
    assert values[-1] == demand
    assert values[0] >= 1


def test_storage_comparison_year_gap():
    row = storage_comparison(1, YEAR)
    assert abs(row.ratio - 39) < 1
    assert 6.0e4 < row.tree_kb < 7.0e4
    assert 2.4e6 < row.flat_kb < 2.6e6


def test_storage_comparison_single_slot_equal():
    row = storage_comparison(86_400, 86_400)
    assert row.tree_entries == row.flat_entries


def test_storage_comparison_crossover():
    fine = storage_comparison(60, 86_400)        # one-minute slots
    assert fine.tree_entries <= fine.flat_entries
    coarse = storage_comparison(21_600, 86_400)  # six-hour slots
    assert coarse.flat_entries < coarse.tree_entries


def test_storage_comparison_validation():
    with pytest.raises(ValueError):
        sizing.slot_demand(0, 100, 10)
    with pytest.raises(ValueError):
        sizing.epoch_demand(0)
