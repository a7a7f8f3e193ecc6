"""Analytical planner for revocation-filter deployments.

Closed-form models used when sizing the Bloom filter for a fleet:

* expected insertions per epoch,
  n = clients * pseudonyms * revoked_fraction * log_d(epoch/delta);
* the classic false-positive approximation (1 - (1 - 1/m)^(kn))^k;
* the per-capability false-positive rate 1 - (1 - x)^h (a capability is a
  chain of h latchkey probes, any one of which can collide);
* the probability that a client with M spare pseudonyms completes all p
  accesses despite per-capability false positives;
* one slot-locked cost model, ``storage_row``: a revoked client's entries
  per epoch under the tree cover vs under pseudonyms locked to single
  slots.  ``rangerevoke size`` gives it the p accesses as the demand and as
  the per-slot provisioning; ``storage_comparison`` gives it a
  trace-calibrated demand for ``rangerevoke storage-compare``.

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

    Starts from the textbook optimum m = -n ln(p) / (ln 2)^2 and gallops
    in doubling byte steps, down while the target still holds or up until
    it does, then bisects the last step: O(log m) rate evaluations where a
    byte-step walk took up to m/8 near the limit.  The search takes the
    rate at the optimal k to fall as m grows.  An optimum over 2**40 bits
    is refused, and so is a target that no filter up to 2**40 bits meets.
    """
    if not 0.0 < target_fp < 1.0:
        raise ValueError("target_fp must lie strictly between 0 and 1")
    n = expected_insertions(params)
    if n <= 0:
        m = 8
        return _result(params, n, m, 1)
    ideal = -n * math.log(target_fp) / (math.log(2) ** 2)
    if ideal > 2**40:
        raise ValueError(f"{n:.3g} expected insertions need a filter of about {ideal:.3g} "
                         "bits at this false-positive rate, over the 2**40-bit limit")

    def fits(size: int) -> bool:        # a filter of ``size`` bytes meets the target
        m = 8 * size
        return false_positive_rate(m, optimal_k(m, n), n) <= target_fp

    # sizes ``fail`` < ``fit`` in bytes bound the answer; 0 stands for "none below"
    start, step, limit = max(1, math.ceil(ideal) // 8), 1, 2**40 // 8
    if fits(start):
        fit = start
        while fit > step and fits(fit - step):
            fit, step = fit - step, 2 * step
        fail = max(0, fit - step)
    else:
        fail = start
        while not fits(fit := min(fail + step, limit)):
            if fit == limit:
                raise ValueError("target false-positive rate unreachable")
            fail, step = fit, 2 * step
    while fit - fail > 1:
        mid = (fail + fit) // 2
        fail, fit = (fail, mid) if fits(mid) else (mid, fit)
    m = 8 * fit
    return _result(params, n, m, optimal_k(m, n))


def _result(params: DeploymentParams, n: float, m: int, k: int) -> SizingResult:
    x = false_positive_rate(m, k, n)
    fp_cap = capability_false_positive(x, math.log(params.slots, params.fanout)
                                      if params.slots > 1 else 1.0)
    return SizingResult(
        n=n, m=m, k=k, fp_rate=x, fp_capability=fp_cap,
        full_access=full_access_probability(params.needed, params.extra, fp_cap),
    )


# -- storage sweep over (delta, epoch) --------------------------------------

DAY_SECONDS = 86_400
ENTRY_BYTES = 82   # certificate-sized revocation record for both schemes

# Synthetic urban-mobility demand calibrated to a heavy-tailed taxi trace:
# the busiest client needs 692 pseudonyms over a day, and sub-linearly more
# over longer epochs because trips repeat routes.  (days, pseudonyms):
_DEMAND_TRACE = ((1, 692), (30, 5_677), (365, 32_142))
DEMAND_EXPONENT = 0.65      # log-log slope outside the trace's points

# How the busiest slot-window demand shrinks as the window shrinks.  The
# busiest minute of the trace holds ~12 pseudonym changes out of 692/day:
# max-over-windows demand follows (delta/epoch)^0.62 to a good fit.
CONCENTRATION_EXPONENT = 0.62


def epoch_demand(epoch_seconds: float, daily: int = 692) -> int:
    """Pseudonyms the busiest client needs over one epoch, never falling as
    it grows: the trace's points joined in log-log, with slope
    ``DEMAND_EXPONENT`` past both ends, scaled by ``daily`` / 692."""
    if epoch_seconds <= 0:
        raise ValueError("epoch length must be positive")
    if daily < 1:
        raise ValueError(f"daily demand must be at least 1, got {daily}")
    days = epoch_seconds / DAY_SECONDS
    i = sum(d <= days for d, _ in _DEMAND_TRACE[1:])       # the last point at or below
    (d0, n0), (d1, n1) = _DEMAND_TRACE[i], _DEMAND_TRACE[min(i + 1, len(_DEMAND_TRACE) - 1)]
    slope = math.log(n1 / n0) / math.log(d1 / d0) if d0 <= days < d1 else DEMAND_EXPONENT
    return max(1, round(daily * n0 / 692 * (days / d0) ** slope))


def slot_demand(delta: float, epoch_seconds: float, demand: int) -> int:
    """Pseudonyms a slot-locked scheme must provision per slot: the busiest
    single window of length ``delta`` in the trace."""
    if not 0 < delta <= epoch_seconds:
        raise ValueError("need 0 < delta <= epoch")
    return min(demand, max(1, math.ceil(demand * (delta / epoch_seconds)**CONCENTRATION_EXPONENT)))


@dataclass(frozen=True)
class StorageRow:
    """One client's revocation entries per epoch at one (delta, epoch)."""

    delta: float
    epoch_seconds: float
    slots: int
    demand: int              # the client's pseudonyms per epoch
    per_slot: int            # slot-locked provisioning per slot
    tree_entries: int        # demand * max(1, h)
    flat_entries: int        # per_slot * T, also the slot-locked pseudonyms issued

    @property
    def tree_kb(self) -> float:
        return self.tree_entries * ENTRY_BYTES / 1024

    @property
    def flat_kb(self) -> float:
        return self.flat_entries * ENTRY_BYTES / 1024

    @property
    def ratio(self) -> float:
        return self.flat_entries / self.tree_entries


def storage_row(delta: float, epoch_seconds: float, fanout: int,
                demand: int, per_slot: int) -> StorageRow:
    """Revocation entries for one client over one epoch under range-revocation
    (a tree cover of at most max(1, h) latchkeys for each of its ``demand``
    pseudonyms) vs a slot-locked scheme (one entry for each of the
    ``per_slot`` pseudonyms locked to each of the T slots)."""
    slots = math.ceil(epoch_seconds / delta)
    height = max(1, tree_height(slots, fanout))
    return StorageRow(
        delta=delta, epoch_seconds=epoch_seconds, slots=slots,
        demand=demand, per_slot=per_slot,
        tree_entries=demand * height,
        flat_entries=per_slot * slots,
    )


def storage_comparison(delta: float, epoch_seconds: float,
                       fanout: int = 2, daily_demand: int = 692) -> StorageRow:
    """``storage_row`` for the busiest client of the calibrated trace: its
    epoch demand, and a slot-locked scheme provisioned for its busiest
    window of length ``delta``."""
    demand = epoch_demand(epoch_seconds, daily_demand)
    return storage_row(delta, epoch_seconds, fanout, demand,
                       slot_demand(delta, epoch_seconds, demand))
