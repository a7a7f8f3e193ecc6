"""System-level acceptance gate.

Each test checks one end-to-end guarantee at a pinned tolerance and prints
a single verdict line (``ACCEPTANCE <n> PASS/FAIL: ...``) before asserting,
so a full run yields one greppable line per criterion.
"""

import math
import os
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from oracles import (
    ExactSet,
    label_name,
    labels_under,
    merge_latchkeys,
    remove_redundant,
    remove_unsafe,
)
from rangerevoke.codec import decode_capability, encode_capability
from rangerevoke.crypto import det_keygen, det_sign, digest, seed_from_parts
from rangerevoke.ercset import BloomFilter, FilterParams, is_revoked
from rangerevoke.manager import TrustedCore
from rangerevoke.messages import EpochReport, RequestRrp, RevocationOrder
from rangerevoke.pseudonym import (
    Capability,
    Latchkey,
    create_rrp,
    get_capability,
    pseudonym_keypair,
    verify_capability,
)
from rangerevoke.scenario import SCENARIO_DIR, parse_scenario
from rangerevoke.simnet import (
    MICRO,
    Action,
    CrashWindow,
    SimConfig,
    Simulation,
)
from rangerevoke.sizing import (
    DeploymentParams,
    expected_insertions,
    full_access_probability,
    plan_filter,
    storage_row,
)
from rangerevoke.slot_tree import (
    EpochConfig,
    NodeLabel,
    SlotRange,
    path_to_root,
    safe_cover,
)


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- 1: four-slot worked example, symbolic ----------------------------------

def test_01_four_slot_worked_example():
    cfg = EpochConfig(0, 60, 15, 2)
    pm_key = det_keygen(seed_from_parts(b"acceptance-pm", 0))
    cap = get_capability(create_rrp(b"\x07" * 32, 0, 1, pm_key, 8), 0, cfg)
    path = [label_name(lk.label) for lk in cap.latchkeys]
    cover_tail = {label_name(lb) for lb in safe_cover(cfg, SlotRange(1, 3))}
    cover_all = {label_name(lb) for lb in safe_cover(cfg, SlotRange(0, 3))}
    ok = (path == ["e00", "e0", "e"]
          and cover_tail == {"e01", "e1"}
          and cover_all == {"e"})
    assert verdict(1, ok,
                   f"slot-0 capability path {path}, cover(1..3) "
                   f"{sorted(cover_tail)}, cover(0..3) {sorted(cover_all)}")


# -- 2 + 3: exhaustive sweep over every contiguous range, T = 1..64 ---------

@pytest.fixture(scope="session")
def exhaustive_sweep():
    """For every T in 1..64 (binary tree) and every contiguous slot range:
    build the exact-set revocation filter through the full pipeline, then
    record membership mismatches (criterion 2) and any overlap between the
    safe latchkey set and latchkeys of non-revoked slots (criterion 3)."""
    key = det_keygen(seed_from_parts(b"acceptance-sweep", 0))
    mismatches, leaks, n_ranges = [], [], 0
    for t in range(1, 65):
        cfg = EpochConfig(0, t, 1, 2)
        paths = {s: path_to_root(cfg, s) for s in range(t)}
        latchkey = {}       # one object per label: capabilities share them
        for path in paths.values():
            for label in path:
                if label not in latchkey:
                    latchkey[label] = Latchkey(label, det_sign(key, label.canonical_bytes))
        caps = {
            s: Capability(0, key.public, b"\x00" * 64,
                          tuple(latchkey[lb] for lb in paths[s]))
            for s in range(t)
        }
        slot_sigs = [{latchkey[lb].sig for lb in paths[s]} for s in range(t)]
        for first in range(t):
            for last in range(first, t):
                n_ranges += 1
                in_range = range(first, last + 1)
                merged = merge_latchkeys([caps[s] for s in in_range])
                safe = remove_unsafe(merged, cfg)
                compact = remove_redundant(safe, cfg)
                erc = ExactSet(0)
                for lk in compact.latchkeys:
                    erc.add(lk.sig)
                for s in range(t):
                    if is_revoked(erc, caps[s]) != (first <= s <= last):
                        mismatches.append((t, first, last, s))
                safe_sigs = {lk.sig for lk in safe.latchkeys}
                if any(not safe_sigs.isdisjoint(slot_sigs[s])
                       for s in range(t) if s not in in_range):
                    leaks.append((t, first, last))
    return mismatches, leaks, n_ranges


def test_02_exhaustive_revocation_oracle(exhaustive_sweep):
    mismatches, _, n_ranges = exhaustive_sweep
    ok = not mismatches
    detail = (f"{n_ranges} (T, range) combinations for T=1..64, "
              f"membership mismatches: {len(mismatches)}")
    if mismatches:
        detail += f", first: {mismatches[:3]}"
    assert verdict(2, ok, detail)


def test_03_safe_set_disjoint_from_unrevoked_slots(exhaustive_sweep):
    _, leaks, n_ranges = exhaustive_sweep
    ok = not leaks
    detail = (f"{n_ranges} (T, range) combinations, safe-set latchkeys "
              f"leaking into non-revoked slots: {len(leaks)}")
    if leaks:
        detail += f", first: {leaks[:3]}"
    assert verdict(3, ok, detail)


# -- 4: closed-form filter sizing -------------------------------------------

FLEET = dict(clients=250e6, pseudonyms=10, revoked_fraction=1e-4 / 365,
             fanout=2, epoch_len=86_400)


def test_04_filter_sizing():
    ten_min = plan_filter(DeploymentParams(**FLEET, delta=600), 1e-3)
    one_min = plan_filter(DeploymentParams(**FLEET, delta=60), 1e-3)
    growth = (expected_insertions(DeploymentParams(**FLEET, delta=60))
              / expected_insertions(DeploymentParams(**FLEET, delta=600)))
    ok = (abs(ten_min.n - 4911) <= 1
          and ten_min.m_kb == 9
          and abs(one_min.m_kb - 13) <= 1
          and round(growth, 2) == 1.46)
    assert verdict(4, ok,
                   f"n={ten_min.n:.1f} (want 4911±1), filter {ten_min.m_kb} KB "
                   f"at T=144 (want 9), {one_min.m_kb} KB at T=1440 (want "
                   f"13±1), insertion growth {growth:.4f} (want 1.46)")


# -- 5: empirical false-positive rate of the planned filter -----------------

def test_05_empirical_false_positive_rate():
    plan = plan_filter(DeploymentParams(**FLEET, delta=600), 1e-3)
    flt = BloomFilter(FilterParams(plan.m, plan.k), 0)
    rng = random.Random(5)
    for _ in range(round(plan.n)):
        flt.add(rng.randbytes(32))
    probes = 1_000_000
    hits = sum(flt.query(rng.randbytes(32)) for _ in range(probes))
    rate = hits / probes
    ok = 0.0008 <= rate <= 0.0012
    assert verdict(5, ok,
                   f"{hits} hits / {probes} fresh probes -> {rate:.5f} "
                   f"(m={plan.m}, k={plan.k}, n={round(plan.n)}; "
                   f"want 0.001 +/- 20%)")


# -- 6: spare-pseudonym failure model vs Monte Carlo ------------------------

def test_06_spare_pseudonym_failure_model():
    needed, fp_cap, trials = 10, 1e-3, 10_000_000
    fail_none = 1.0 - full_access_probability(needed, 0, fp_cap)
    fail_four = 1.0 - full_access_probability(needed, 4, fp_cap)
    draws = np.random.default_rng(6).binomial(needed, fp_cap, trials)
    mc = float((draws > 0).mean())
    sigma = math.sqrt(fail_none * (1.0 - fail_none) / trials)
    ok = (abs(fail_none - 0.01) <= 0.002
          and fail_four <= 5e-12
          and abs(mc - fail_none) <= 3 * sigma)
    assert verdict(6, ok,
                   f"failure {fail_none:.5f} with no spares (want ~1%), "
                   f"{fail_four:.2e} with 4 spares (want <= 5e-12), "
                   f"Monte Carlo {mc:.5f} over {trials} trials "
                   f"(|diff| {abs(mc - fail_none):.2e} <= 3 sigma "
                   f"{3 * sigma:.2e})")


# -- 7: logarithmic growth of revocation state ------------------------------

def test_07_logarithmic_revocation_growth():
    # a client showing p = 10 pseudonyms; slot-locked, 10 in each slot
    ten_min, one_min = (storage_row(delta, FLEET["epoch_len"], FLEET["fanout"], 10, 10)
                        for delta in (600, 60))
    tree_growth = one_min.tree_entries / ten_min.tree_entries
    flat_growth = one_min.flat_entries / ten_min.flat_entries
    # end-to-end: actual suffix covers at both resolutions
    cover_144 = safe_cover(EpochConfig(0, 144, 1, 2), SlotRange(1, 143))
    cover_1440 = safe_cover(EpochConfig(0, 1440, 1, 2), SlotRange(1, 1439))
    ok = (tree_growth == 11 / 8 and flat_growth == 10.0
          and len(cover_144) <= 8 and len(cover_1440) <= 11
          and len(cover_1440) / len(cover_144) <= 11 / 8)
    assert verdict(7, ok,
                   f"entry growth T=144->1440: tree {tree_growth:.4f} "
                   f"(want 11/8), slot-locked {flat_growth:.1f}x (want 10x); "
                   f"measured suffix covers {len(cover_144)} and "
                   f"{len(cover_1440)} entries")


# -- 8: distributed safety over all small crash topologies ------------------

def _safety_cfg(n_pms: int, crash_node: str | None, seed: int,
                horizon_s: int, down_at: int = 25 * MICRO) -> SimConfig:
    """``crash_node`` is down from ``down_at`` to 80 s; the order at 30 s
    goes to pm0 unless pm0 is already down by then."""
    s = MICRO

    def pm(i: int) -> str:
        return f"pm{i % n_pms}"

    script = [
        Action(2 * s, "request", {"client": 0, "count": 6, "pm": pm(0)}),
        Action(3 * s, "request", {"client": 1, "count": 6, "pm": pm(1)}),
        Action(8 * s, "authenticate", {"client": 0}),
        Action(10 * s, "authenticate", {"client": 1}),
        Action(20 * s, "request",
               {"client": 0, "count": 4, "epoch": 1, "pm": pm(1)}),
        Action(21 * s, "request",
               {"client": 1, "count": 4, "epoch": 1, "pm": pm(2)}),
        Action(30 * s, "revoke",
               {"client": 0,
                "pm": pm(1) if crash_node == "pm0" and down_at <= 30 * s else pm(0)}),
        Action(36 * s, "authenticate", {"client": 0}),
        Action(50 * s, "authenticate", {"client": 0}),
        Action(70 * s, "authenticate", {"client": 0}),
    ]
    # the revoked client shops for epoch-2 pseudonyms at *every* manager:
    # during epoch 1 (before and after the crashed node recovers) and,
    # for the long horizon, during epoch 2 itself
    request_times = [74, 84]
    if horizon_s > 120:
        request_times.append(125)
    for base in request_times:
        for i in range(n_pms):
            script.append(Action((base + i) * s + s // 2, "request",
                                 {"client": 0, "count": 2, "epoch": 2,
                                  "pm": f"pm{i}"}))
    crashes = (CrashWindow(crash_node, down_at, 80 * s),) if crash_node else ()
    return SimConfig(seed=seed, n_pms=n_pms, fault_bound=1, n_verifiers=1,
                     n_clients=2, epoch_len=60 * s, delta=15 * s,
                     delta_net=100_000, crashes=crashes, script=tuple(script),
                     horizon=horizon_s * s, gossip_timeout=5 * s,
                     pull_period=5 * s)


def test_08_distributed_safety_exhaustive():
    # every <=1-crash subset, down from 25 s; then the entry manager pm0
    # down from within delta_net (100 ms) of the order at 30 s, so that
    # the order may or may not reach it first
    schedules = [(n_pms, crash, 25 * MICRO) for n_pms in (3, 4, 5)
               for crash in [None] + [f"pm{i}" for i in range(n_pms)]]
    schedules += [(n_pms, "pm0", 30 * MICRO + ms * 1000) for n_pms in (3, 4, 5)
                for ms in (10, 50, 99)]
    runs = 0
    grant_violations, convergence_failures = [], []
    for horizon_s, final_epoch in ((100, 1), (150, 2)):
        for n_pms, crash, down_at in schedules:
            for seed in (1, 2, 3):
                runs += 1
                sim = Simulation(_safety_cfg(n_pms, crash, seed, horizon_s, down_at))
                report = sim.run()
                case = (n_pms, crash, down_at, seed, horizon_s)
                if any(r.granted for r in report.issuance
                       if r.client == 0 and r.epoch_id == 2):
                    grant_violations.append(case)
                correct = set(sim.correct_pms())
                rows = [r for r in report.pm_state if r[0] in correct]
                converged = (
                    all(r[1] == final_epoch and r[2] == "serving"
                        for r in rows)
                    and len({r[3] for r in rows}) == 1
                    and len({r[4] for r in rows}) == 1)
                if not converged:
                    convergence_failures.append(case)
    ok = not grant_violations and not convergence_failures
    detail = (f"{runs} runs (N in 3..5, f=1, every <=1-crash subset and the entry "
              f"manager down 10..99 ms after the order, 3 delay schedules, "
              f"2 horizons): epoch-2 grants to the revoked client: "
              f"{len(grant_violations)}, correct-manager convergence "
              f"failures: {len(convergence_failures)}")
    if grant_violations or convergence_failures:
        detail += f", first: {(grant_violations + convergence_failures)[:3]}"
    assert verdict(8, ok, detail)


def test_08_ticks_off_the_boundary_start_each_transition_within_a_tick(monkeypatch):
    # a manager's tick is its only clock check: with a gossip timeout that
    # does not divide the 60 s epoch, a manager up at the boundary sends
    # its first epoch-0 report on its first tick after it, within
    # (60, 60 + timeout] s, and one down across it (25..80 s) on its first
    # tick after its window; every run still converges as 8 requires
    first = {}                          # manager -> its first epoch-0 report
    emit = Simulation._emit

    def recording(sim, src, outgoing):
        if any(isinstance(o.msg, EpochReport) and o.msg.from_epoch == 0 for o in outgoing):
            first.setdefault(src, sim.now)
        emit(sim, src, outgoing)
    monkeypatch.setattr(Simulation, "_emit", recording)
    off_tick, convergence_failures, runs = [], [], 0
    for timeout_s in (7, 13):
        timeout = timeout_s * MICRO
        for n_pms in (3, 4):
            for crash in [None] + [f"pm{i}" for i in range(n_pms)]:
                runs += 1
                first.clear()
                cfg = _safety_cfg(n_pms, crash, 1, 100)
                cfg.gossip_timeout = timeout
                sim = Simulation(cfg)
                report = sim.run()
                case = (timeout_s, n_pms, crash)
                for pm in sim.correct_pms():
                    start = 80 * MICRO if pm == crash else 60 * MICRO
                    tick = -(-start // timeout) * timeout   # < start + timeout
                    if first.get(pm) != tick:
                        off_tick.append((case, pm, first.get(pm)))
                rows = [r for r in report.pm_state if r[0] in sim.correct_pms()]
                if not (all(r[1:3] == (1, "serving") for r in rows)
                        and len({r[3:] for r in rows}) == 1):
                    convergence_failures.append(case)
    ok = not off_tick and not convergence_failures
    detail = (f"{runs} runs (gossip timeout 7 or 13 s, N in 3..4, every <=1-crash "
              f"subset): first reports not on the first tick past the boundary or "
              f"the crash: {len(off_tick)}, correct-manager convergence failures: "
              f"{len(convergence_failures)}")
    if not ok:
        detail += f", first: {(off_tick + convergence_failures)[:3]}"
    assert verdict(8, ok, detail)


# -- 9: backward unlinkability, two-proportion test -------------------------

def test_09_backward_unlinkability():
    cfg = EpochConfig(0, 1024, 1, 2)
    pm_key = det_keygen(seed_from_parts(b"acceptance-bu-pm", 0))
    admin = det_keygen(seed_from_parts(b"acceptance-bu-admin", 0))
    core = TrustedCore(pm_key, admin.public, cfg, FilterParams(4096, 4),
                       max_instances=128)
    cid = digest(b"acceptance-bu-client")
    core.register(cid)
    rts, epoch = 512, 0
    payload = cid + rts.to_bytes(8, "big") + epoch.to_bytes(8, "big")
    core.revoke(RevocationOrder(cid, rts, epoch, det_sign(admin, payload)))
    erc = core.erc_current

    # every latchkey the revoked client could have shown before its RTS:
    # the whole subtree over slots 0..511, for all 128 instances
    pre_labels = labels_under(cfg, NodeLabel(0, 1, 0))
    pre_hits = pre_probes = 0
    for instance in range(1, 129):
        keypair = pseudonym_keypair(cid, epoch, instance)
        for label in pre_labels:
            pre_hits += erc.query(det_sign(keypair, label.canonical_bytes))
            pre_probes += 1
    rng = random.Random(9)
    rand_probes = 100_000
    rand_hits = sum(erc.query(rng.randbytes(64))
                    for _ in range(rand_probes))

    p_pre = pre_hits / pre_probes
    p_rand = rand_hits / rand_probes
    pooled = (pre_hits + rand_hits) / (pre_probes + rand_probes)
    if 0.0 < pooled < 1.0:
        z = (p_pre - p_rand) / math.sqrt(
            pooled * (1.0 - pooled) * (1 / pre_probes + 1 / rand_probes))
    else:
        z = 0.0
    p_value = 2.0 * (1.0 - stats.norm.cdf(abs(z)))
    ok = pre_probes >= 100_000 and p_value > 0.01
    assert verdict(9, ok,
                   f"pre-revocation latchkeys {pre_hits}/{pre_probes} hits "
                   f"({p_pre:.2e}) vs random strings {rand_hits}/{rand_probes} "
                   f"({p_rand:.2e}); z={z:.2f}, p={p_value:.3f} (want > 0.01)")


# -- 10: benchmark trend gates ----------------------------------------------

BENCH_HEIGHTS = (8, 11, 16, 32)
BENCH_BATCHES = (4, 8, 16, 32)


def _bench_geometry(height: int) -> EpochConfig:
    return EpochConfig(0, 2**height, 1, 2)


def _bench_capability(height: int, seed: int) -> tuple[bytes, bytes]:
    """Returns (encoded capability for slot 0, manager public key)."""
    pm_key = det_keygen(seed_from_parts(b"bench-pm", seed))
    cid = digest(seed_from_parts(b"bench-client", seed))
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    cap = get_capability(rrp, 0, _bench_geometry(height))
    return encode_capability(cap), pm_key.public


def _verify_blob_batch(batch: tuple[bytes, ...], pm_pub: bytes,
                       height: int) -> int:
    """Worker: decode and fully verify each capability; returns ok count."""
    cfg = _bench_geometry(height)
    ok = 0
    for blob in batch:
        cap = decode_capability(blob)
        ok += verify_capability(cap, pm_pub, 0, cfg)
    return ok


def _bench_latency(heights, reps: int) -> list[tuple[int, float]]:
    rows = []
    for h in heights:
        blob, pm_pub = _bench_capability(h, seed=1)
        cfg = _bench_geometry(h)
        cap = decode_capability(blob)
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            assert verify_capability(cap, pm_pub, 0, cfg)
            samples.append(time.perf_counter() - t0)
        # median: robust against scheduler hiccups on shared machines
        rows.append((h, statistics.median(samples) * 1e6))
    return rows


def _bench_workers(height: int, workers: int, batch: int = 48,
                   ) -> list[tuple[int, float]]:
    """Wall time to verify a fixed batch with 1 vs N worker processes."""
    blob, pm_pub = _bench_capability(height, seed=2)
    blobs = tuple([blob] * batch)
    rows = []
    for n in sorted({1, workers}):
        chunks = [blobs[i::n] for i in range(n)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            # warm up the pool so fork/import cost stays out of the timing
            list(pool.map(_verify_blob_batch, [blobs[:1]] * n,
                          [pm_pub] * n, [height] * n))
            t0 = time.perf_counter()
            done = sum(pool.map(_verify_blob_batch, chunks,
                                [pm_pub] * n, [height] * n))
            elapsed = time.perf_counter() - t0
        assert done == batch
        rows.append((n, elapsed))
    return rows


def _bench_throughput(batches, requests: int = 25) -> list[tuple[int, float]]:
    """Issued pseudonyms/s vs batch size; every request after the first
    carries a capability proof, so bigger batches amortize its check.
    Rates come from the fastest request cycle, the usual noise-floor
    estimator for short benchmarks."""
    rows = []
    for batch in batches:
        geometry = EpochConfig(0, 86_400, 600, 2)
        pm_key = det_keygen(seed_from_parts(b"bench-pm", 3))
        admin = det_keygen(seed_from_parts(b"bench-admin", 3))
        core = TrustedCore(pm_key, admin.public, geometry,
                           FilterParams(8192, 4),
                           max_instances=requests * batch + 1)
        cid = digest(b"bench-client")
        core.register(cid)
        first = core.issue(RequestRrp(cid, 0, 1))
        proof = get_capability(first[0], 0, geometry)
        best = float("inf")
        for _ in range(requests):
            t0 = time.perf_counter()
            core.issue(RequestRrp(cid, 0, batch, proof, 0))
            best = min(best, time.perf_counter() - t0)
        rows.append((batch, batch / best))
    return rows


def _monotone(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def test_10_bench_trends():
    lat_ok = thr_ok = False
    latency = throughput = []
    for _ in range(3):                    # shared-machine noise: best of 3
        latency = _bench_latency(BENCH_HEIGHTS, reps=40)
        if _monotone([v for _, v in latency]):
            lat_ok = True
            break
    for _ in range(3):
        throughput = _bench_throughput(BENCH_BATCHES)
        if _monotone([v for _, v in throughput]):
            thr_ok = True
            break
    ok = lat_ok and thr_ok
    assert verdict(
        10, ok,
        "verification latency rises with tree height "
        f"{[f'{v:.0f}us' for _, v in latency]} for h={list(BENCH_HEIGHTS)} "
        f"({'monotone' if lat_ok else 'NOT monotone'}); issuance throughput "
        f"rises with batch size {[f'{v:.0f}/s' for _, v in throughput]} for "
        f"batches {list(BENCH_BATCHES)} "
        f"({'monotone' if thr_ok else 'NOT monotone'})")


@pytest.mark.xfail(condition=os.cpu_count() < 4, strict=False,
                   reason="parallel-verification speedup needs >= 4 CPUs; "
                          "this host cannot exhibit it")
def test_10_parallel_verification_speedup():
    rows = _bench_workers(16, 4)
    speedup = rows[0][1] / rows[-1][1]
    ok = speedup >= 1.6
    assert verdict(10, ok,
                   f"1 -> 4 verification workers: {speedup:.2f}x speedup "
                   f"(want >= 1.6x; host has {os.cpu_count()} CPUs)")


# -- 11: bit-level determinism ----------------------------------------------

def test_11_determinism():
    cfg_a, _ = parse_scenario(SCENARIO_DIR / "quarantine.scn")
    cfg_b, _ = parse_scenario(SCENARIO_DIR / "quarantine.scn")
    report_a, report_b = Simulation(cfg_a).run(), Simulation(cfg_b).run()
    sim_ok = (report_a.as_text() == report_b.as_text()
              and report_a.auth_csv() == report_b.auth_csv())

    pm_key = det_keygen(seed_from_parts(b"acceptance-det", 0))
    cid = digest(b"acceptance-det-client")
    geometry = EpochConfig(3, 86_400, 600, 2)
    blobs = [
        encode_capability(get_capability(create_rrp(cid, 3, 2, pm_key, 8),
                                         17, geometry))
        for _ in range(2)
    ]
    cap_ok = blobs[0] == blobs[1]
    ok = sim_ok and cap_ok
    assert verdict(11, ok,
                   f"two simulator runs byte-identical: {sim_ok}; "
                   f"re-derived capability byte-identical "
                   f"({len(blobs[0])}-byte encoding): {cap_ok}")
