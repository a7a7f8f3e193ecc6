import hashlib
import logging
import random
from collections import Counter
from dataclasses import replace

import pytest

from rangerevoke import codec, manager, pseudonym, simnet
from rangerevoke.crypto import det_sign
from rangerevoke.manager import PmNode, TrustedCore
from rangerevoke.messages import DenialReason, ErcPush, Outgoing, RequestRrp, RevocationOrder
from rangerevoke.pseudonym import create_rrp
from rangerevoke.scenario import (
    SCENARIO_DIR,
    parse_scenario,
    prerevocation_probe,
    run_checks,
    transcript_links,
)
from rangerevoke.simnet import (
    FILTER,
    INSTANCES,
    MICRO,
    Action,
    CrashWindow,
    SimConfig,
    Simulation,
    Window,
)
from rangerevoke.slot_tree import path_to_root

# SHA-256 of (report.txt, auths.csv) that ``rangerevoke --out DIR simulate
# NAME`` writes for each bundled scenario
BUNDLED_REPORTS = {
    "quarantine": ("9e81a229975e987edd69f73adbb3183422bc92ac669cc35f2021035ec93b1c4a",
                   "1e3ea17d79824602cd6dbd32e78ad5546fa2ce2014eb39c7d75a280c7d3d4f94"),
    "linkage": ("69d2c14964432b00b73a718947db6b471a45535bd8b4d29a29c61eb1de581f87",
                "252dbbdf4b88794148c0376cddba209ddb27f221f4a9f2003ef0434920dab090"),
    "safemode": ("576cfb22988326e3eca0ce686686885f91138542ac91891466f51bf3f52d4e40",
                 "7ac8c13529f6364ec86ff3c9bda5a43c8a90c05600e5afe33f92c7379e763b3f"),
}


def small_cfg(**overrides) -> SimConfig:
    base = dict(
        seed=2, n_pms=3, fault_bound=1, n_verifiers=1, n_clients=2,
        epoch_len=60 * MICRO, delta=15 * MICRO, horizon=50 * MICRO,
        script=(
            Action(2 * MICRO, "request", {"client": 0, "count": 4, "pm": "pm0"}),
            Action(3 * MICRO, "request", {"client": 1, "count": 4, "pm": "pm1"}),
            Action(8 * MICRO, "authenticate", {"client": 0}),
            Action(10 * MICRO, "authenticate", {"client": 1}),
            Action(20 * MICRO, "revoke", {"client": 0}),
            Action(30 * MICRO, "authenticate", {"client": 0}),
            Action(32 * MICRO, "authenticate", {"client": 1}),
            Action(45 * MICRO, "authenticate", {"client": 0}),
        ),
    )
    base.update(overrides)
    return SimConfig(**base)


def test_determinism_byte_identical():
    a = Simulation(small_cfg()).run()
    b = Simulation(small_cfg()).run()
    assert a.as_text() == b.as_text()
    assert a.auth_csv() == b.auth_csv()


def test_seed_changes_trace_not_safety():
    a = Simulation(small_cfg()).run()
    b = Simulation(small_cfg(seed=3)).run()
    assert a.as_text() != b.as_text()        # delays, peer choices differ
    for report in (a, b):
        last = [x for x in report.auths if x.client == 0][-1]
        assert last.decision == "revoked"


def test_revocation_latency_recorded():
    report = Simulation(small_cfg()).run()
    (client, latency), = report.revocation_latency
    assert client == 0 and 0 <= latency <= 25 * MICRO


def test_issuance_and_auth_records():
    report = Simulation(small_cfg()).run()
    granted = [r for r in report.issuance if r.granted]
    assert {(r.client, r.count) for r in granted} == {(0, 4), (1, 4)}
    assert all(a.epoch_id == 0 for a in report.auths)
    assert report.messages["RequestRrp"] == 2


def test_unstable_window_defers_delivery():
    # revocation order sent into a partition: denial happens only after it
    cfg = small_cfg(unstable=(Window(18 * MICRO, 40 * MICRO),))
    report = Simulation(cfg).run()
    auth_30 = [a for a in report.auths if a.client == 0 and a.at == 30 * MICRO]
    auth_45 = [a for a in report.auths if a.client == 0 and a.at == 45 * MICRO]
    assert auth_30[0].decision in ("granted", "stale-state")
    assert auth_45[0].decision in ("revoked", "stale-state")


@pytest.mark.parametrize("windows", [((19, 30), (10, 20)), ((10, 20), (19, 30)),
                                     ((10, 50), (20, 30)), ((20, 30), (10, 50))])
def test_no_delivery_lands_inside_a_window_whatever_their_order(windows):
    """Crossing and nested windows, each listed both ways round: a message
    sent at 15 s or at 25 s is held until after every window it would
    arrive in."""
    sim = Simulation(small_cfg(unstable=tuple(Window(start * MICRO, end * MICRO)
                                              for start, end in windows)))
    for sent in (15 * MICRO, 25 * MICRO):
        sim.now = sent
        for _ in range(50):
            deliver_at = sent + sim._delay()
            assert not any(deliver_at in w for w in sim.cfg.unstable), (sent, deliver_at)
            assert deliver_at <= max(end for _, end in windows) * MICRO + sim.cfg.delta_net


def test_crashed_pm_misses_traffic_then_recovers():
    cfg = small_cfg(
        crashes=(CrashWindow("pm2", 15 * MICRO, 35 * MICRO),),
        horizon=55 * MICRO)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.correct_pms() == ["pm0", "pm1", "pm2"]
    states = {s[3] for s in report.pm_state}     # current-filter digests
    assert len(states) == 1                      # pull gossip caught pm2 up


@pytest.mark.parametrize("node", ["v0", "pm3", "client0", "admin"])
def test_a_crash_window_on_anything_but_a_manager_is_refused(node):
    """Only managers crash: a verifier down from 10 s to 40 s would still
    answer the authentications at 30 s and 32 s, so ``Simulation`` refuses
    the window in the scenario parser's words, and a window on a node that
    does not exist too."""
    with pytest.raises(ValueError, match=f"no manager '{node}'"):
        Simulation(small_cfg(crashes=(CrashWindow("pm2", 15 * MICRO, 35 * MICRO),
                                      CrashWindow(node, 10 * MICRO, 40 * MICRO))))


def record_sends(monkeypatch) -> list[tuple[int, str, str]]:
    """(time, sender, message type) of every message a run sends."""
    sent = []
    emit = Simulation._emit

    def recording(sim, src, outgoing):
        sent.extend((sim.now, src, type(out.msg).__name__) for out in outgoing)
        emit(sim, src, outgoing)
    monkeypatch.setattr(Simulation, "_emit", recording)
    return sent


def test_a_manager_down_in_overlapping_windows_rejoins_once(monkeypatch):
    # pm2 is down for 10..20 s and 15..30 s: it sends nothing until its
    # first tick after both, at 30 s, and that tick sends one pull
    sent = record_sends(monkeypatch)
    cfg = small_cfg(crashes=(CrashWindow("pm2", 10 * MICRO, 20 * MICRO),
                             CrashWindow("pm2", 15 * MICRO, 30 * MICRO)))
    Simulation(cfg).run()
    assert [(now, kind) for now, src, kind in sent
            if src == "pm2" and 10 * MICRO <= now <= 30 * MICRO] == [(30 * MICRO, "ErcPullReq")]


def test_an_order_sent_at_an_epoch_boundary_still_revokes_the_next_epoch():
    """An epoch-0 order reaches pm0 just before or just after the managers
    rotate to epoch 1, depending on the seed.  The client took epoch-1
    pseudonyms at 10 s; whichever epoch the order arrives in, none of them
    may be granted at 75 s."""
    granted = []
    for seed in range(40):
        cfg = SimConfig(seed=seed, n_pms=4, horizon=80 * MICRO, script=(
            Action(10 * MICRO, "request", {"client": 0, "count": 4, "epoch": 1}),
            Action(59_999_000, "revoke", {"client": 0, "pm": "pm0"}),
            Action(75 * MICRO, "authenticate", {"client": 0}),
        ))
        [auth] = Simulation(cfg).run().auths
        assert auth.epoch_id == 1 and auth.decision in ("granted", "revoked"), seed
        if auth.decision == "granted":
            granted.append(seed)
    assert granted == []


def test_an_order_survives_a_down_entry_manager():
    """The admin sends each order to ``pm=`` and the next f managers.  pm0
    goes down 50 ms after the order is sent to it, so in some seeds the
    order reaches pm0 after the crash; pm1's copy must then carry it to
    every manager, pm0 included once it is back."""
    lost = []
    for seed in range(40):
        cfg = SimConfig(seed=seed, n_pms=4, fault_bound=1, horizon=50 * MICRO,
                        crashes=(CrashWindow("pm0", 20_050_000, 40 * MICRO),),
                        script=(Action(20 * MICRO, "revoke", {"client": 0, "pm": "pm0"}),))
        sim = Simulation(cfg)
        sim.run()
        cid = sim.clients[0].cid
        if not all(cid in sim.pms[p].core.revoked for p in sim.correct_pms()):
            lost.append(seed)
    assert lost == []


ORDER_AT = 20 * MICRO


class _DeadlineSimulation(Simulation):
    """Adds one scripted action, ``sample``: it records each verifier that,
    at that instant, neither denies every capability as stale-state nor
    holds every bit that client 0's order sets in the verifier's epoch."""

    def __init__(self, cfg: SimConfig):
        super().__init__(cfg)
        self.misses: list[tuple[int, str]] = []
        core = TrustedCore(self.pm_key, self.admin_key.public, self.geometry,
                           FILTER, INSTANCES)
        epoch_id, rts = self.geometry.epoch_and_slot(ORDER_AT)
        order = RevocationOrder(self.clients[0].cid, rts, epoch_id, b"")
        core.revoke(replace(order, admin_sig=det_sign(self.admin_key,
                                                      order.signed_payload())))
        self.order_bits = {f.epoch_id: f for f in (core.erc_current, core.erc_next)}

    def holds_or_denies(self, v_id: str) -> bool:
        v, now = self.verifiers[v_id], self.now
        epoch_id, _ = self.geometry.epoch_and_slot(now)
        flt, want = v.erc_local, self.order_bits.get(epoch_id)
        if v.is_stale(now) or flt is None or flt.epoch_id != epoch_id:
            return True
        return want is None or flt.merged(want) is flt

    def _on_action(self, action: Action) -> None:
        if action.kind != "sample":
            super()._on_action(action)
            return
        self.misses += [(self.now, v_id) for v_id in sorted(self.verifiers)
                        if not self.holds_or_denies(v_id)]


@pytest.mark.parametrize("crash", [False, True], ids=["no-crash", "entry-down-after"])
def test_every_verifier_holds_an_order_or_is_stale_by_the_deadline(crash):
    """From t_order + D on, D = staleness limit + 2 * delta_net (15.2 s
    here), every verifier either holds every bit of the order for its
    epoch or denies everything as stale-state; sampled every 0.5 s to the
    horizon, which lies in the next epoch.  With ``crash``, the entry
    manager goes down as soon as the order has surely reached it."""
    horizon, step = 100 * MICRO, MICRO // 2
    base = SimConfig(n_pms=4, fault_bound=1, n_verifiers=3, horizon=horizon)
    deadline = ORDER_AT + 3 * base.pull_period + 2 * base.delta_net
    crashes = (CrashWindow("pm0", ORDER_AT + base.delta_net + 1, 40 * MICRO),) if crash else ()
    script = (Action(ORDER_AT, "revoke", {"client": 0, "pm": "pm0"}),
              *(Action(t, "sample") for t in range(deadline, horizon + 1, step)))
    late = {}
    for seed in range(20):
        sim = _DeadlineSimulation(replace(base, seed=seed, crashes=crashes, script=script))
        sim.run()
        for flt in (v.erc_local for v in sim.verifiers.values()):   # not vacuous
            assert flt.epoch_id == 1 and flt.merged(sim.order_bits[1]) is flt, seed
        if sim.misses:
            late[seed] = sim.misses[0]
    assert late == {}


def count_signers(monkeypatch) -> dict[bytes, set[TrustedCore]]:
    """Per client id, the cores that wrote bits of an order for it: each
    ``manager.revocation_cover_ercset`` call is charged to the core whose
    ``revoke`` is running, and to that order's client."""
    signers, running = {}, []
    cover, revoke = manager.revocation_cover_ercset, TrustedCore.revoke

    def tracked(core, order):
        running.append((core, order.cid))
        try:
            revoke(core, order)
        finally:
            running.pop()

    def counted(*args):
        core, cid = running[-1]
        signers.setdefault(cid, set()).add(core)
        return cover(*args)
    monkeypatch.setattr(TrustedCore, "revoke", tracked)
    monkeypatch.setattr(manager, "revocation_cover_ercset", counted)
    return signers


def assert_signed_by_entry_managers_alone(sim, signers) -> None:
    """1 to f + 1 of the run's cores wrote the order's bits, every manager
    expelled the client, and the correct managers hold equal filters."""
    cid, f = sim.clients[0].cid, sim.cfg.fault_bound
    cores = {pm.core for pm in sim.pms.values()}
    assert 1 <= len(signers.get(cid, set()) & cores) <= f + 1
    correct = sim.correct_pms()
    assert all(cid in sim.pms[p].core.revoked for p in correct)
    filters = [(sim.pms[p].core.erc_current, sim.pms[p].core.erc_next) for p in correct]
    assert all(pair == filters[0] for pair in filters)


@pytest.mark.parametrize("crash", [False, True], ids=["no-crash", "entry-down-after"])
def test_only_the_entry_managers_sign_an_order(monkeypatch, crash):
    """In the deadline test's runs, the f + 1 managers the admin sends the
    order to are the only ones that sign its bits; the others expel on a
    relay and take the bits from gossip, and all still converge."""
    base = SimConfig(n_pms=4, fault_bound=1, n_verifiers=3, horizon=100 * MICRO)
    crashes = (CrashWindow("pm0", ORDER_AT + base.delta_net + 1, 40 * MICRO),) if crash else ()
    script = (Action(ORDER_AT, "revoke", {"client": 0, "pm": "pm0"}),)
    signers = count_signers(monkeypatch)
    for seed in range(20):
        signers.clear()
        sim = Simulation(replace(base, seed=seed, crashes=crashes, script=script))
        sim.run()
        assert_signed_by_entry_managers_alone(sim, signers)


def test_only_the_entry_managers_sign_an_order_among_five(monkeypatch):
    """An acceptance #8 grid cell: N = 5, f = 1, pm0 down from 25 s to
    80 s, the order at 30 s sent to pm1 and pm2."""
    signers = count_signers(monkeypatch)
    for seed in (1, 2, 3):
        signers.clear()
        sim = Simulation(SimConfig(
            seed=seed, n_pms=5, fault_bound=1, n_clients=2, horizon=100 * MICRO,
            crashes=(CrashWindow("pm0", 25 * MICRO, 80 * MICRO),),
            script=(Action(30 * MICRO, "revoke", {"client": 0, "pm": "pm1"}),)))
        sim.run()
        assert_signed_by_entry_managers_alone(sim, signers)


def record_arrivals(monkeypatch) -> list[tuple[str, bool, int]]:
    """Every order a manager takes: (node id, from a peer, its epoch)."""
    arrivals = []
    handle_revoke = PmNode.handle_revoke

    def recorded(node, sender, order):
        arrivals.append((node.node_id, sender in node.peers, node.core.epoch_now))
        return handle_revoke(node, sender, order)
    monkeypatch.setattr(PmNode, "handle_revoke", recorded)
    return arrivals


def test_a_relay_recipient_behind_the_entry_managers_still_revokes(monkeypatch):
    """An epoch-0 order sent just before the boundary reaches, in some
    seeds, both entry managers in epoch 1 (they write the epoch-1 roots
    only) and another manager, by relay, still in epoch 0 (it writes
    nothing).  That manager has expelled the client; no verifier accepts
    an epoch-0 capability any more, and the epoch-1 bits reach it by
    gossip: the client's epoch-1 pseudonyms are denied, and it holds the
    entry managers' filters."""
    arrivals = record_arrivals(monkeypatch)
    behind = []
    for seed in range(100):
        arrivals.clear()
        sim = Simulation(SimConfig(seed=seed, n_pms=4, horizon=80 * MICRO, script=(
            Action(10 * MICRO, "request", {"client": 0, "count": 4, "epoch": 1}),
            Action(59_999_000, "revoke", {"client": 0, "pm": "pm0"}),
            Action(75 * MICRO, "authenticate", {"client": 0}),
        )))
        report = sim.run()
        first = {}
        for node_id, relayed, epoch in arrivals:
            first.setdefault(node_id, (relayed, epoch))
        if any(relayed or epoch != 1 for node_id, (relayed, epoch) in first.items()
               if node_id in ("pm0", "pm1")):
            continue        # some entry manager took the order in epoch 0
        lagging = [node_id for node_id, (relayed, epoch) in first.items()
                   if relayed and epoch == 0]
        if not lagging:
            continue
        behind.append(seed)
        [auth] = report.auths
        assert (auth.epoch_id, auth.decision) == (1, "revoked"), seed
        cid, entry = sim.clients[0].cid, sim.pms["pm0"].core
        for node_id in lagging:
            core = sim.pms[node_id].core
            assert core.epoch_now == 1 and cid in core.revoked, seed
            assert core.erc_current == entry.erc_current, seed
            resp = sim.pms[node_id].handle_request(RequestRrp(cid, 1, 1))
            assert resp.reason is DenialReason.REVOKED, seed
    assert behind                    # the case occurs

def test_entry_managers_behind_a_relay_recipient_still_revoke_the_next_epoch(monkeypatch):
    """The mirror of the case above.  An epoch-1 order sent just after the
    boundary reaches, in some seeds, both entry managers still in epoch 0
    (they write the epoch-1 cover only), while pm3, already in epoch 1,
    grants the client epoch-2 pseudonyms before the order reaches it.  The
    entry managers write the epoch-2 roots when they rotate into epoch 1,
    so the client's epoch-2 pseudonym is denied."""
    arrivals = record_arrivals(monkeypatch)
    ahead = []
    for seed in range(200):
        arrivals.clear()
        sim = Simulation(SimConfig(seed=seed, n_pms=4, horizon=130 * MICRO, script=(
            Action(60 * MICRO, "revoke", {"client": 0, "pm": "pm0"}),
            Action(60_030_000, "request", {"client": 0, "count": 4, "epoch": 2,
                                           "pm": "pm3"}),
            Action(125 * MICRO, "authenticate", {"client": 0}),
        )))
        report = sim.run()
        for auth in report.auths:
            assert (auth.epoch_id, auth.decision) == (2, "revoked"), seed
        first = {}
        for node_id, relayed, epoch in arrivals:
            first.setdefault(node_id, (relayed, epoch))
        if (all(first[p] == (False, 0) for p in ("pm0", "pm1"))
                and [r.granted for r in report.issuance] == [True]):
            ahead.append(seed)
            assert len(report.auths) == 1, seed
    assert len(ahead) >= 3           # the case occurs


def test_a_lone_manager_rotates_on_its_own_report():
    # one manager is its own quorum (N - f = 1): its clock alone ends each
    # quarantine
    report = Simulation(SimConfig(n_pms=1, fault_bound=0, horizon=130 * MICRO)).run()
    assert [row[:3] for row in report.pm_state] == [("pm0", 2, "serving")]


@pytest.mark.parametrize("seed", range(3))
def test_a_manager_down_across_two_boundaries_catches_up(seed):
    # pm3 misses the boundaries at 60 s and 120 s; back at 130 s, it
    # rotates twice on its peers' echoes instead of staying an epoch behind
    cfg = SimConfig(seed=seed, n_pms=4, fault_bound=1, horizon=160 * MICRO,
                    crashes=(CrashWindow("pm3", 55 * MICRO, 130 * MICRO),))
    report = Simulation(cfg).run()
    assert {row[1:] for row in report.pm_state} == {report.pm_state[0][1:]}
    assert report.pm_state[0][1:3] == (2, "serving")


@pytest.mark.parametrize("seed", range(5))
def test_a_manager_that_every_quorum_needs_still_rotates(seed):
    # pm3 is down for good, so each quorum of three needs pm2, which is
    # down across the 60 s boundary: its late report completes its peers'
    # quorum and draws no echo, so it reports again on its gossip tick
    cfg = SimConfig(seed=seed, n_pms=4, fault_bound=1, horizon=200 * MICRO,
                    crashes=(CrashWindow("pm3", 30 * MICRO, 300 * MICRO),
                             CrashWindow("pm2", 50 * MICRO, 70 * MICRO)))
    report = Simulation(cfg).run()
    assert [row[1:3] for row in report.pm_state[:3]] == [(3, "serving")] * 3


def test_a_recovery_on_a_gossip_tick_pulls_and_reports_once(monkeypatch):
    # pm3 is down from 25 s across the 60 s boundary, back at 80 s (a
    # multiple of the 5 s gossip timeout) or at 77 s (between two ticks):
    # either way it rejoins on the tick at 80 s, which pulls once and
    # reports to each peer, and it sends nothing before
    sent = record_sends(monkeypatch)
    for end in (80, 77):
        sent.clear()
        cfg = SimConfig(seed=1, n_pms=4, fault_bound=1, horizon=100 * MICRO,
                        crashes=(CrashWindow("pm3", 25 * MICRO, end * MICRO),))
        Simulation(cfg).run()
        assert not [s for s in sent if s[1] == "pm3" and end * MICRO <= s[0] < 80 * MICRO]
        at_recovery = Counter(kind for now, src, kind in sent
                              if (now, src) == (80 * MICRO, "pm3"))
        assert at_recovery == {"ErcPullReq": 1, "EpochReport": 3}, end


def test_a_verifier_crosses_three_epoch_boundaries_with_no_stale_state():
    """A 7 s pull period does not divide the 60 s epoch, so no pull follows
    a boundary at once.  The next epoch's filter from the last pull before
    it takes over, and an honest client shown at 0.05, 1, 2 and 3 s into
    each of epochs 1 to 3 is granted every time."""
    script = [Action(MICRO, "request", {"client": 0, "count": 1, "epoch": 0}),
              Action(10 * MICRO, "authenticate", {"client": 0})]
    for epoch in (1, 2, 3):
        start = epoch * 60 * MICRO
        script.append(Action(start - 40 * MICRO, "request",
                             {"client": 0, "count": 4, "epoch": epoch}))
        script += [Action(start + after, "authenticate", {"client": 0})
                   for after in (50_000, MICRO, 2 * MICRO, 3 * MICRO)]
    cfg = SimConfig(seed=3, pull_period=7 * MICRO, horizon=190 * MICRO, script=tuple(script))
    auths = Simulation(cfg).run().auths
    assert [(a.epoch_id, a.decision) for a in auths] == \
        [(0, "granted")] + [(epoch, "granted") for epoch in (1, 2, 3) for _ in range(4)]


def test_nothing_to_show_records_nothing():
    # a client holding no pseudonym shows nothing, and a verifier that
    # never got a filter reports no digest
    cfg = small_cfg(script=(Action(0, "authenticate", {"client": 0}),), horizon=0)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.presented == [] and report.auths == []
    assert [digest for _, _, digest in report.verifier_state] == ["-"]
    assert "\tfilter=-\n" in report.as_text()


def test_epoch_transition_converges():
    cfg = small_cfg(horizon=90 * MICRO)
    report = Simulation(cfg).run()
    assert all(s[1] == 1 and s[2] == "serving" for s in report.pm_state)


def test_bundled_scenarios_pass():
    for name in ("quarantine", "safemode", "linkage"):
        cfg, checks = parse_scenario(SCENARIO_DIR / f"{name}.scn")
        sim = Simulation(cfg)
        report = sim.run()
        results = run_checks(sim, report, checks)
        assert all(ok for _, ok, _ in results), (name, results)


def test_linkage_adversary_counts():
    cfg = small_cfg()
    sim = Simulation(cfg)
    sim.run()
    assert len(sim.presented) >= 4
    _, cross = transcript_links(sim)
    assert cross == 0
    hits, probes, _ = prerevocation_probe(sim, client=0, rts=1)
    assert probes > 0
    assert hits <= probes


@pytest.mark.parametrize("rts", [1, 3, 4])
def test_prerevocation_probe_signs_each_label_once_per_pseudonym(monkeypatch, rts):
    """The probe builds each pseudonym's capabilities for slots 0 to rts - 1
    in order: I endorsements and, per pseudonym, one signature for each
    distinct label of those slots' paths, not h + 1 per slot."""
    sim = Simulation(small_cfg())
    sim.run()
    calls = Counter()
    original = pseudonym.det_sign
    monkeypatch.setattr(pseudonym, "det_sign",
                        lambda *args: calls.update(["det_sign"]) or original(*args))
    prerevocation_probe(sim, client=0, rts=rts)
    geometry = sim.geometry.with_epoch(sim.pms["pm0"].core.erc_current.epoch_id)
    labels = {label for slot in range(rts) for label in path_to_root(geometry, slot)}
    assert calls == Counter(det_sign=INSTANCES * len(labels) + INSTANCES)


def test_corrupted_endorsement_is_refused_by_the_verifier(monkeypatch):
    # a manager's reply loses one bit of each endorsement in flight: the
    # client keeps the pseudonyms, and the verifier finds them not genuine
    handle_request = PmNode.handle_request

    def corrupting(self, req):
        resp = handle_request(self, req)
        return replace(resp, endorsements=tuple(
            (i, bytes([e[0] ^ 1]) + e[1:]) for i, e in resp.endorsements))
    monkeypatch.setattr(PmNode, "handle_request", corrupting)
    report = Simulation(small_cfg()).run()
    assert [r.granted for r in report.issuance] == [True, True]
    first = [a for a in report.auths if a.client == 0][0]
    assert (first.at, first.decision) == (8 * MICRO, "not-genuine")
    assert all(a.decision != "granted" for a in report.auths)


def test_unknown_event_kind_raises():
    sim = Simulation(small_cfg(script=()))
    sim._schedule(1, ("no_such_event", "pm0"))
    with pytest.raises(AttributeError, match="_on_no_such_event"):
        sim.run()
    sim = Simulation(small_cfg(script=(Action(1, "dance"),)))
    with pytest.raises(ValueError, match="unknown action kind 'dance'"):
        sim.run()


@pytest.mark.parametrize("name", sorted(BUNDLED_REPORTS))
def test_bundled_reports_are_pinned(name):
    # a simulator change that moves any decision, message count or filter
    # bit of a bundled scenario fails here
    cfg, _ = parse_scenario(SCENARIO_DIR / f"{name}.scn")
    report = Simulation(cfg).run()
    got = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                for text in (report.as_text(), report.auth_csv()))
    assert got == BUNDLED_REPORTS[name]


@pytest.mark.parametrize("name", sorted(BUNDLED_REPORTS))
def test_bundled_gossip_counters_match_the_messages_sent(name, caplog):
    """Each manager's ``stats`` count what it sent: every ErcPush is a
    push, every ErcPullReq a manager's pull or a verifier's tick (one at
    1 µs, then one each pull period), and some push that gains bits is
    forwarded.  A bundled run warns of nothing."""
    cfg, _ = parse_scenario(SCENARIO_DIR / f"{name}.scn")
    sim = Simulation(cfg)
    with caplog.at_level(logging.WARNING, logger="rangerevoke"):
        report = sim.run()
    total = {key: sum(pm.stats[key] for pm in sim.pms.values())
             for key in ("pushes", "pulls", "forwards")}
    ticks = cfg.n_verifiers * ((cfg.horizon - 1) // cfg.pull_period + 1)
    assert total["pushes"] == report.messages.get("ErcPush", 0)
    assert total["pulls"] + ticks == report.messages["ErcPullReq"]
    if total["pushes"]:
        assert 0 < total["forwards"] <= total["pushes"]
    assert caplog.records == []


def test_one_encoding_per_sent_object_and_one_decode_per_distinct_message(monkeypatch):
    """A run encodes each distinct message object it sends once, however
    many receivers and sends it has: the pull request, an unchanged pull
    response and a resent order are encoded on their first send alone.  A
    run decodes each distinct byte string it delivers to a live node once,
    and a delivery to a down node decodes nothing."""
    calls = {"encode": 0, "decode": 0, "delivered": 0, "to_down": 0}
    encoded = Counter()                     # message type -> its encodings
    sent: dict[int, object] = {}            # every object sent, kept so no id is reused
    delivered: set[bytes] = set()
    encode, decode = codec.encode_message, codec.decode_message
    emit, deliver = Simulation._emit, Simulation._on_deliver

    def counted_encode(msg):
        calls["encode"] += 1
        encoded[type(msg).__name__] += 1
        return encode(msg)

    def counted_decode(*args):
        calls["decode"] += 1
        return decode(*args)

    def checked_emit(sim, src, outgoing):
        before = calls["encode"]
        new = {id(o.msg): o.msg for o in outgoing if id(o.msg) not in sent}
        emit(sim, src, outgoing)
        assert calls["encode"] - before == len(new)
        sent.update(new)

    def counted_deliver(sim, src, dst, data):
        assert isinstance(data, bytes)
        before = calls["decode"]
        down = sim._crashed(dst, sim.now)
        deliver(sim, src, dst, data)
        if down:
            calls["to_down"] += 1
            assert calls["decode"] == before
        else:
            calls["delivered"] += 1
            delivered.add(data)

    monkeypatch.setattr(codec, "encode_message", counted_encode)
    monkeypatch.setattr(codec, "decode_message", counted_decode)
    monkeypatch.setattr(Simulation, "_emit", checked_emit)
    monkeypatch.setattr(Simulation, "_on_deliver", counted_deliver)
    cfg = small_cfg(crashes=(CrashWindow("pm2", 15 * MICRO, 35 * MICRO),),
                    horizon=70 * MICRO)
    sim = Simulation(cfg)
    report = sim.run()
    sends = report.messages
    assert calls["encode"] == len(sent) == len(sim._encoded) < sum(sends.values())
    assert encoded["ErcPullReq"] == 1 < sends["ErcPullReq"]
    assert encoded["ErcPullResp"] < sends["ErcPullResp"]
    assert encoded["RevocationOrder"] < sends["RevocationOrder"]
    assert calls["decode"] == len(delivered) < calls["delivered"]
    assert calls["to_down"] > 0


def test_receivers_of_one_push_share_one_decoded_copy(monkeypatch):
    sim = Simulation(small_cfg(script=()))
    core = sim.pms["pm0"].core
    push = ErcPush(core.erc_current, core.erc_next)
    sim._queue.clear()
    sim._emit("pm0", [Outgoing("pm1", push), Outgoing("pm2", push)])
    deliveries = [item for _, _, item in sim._queue]
    assert sorted(item[2] for item in deliveries) == ["pm1", "pm2"]
    assert deliveries[0][3] is deliveries[1][3]                 # one encoding
    received = []
    monkeypatch.setattr(PmNode, "deliver",
                        lambda self, sender, msg, now: received.append(msg) or [])
    for _, src, dst, data in deliveries:
        sim._on_deliver(src, dst, data)
    a, b = received
    assert a is b                                               # one decoded copy
    assert a == push                                            # the filters as sent
    assert a.current is not push.current and a.next is not push.next


def _equivalence_runs():
    """The bundled scenarios and two runs of acceptance 8's grid, one with
    a manager down while the revocation order spreads."""
    from test_acceptance import _safety_cfg
    runs = [pytest.param(parse_scenario(SCENARIO_DIR / f"{name}.scn")[0], id=name)
            for name in sorted(BUNDLED_REPORTS)]
    runs.append(pytest.param(_safety_cfg(4, None, 1, 150), id="grid-4-up"))
    runs.append(pytest.param(_safety_cfg(3, "pm1", 2, 150), id="grid-3-pm1-down"))
    return runs


@pytest.mark.parametrize("cfg", _equivalence_runs())
def test_shared_decodes_change_no_report_byte(cfg, monkeypatch):
    """A run that decodes each distinct byte string once reports what one
    that decodes every delivery (a bound of 0) reports, byte for byte, and
    so does one whose bound of 2 clears it again and again.  Every message
    the run kept still encodes to the bytes it was decoded from: no
    handler wrote through a shared message."""
    counts = {"decode": 0, "delivered": 0, "largest": 0}
    decode, deliver = codec.decode_message, Simulation._on_deliver

    def counted_decode(*args):
        counts["decode"] += 1
        return decode(*args)

    def counted_deliver(sim, src, dst, data):
        counts["delivered"] += not sim._crashed(dst, sim.now)
        deliver(sim, src, dst, data)
        counts["largest"] = max(counts["largest"], len(sim._decoded))

    monkeypatch.setattr(codec, "decode_message", counted_decode)
    monkeypatch.setattr(Simulation, "_on_deliver", counted_deliver)

    def run(limit):
        monkeypatch.setattr(simnet, "DECODED_LIMIT", limit)
        counts.update(decode=0, delivered=0, largest=0)
        sim = Simulation(cfg)
        report = sim.run()
        return sim, (report.as_text(), report.auth_csv()), dict(counts)

    sim, shared, seen = run(simnet.DECODED_LIMIT)
    assert seen["decode"] == len(sim._decoded) < seen["delivered"]
    for data, msg in sim._decoded.items():
        assert codec.encode_message(msg) == data
    _, every, seen = run(0)
    assert every == shared
    assert seen["decode"] == seen["delivered"] and seen["largest"] == 0
    _, bounded, seen = run(2)
    assert bounded == shared
    assert seen["largest"] == 2


@pytest.mark.parametrize("cfg", _equivalence_runs())
def test_shared_encodings_change_no_report_byte(cfg, monkeypatch):
    """A run that encodes each sent object once reports what one that
    encodes every send (a bound of 0) reports, byte for byte, and so does
    one whose bound of 2 clears its encodings again and again.  Every
    object the run kept still encodes to the bytes it was sent as: no node
    wrote into a message or filter it sent."""
    counts = {"encode": 0, "largest": 0}
    encode, emit = codec.encode_message, Simulation._emit

    def counted_encode(msg):
        counts["encode"] += 1
        return encode(msg)

    def measured_emit(sim, src, outgoing):
        emit(sim, src, outgoing)
        counts["largest"] = max(counts["largest"], len(sim._encoded))

    monkeypatch.setattr(codec, "encode_message", counted_encode)
    monkeypatch.setattr(Simulation, "_emit", measured_emit)

    def run(limit):
        monkeypatch.setattr(simnet, "DECODED_LIMIT", limit)
        counts.update(encode=0, largest=0)
        sim = Simulation(cfg)
        report = sim.run()
        return (sim, (report.as_text(), report.auth_csv()), sum(report.messages.values()),
                dict(counts))

    sim, shared, sends, seen = run(simnet.DECODED_LIMIT)
    assert seen["encode"] < sends
    for msg, data in sim._encoded.values():
        assert encode(msg) == data
    _, every, _, seen = run(0)
    assert every == shared
    assert seen["encode"] == sends and seen["largest"] == 0
    _, bounded, _, seen = run(2)
    assert bounded == shared
    assert seen["largest"] == 2


def test_a_run_without_unstable_windows_draws_delays_as_randint_does():
    """With no unstable window, ``_delay`` draws what ``randint(1,
    delta_net)`` draws, in the same order, whatever the clock reads."""
    for delta_net in (1, 2, 7, 100_000):
        cfg = small_cfg(delta_net=delta_net)
        sim = Simulation(cfg)
        sim.rng.seed(cfg.seed)
        reference = random.Random(cfg.seed)
        delays = []
        for now in range(0, 50 * MICRO, MICRO // 2):
            sim.now = now
            delays.append(sim._delay())
        assert delays == [reference.randint(1, delta_net) for _ in delays]


def test_client_derives_a_key_only_when_it_shows_the_pseudonym(monkeypatch):
    sim = Simulation(small_cfg(script=()))
    client = sim.clients[0]
    resp = sim.pms["pm0"].handle_request(RequestRrp(client.cid, 0, 3))
    assert resp.granted
    derived = []
    det_keygen = pseudonym.det_keygen
    monkeypatch.setattr(pseudonym, "det_keygen",
                        lambda seed: derived.append(seed) or det_keygen(seed))
    sim._on_deliver("pm0", "client0", codec.encode_message(resp))
    assert derived == []
    rrp = client.take(0)
    assert len(derived) == 1
    assert rrp == create_rrp(client.cid, 0, 1, sim.pm_key, INSTANCES)
    assert [client.take(0).instance, client.take(0).instance] == [2, 3]
    assert client.take(0) is None

