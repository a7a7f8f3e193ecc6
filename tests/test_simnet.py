import hashlib
import logging
from dataclasses import replace

import pytest

from rangerevoke import codec, pseudonym
from rangerevoke.crypto import det_sign
from rangerevoke.manager import PmNode, TrustedCore
from rangerevoke.messages import ErcPush, Outgoing, RequestRrp, RevocationOrder
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

# SHA-256 of (report.txt, auths.csv) that ``rangerevoke --out DIR simulate
# NAME`` writes for each bundled scenario
BUNDLED_REPORTS = {
    "quarantine": ("1981a99c6da26cf3b42e741d84da2c87d8ec48298999556bac5071200f71700d",
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


def test_crashed_pm_misses_traffic_then_recovers():
    cfg = small_cfg(
        crashes=(CrashWindow("pm2", 15 * MICRO, 35 * MICRO),),
        horizon=55 * MICRO)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.correct_pms() == ["pm0", "pm1", "pm2"]
    states = {s[3] for s in report.pm_state}     # current-filter digests
    assert len(states) == 1                      # pull gossip caught pm2 up


def test_recovery_inside_another_crash_window_is_skipped(monkeypatch):
    # pm2 is down for 10..20 s and 15..30 s: it recovers once, at 30 s
    recovered = []
    on_recover = PmNode.on_recover
    monkeypatch.setattr(PmNode, "on_recover",
                        lambda self, now: recovered.append((self.node_id, now))
                        or on_recover(self, now))
    cfg = small_cfg(crashes=(CrashWindow("pm2", 10 * MICRO, 20 * MICRO),
                             CrashWindow("pm2", 15 * MICRO, 30 * MICRO)))
    Simulation(cfg).run()
    assert recovered == [("pm2", 30 * MICRO)]


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


def test_a_lone_manager_rotates_on_its_own_report():
    # one manager is its own quorum (N - f = 1): its clock alone ends each
    # quarantine
    report = Simulation(SimConfig(n_pms=1, fault_bound=0, horizon=130 * MICRO)).run()
    assert [row[:3] for row in report.pm_state] == [("pm0", 2, "serving")]


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


def test_one_encoding_per_fan_out_and_one_decode_per_delivery(monkeypatch):
    """Each ``_emit`` encodes each distinct message object once, however
    many receivers it has, and only deliveries to a live node decode."""
    calls = {"encode": 0, "decode": 0, "delivered": 0}
    encode, decode = codec.encode_message, codec.decode_message
    emit, deliver = Simulation._emit, Simulation._on_deliver

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def checked_emit(sim, src, outgoing):
        before = calls["encode"]
        emit(sim, src, outgoing)
        distinct = 0 if sim._crashed(src, sim.now) else len({id(o.msg) for o in outgoing})
        assert calls["encode"] - before == distinct

    def counted_deliver(sim, src, dst, data):
        assert isinstance(data, bytes)
        calls["delivered"] += not sim._crashed(dst, sim.now)
        deliver(sim, src, dst, data)

    monkeypatch.setattr(codec, "encode_message", counting("encode", encode))
    monkeypatch.setattr(codec, "decode_message", counting("decode", decode))
    monkeypatch.setattr(Simulation, "_emit", checked_emit)
    monkeypatch.setattr(Simulation, "_on_deliver", counted_deliver)
    cfg = small_cfg(crashes=(CrashWindow("pm2", 15 * MICRO, 35 * MICRO),),
                    horizon=70 * MICRO)
    report = Simulation(cfg).run()
    sends = sum(report.messages.values())
    assert calls["encode"] < sends                    # fan-outs share an encoding
    assert calls["decode"] == calls["delivered"] < sends


def test_receivers_of_one_push_decode_their_own_copies(monkeypatch):
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
                        lambda self, sender, msg, now: received.append(msg.current) or [])
    for _, src, dst, data in deliveries:
        sim._on_deliver(src, dst, data)
    a, b = received
    assert a == b == push.current                               # the filter as sent
    assert len({id(a), id(b), id(push.current)}) == 3


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
