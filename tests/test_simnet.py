from dataclasses import replace

import pytest

from rangerevoke.manager import PmNode
from rangerevoke.scenario import SCENARIO_DIR, parse_scenario, run_checks
from rangerevoke.simnet import (
    MICRO,
    Action,
    CrashWindow,
    SimConfig,
    Simulation,
    Window,
    linkage_adversary,
)


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
    stats = linkage_adversary(sim, revoked_client=0, rts=1,
                              random_probes=2000)
    assert stats.presented >= 4
    assert stats.linked_pairs == stats.linked_and_same_client
    assert stats.revoked_prerts_probes > 0
    assert stats.revoked_prerts_hits <= stats.revoked_prerts_probes


def test_clock_jump_action():
    cfg = small_cfg(script=small_cfg().script + (
        Action(25 * MICRO, "clock_jump", {"node": "v0", "by": 2 * MICRO}),))
    report = Simulation(cfg).run()       # must simply run deterministically
    assert report.events_processed > 0



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
