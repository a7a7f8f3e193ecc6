"""Each end-of-run check in ``scenario.py`` fails on a run that breaks it,
with its own message: a check that could never fail would still pass
every bundled scenario."""

import pytest

from rangerevoke.scenario import parse_scenario, run_checks
from rangerevoke.simnet import Simulation

SIM = "[sim]\nseed = 1\nmanagers = 2\nfault_bound = 0\nclients = 2\nhorizon = 20\n"
GRANTED = "a1 = 1 request client=0 count=4 pm=pm0\na2 = 3 authenticate client=0\n"


def steal_a_capability(sim):
    """Client 1 shows a capability that client 0 showed."""
    sim.presented.append((1, sim.presented[0][1]))


# (test id, [crashes] and [script] entries, check entry, what the detail
# says, a change to the finished run)
BROKEN_RUNS = [
    ("convergence-divergent", "[crashes]\nc1 = pm1 1..20\n[script]\n"
     "a1 = 5 revoke client=0 pm=pm0\n", "convergence = yes",
     "divergent manager states: [('pm0', (0, 'serving', ", None),
    ("denied_after-never-authenticated", "", "denied_after = 0:0",
     "client0 never authenticated after t=0", None),
    ("denied_after-granted", "[script]\n" + GRANTED, "denied_after = 0:0",
     "client0 granted at t=3000000", None),
    ("no_grant_after-issued", "[script]\n" + GRANTED, "no_grant_after = 0:0",
     "client0 issued 4 at t=1", None),
    ("safemode-no-attempts", "", "safemode = v0:0..10",
     "no attempts at v0 in [0, 10000000)", None),
    ("safemode-wrong-answer", "[script]\n" + GRANTED, "safemode = v0:0..10",
     "v0 answered granted at t=3000000", None),
    ("no_cross_links-linked", "[script]\n" + GRANTED, "no_cross_links = yes",
     "1 cross-client transcript links", steal_a_capability),
    ("linkage-nothing-to-probe", "[script]\na1 = 5 revoke client=0 rts=0\n",
     "linkage = 0:0", "no pre-revocation latchkeys to probe", None),
]


@pytest.mark.parametrize("sections, check, detail, tamper",
                         [case[1:] for case in BROKEN_RUNS],
                         ids=[case[0] for case in BROKEN_RUNS])
def test_check_fails_on_a_run_that_breaks_it(tmp_path, sections, check, detail, tamper):
    path = tmp_path / "broken.scn"
    path.write_text(f"{SIM}{sections}[checks]\n{check}\n")
    cfg, checks = parse_scenario(path)
    sim = Simulation(cfg)
    report = sim.run()
    if tamper is not None:
        tamper(sim)
    [(key, ok, got)] = run_checks(sim, report, checks)
    assert key == check.split(" = ")[0]
    assert not ok and got.startswith(detail), got
