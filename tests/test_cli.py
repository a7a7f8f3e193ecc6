import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rangerevoke import cli, simnet
from rangerevoke.scenario import SCENARIO_DIR, parse_scenario, run_checks
from rangerevoke.simnet import Action, Simulation

# SHA-256 of (stdout, the one CSV) that ``rangerevoke --out DIR ARGS`` writes
ANALYSIS_OUTPUTS = {
    "size": ("217702185baed0c35cf2f26c2374a8ff68cffd1e59bea83a98605329a85def64",
             "1408996ce77b67bb3ecfb0caf5d65c4871bccd2ac0b2c4b46875681b028043b5"),
    "size --slots 1440 --delta 60":
            ("ed4d4feb1a115e628354555dd2a0ca975d1907c7c578b92a0fe92692c42886a7",
             "80c71270f623211a7898ce85dfd0c8f92ddcab5aa83e3f5127f37e8ccbf5c2f1"),
    "size --slots 1": ("b4e5b9f64ab33af552f6c6709b5188112e21a00d92aa05a7b716ef480539f827",
                       "39eb459c70d363def46e533e3edfa03d4450d45c3d71c0f74c71aadcf6e7f077"),
    "storage-compare":
            ("9788a34a07703e4dc5a9f0856c75b80f4d3c6c84858a96aa0551be139ab55148",
             "a9abdc0a94339597de55947463af24248cd44daa311616258ea25b291d0ef2bb"),
}

# SHA-256 of the "key<TAB>ok<TAB>detail" lines of each bundled scenario's checks
BUNDLED_CHECKS = {
    "quarantine": "290b10ebfd0fcecb1f25c0c1be6f98c14e6c2c3ba9d27bf10b32aeef895d8183",
    "linkage": "8c2e2810f2a19af315304cf2763ccc69e5f06e70dc73ee393d6b2208e251d51a",
    "safemode": "8bf863f6e16e351c4bf32abb448f040e279036cdb98ac5ca3eb511deb50e02b0",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_parse_duration():
    assert cli.parse_duration("90") == 90
    assert cli.parse_duration("1.5h") == 5400
    assert cli.parse_duration("1d") == 86_400
    assert cli.parse_duration("1y") == 31_536_000
    with pytest.raises(ValueError):
        cli.parse_duration("10q")


def test_size_command(capsys, tmp_path):
    assert cli.main(["--out", str(tmp_path), "size"]) == 0
    out = capsys.readouterr().out
    assert "4910.9" in out
    assert "~9 KB" in out
    header, row = (tmp_path / "size.csv").read_text().splitlines()
    assert header.startswith("slots,")
    assert row.startswith("144,")


def test_size_command_minute_slots(capsys):
    assert cli.main(["size", "--slots", "1440", "--delta", "60"]) == 0
    assert "~13 KB" in capsys.readouterr().out


def test_size_command_degenerate_single_slot(capsys):
    assert cli.main(["size", "--slots", "1"]) == 0
    assert "slots T              1" in capsys.readouterr().out


def test_size_command_bad_params():
    assert cli.main(["size", "--revoked-frac", "2.0"]) == 2


# (arguments, what the error names)
_BAD_NUMBERS = [
    ("size --delta 1e999", "duration '1e999'"),
    ("size --delta 1e308y", "duration '1e308y'"),
    ("size --clients 1e999", "clients"),
    ("size --clients nan", "clients"),
    ("storage-compare --epoch 1e999", "duration '1e999'"),
    ("size --fanout 1", "fanout"),
    ("storage-compare --fanout 1", "fanout"),
    ("storage-compare --delta 0", "delta"),
    ("storage-compare --daily-demand -5 --delta 1m --epoch 1d", "daily demand"),
    ("storage-compare --daily-demand 0", "daily demand"),
    ("storage-compare --delta 2d --epoch 1d", "every --delta exceeds every --epoch"),
]


@pytest.mark.parametrize("args, names", _BAD_NUMBERS, ids=[a for a, _ in _BAD_NUMBERS])
def test_bad_numbers_are_usage_errors(capsys, args, names):
    assert cli.main(args.split()) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and names in err, err
    assert "Traceback" not in err
    assert out == ""


def test_storage_compare_command(capsys, tmp_path):
    assert cli.main(["--out", str(tmp_path), "storage-compare"]) == 0
    out = capsys.readouterr().out
    assert "39.2" in out                      # the year-at-1s headline ratio
    lines = (tmp_path / "storage.csv").read_text().splitlines()
    assert lines[0].startswith("delta_s,")
    assert len(lines) > 5


def test_storage_compare_skips_only_slots_longer_than_the_epoch(capsys):
    assert cli.main(["storage-compare", "--delta", "1h,2d", "--epoch", "1d"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows] == [["3600", "86400"]]


@pytest.mark.parametrize("args", sorted(ANALYSIS_OUTPUTS))
def test_analysis_outputs_are_pinned(capsys, tmp_path, args):
    # a change to the sizing or slot-locked cost model that moves any
    # printed or written figure fails here
    assert cli.main(["--out", str(tmp_path)] + args.split()) == 0
    [csv] = tmp_path.iterdir()
    got = (sha256(capsys.readouterr().out), sha256(csv.read_text(encoding="utf-8")))
    assert got == ANALYSIS_OUTPUTS[args]


@pytest.mark.parametrize("name", sorted(BUNDLED_CHECKS))
def test_bundled_check_lines_are_pinned(name):
    cfg, checks = parse_scenario(SCENARIO_DIR / f"{name}.scn")
    sim = Simulation(cfg)
    results = run_checks(sim, sim.run(), checks)
    assert sha256("".join(f"{key}\t{ok}\t{detail}\n" for key, ok, detail in results)) \
        == BUNDLED_CHECKS[name]


def test_event_budget_is_a_config_error(capsys, monkeypatch):
    monkeypatch.setattr(simnet, "EVENT_BUDGET", 50)
    assert cli.main(["simulate", "safemode"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: event budget of 50 events exceeded at t=80.0061 s, "
                   "before the [sim] horizon of 120 s\n")


def test_simulate_bundled_scenario(capsys, tmp_path):
    assert cli.main(["--out", str(tmp_path), "simulate", "safemode"]) == 0
    out = capsys.readouterr().out
    assert "[ok] safemode" in out
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "auths.csv").read_text().startswith("at,verifier")


def test_simulate_seed_override_keeps_checks(capsys):
    assert cli.main(["simulate", "safemode", "--seed", "99"]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_simulate_seed_out_of_range_is_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "safemode", "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed: " in capsys.readouterr().err


def test_simulate_missing_scenario(capsys):
    assert cli.main(["simulate", "no-such-scenario"]) == 2
    assert "bad scenario" in capsys.readouterr().err


def test_simulate_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[script]\na1 = oops\n")
    assert cli.main(["simulate", str(bad)]) == 2


def test_scenario_failing_check_exits_one(tmp_path, capsys):
    scn = tmp_path / "fail.scn"
    scn.write_text(
        "[sim]\nseed = 1\nmanagers = 1\nfault_bound = 0\nclients = 1\n"
        "horizon = 10\n"
        "[checks]\nrecovers = v0:1\n")
    assert cli.main(["simulate", str(scn)]) == 1
    assert "[FAIL] recovers" in capsys.readouterr().out


def test_unknown_check_is_config_error(tmp_path, capsys):
    scn = tmp_path / "odd.scn"
    scn.write_text("[sim]\nseed = 1\nhorizon = 5\n[checks]\nbogus = yes\n")
    with pytest.raises(ValueError, match="bogus"):
        cli.parse_scenario(scn)
    assert cli.main(["simulate", str(scn)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bogus" in err         # refused before the run


@pytest.mark.parametrize("line", ["exact_filters = yes", "manager = 5"])
def test_unknown_sim_key_is_config_error(tmp_path, capsys, line):
    key = line.split()[0]
    scn = tmp_path / "odd.scn"
    scn.write_text(f"[sim]\nseed = 1\nhorizon = 5\n{line}\n")
    with pytest.raises(ValueError, match=key):
        cli.parse_scenario(scn)
    assert cli.main(["simulate", str(scn)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and key in err


def test_scenario_keys_reach_sim_config(tmp_path):
    scn = tmp_path / "keys.scn"
    scn.write_text("[sim]\nmanagers = 3\npull_period = 2\ndelta_net = 0.25\n"
                   "[script]\na1 = 2.5 request client=0 count=6 pm=pm2\n"
                   "a2 = 1 authenticate client=0\n"
                   "[checks]\nconvergence = yes\ndenied_after.late = 0:40\n")
    cfg, checks = cli.parse_scenario(scn)
    assert (cfg.n_pms, cfg.pull_period, cfg.delta_net) == (3, 2_000_000, 250_000)
    assert cfg.seed == 0 and cfg.horizon == 120 * 1_000_000   # SimConfig defaults
    assert cfg.script == (                                    # in time order
        Action(1_000_000, "authenticate", {"client": 0}),
        Action(2_500_000, "request", {"client": 0, "count": 6, "pm": "pm2"}))
    assert checks == {"convergence": (), "denied_after.late": (0, 40_000_000)}


_VALID = {"sim": ["seed = 1", "managers = 2", "fault_bound = 0", "clients = 3",
                  "horizon = 20"],
          "script": ["a1 = 2 request client=0 count=4 pm=pm0",
                     "a0 = 4 authenticate client=0"],     # verifier v0 by default
          "checks": ["no_cross_links = yes"]}

# (section, entry added to _VALID or replacing its entry of the same key,
# what the error says)
_MALFORMED = [
    ("checks", "linkage = 5:3", "[checks] linkage: client must be in 0..2, got 5"),
    ("script", "a2 = 3 request client=5", "client must be in 0..2, got 5"),
    ("script", "a2 = 3 authenticate client=0 verifier=v7", "no verifier 'v7'"),
    ("script", "a2 = 3 request count=2", "request needs client="),
    ("crashes", "c1 = v0 5..10", "no manager 'v0'"),
    ("checks", "denied_after = 5", "expected CLIENT:TIME, got '5'"),
    ("script", "a2 = 3 reqest client=0", "unknown action 'reqest'"),
    ("script", "a2 = 3 request client=0 count=300", "count must be in 1..255, got 300"),
    ("checks", "convergence = no", "expected yes, got 'no'"),
    ("script", "a2 = 3 authenticate client=0 count=2",
     "authenticate takes no argument 'count'"),
    ("script", "a2 = 3 request client=0 count=0", "count must be in 1..255, got 0"),
    ("checks", "recovers = v1:10", "[checks] recovers: no verifier 'v1'"),
    ("sim", "verifiers = 0",
     "[script] a0: authenticate without verifier= uses v0: no verifier 'v0'"),
    ("sim", "managers = 0", "[sim] managers: must be >= 1, got 0"),
    ("sim", "fault_bound = 2", "[sim] fault_bound: must be in 0..1, got 2"),
    ("checks", "safemode = v0", "[checks] safemode: expected VERIFIER:SPAN, got 'v0'"),
    ("checks", "safemode = v0:80..40",
     "[checks] safemode: window ends before it starts: '80..40'"),
    ("checks", "linkage = 0:9", "[checks] linkage: slot must be in 0..3, got 9"),
    ("checks", "recovers = v0:x",
     "[checks] recovers: expected a time in seconds >= 0, got 'x'"),
    ("checks", "no_cross_links = no", "[checks] no_cross_links: expected yes, got 'no'"),
    ("checks", "denied_after = 0:4:0", "[checks] denied_after: expected CLIENT:TIME"),
    ("checks", "no_grant_after = 3:5", "[checks] no_grant_after: client must be in 0..2"),
    ("sim", "seed = 18446744073709551616",
     "[sim] seed: seed must be in 0..18446744073709551615, got 18446744073709551616"),
    ("sim", "seed = -1", "[sim] seed: seed must be in 0..18446744073709551615, got -1"),
    ("unstable", "w1 = 20", "[unstable] w1: expected START..END, got '20'"),
    ("sim", "clients = -1", "[sim] clients: must be >= 0, got -1"),
    ("crashes", "c1 = pm0", "[crashes] c1: expected MANAGER START..END, got 'pm0'"),
    ("script", "a2 = 3 request client", "[script] a2: expected ARG=VALUE, got 'client'"),
    ("script", "a2 = 3 request client=0 client=1",
     "[script] a2: argument 'client' given twice"),
    ("sim", "managers", "Source contains parsing errors"),
    ("extra", "x = 1", "unknown section [extra]"),
    ("sim", "gossip_timeout = 0", "[sim] gossip_timeout: must be > 0 s, got 0 s"),
    ("sim", "pull_period = 0", "[sim] pull_period: must be > 0 s, got 0 s"),
    ("sim", "delta_net = 0", "[sim] delta_net: must be > 0 s, got 0 s"),
    # keys of settings every run now takes from the simulator's constants
    ("sim", "filter_m = 12", "[sim] filter_m: unknown [sim] key"),
    ("sim", "filter_m = 0", "[sim] filter_m: unknown [sim] key"),
    ("sim", "filter_k = 0", "[sim] filter_k: unknown [sim] key"),
    ("sim", "delta = 0", "[sim] delta: must be > 0 s, got 0 s"),
    ("sim", "delta = 90", "[sim] delta: must not exceed epoch_len (60 s)"),
    ("sim", "epoch_len = 0", "[sim] epoch_len: must be > 0 s, got 0 s"),
    ("sim", "fanout = 1", "[sim] fanout: unknown [sim] key"),
]


@pytest.mark.parametrize("section, entry, reason", _MALFORMED,
                         ids=[entry for _, entry, _ in _MALFORMED])
def test_malformed_scenario_refused_before_run(tmp_path, capsys, monkeypatch,
                                               section, entry, reason):
    def run(self):
        raise AssertionError("the simulation started")
    monkeypatch.setattr(Simulation, "run", run)
    key = entry.split(" = ")[0]
    sections = {name: [e for e in entries if e.split(" = ")[0] != key]
                for name, entries in _VALID.items()}
    sections.setdefault(section, []).append(entry)
    scn = tmp_path / "bad.scn"
    scn.write_text("".join(f"[{name}]\n" + "".join(f"{e}\n" for e in entries)
                           for name, entries in sections.items()))
    assert cli.main(["simulate", str(scn)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad scenario: ") and reason in err, err


def test_import_cli_loads_no_scipy_or_numpy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, rangerevoke.cli; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
