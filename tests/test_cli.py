import os
import subprocess
import sys
from pathlib import Path

import pytest

from rangerevoke import cli
from rangerevoke.simnet import Action, Simulation


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
]


@pytest.mark.parametrize("args, names", _BAD_NUMBERS, ids=[a for a, _ in _BAD_NUMBERS])
def test_bad_numbers_are_usage_errors(capsys, args, names):
    assert cli.main(args.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err, err
    assert "Traceback" not in err


def test_storage_compare_command(capsys, tmp_path):
    assert cli.main(["--out", str(tmp_path), "storage-compare"]) == 0
    out = capsys.readouterr().out
    assert "39.2" in out                      # the year-at-1s headline ratio
    lines = (tmp_path / "storage.csv").read_text().splitlines()
    assert lines[0].startswith("delta_s,")
    assert len(lines) > 5


def test_simulate_bundled_scenario(capsys, tmp_path):
    assert cli.main(["--out", str(tmp_path), "simulate", "safemode"]) == 0
    out = capsys.readouterr().out
    assert "[ok] safemode" in out
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "auths.csv").read_text().startswith("at,verifier")


def test_simulate_seed_override_keeps_checks(capsys):
    assert cli.main(["simulate", "safemode", "--seed", "99"]) == 0


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
    scn.write_text("[sim]\nmanagers = 3\nfilter_m = 1024\ndelta_net = 0.25\n"
                   "[script]\na1 = 2.5 request client=0 count=6 pm=pm2\n"
                   "a2 = 1 clock_jump node=v0 by=-500000\n"
                   "[checks]\nconvergence = yes\ndenied_after.late = 0:40\n")
    cfg, checks = cli.parse_scenario(scn)
    assert (cfg.n_pms, cfg.filter_m, cfg.delta_net) == (3, 1024, 250_000)
    assert cfg.seed == 0 and cfg.horizon == 120 * 1_000_000   # SimConfig defaults
    assert cfg.script == (                                    # in time order
        Action(1_000_000, "clock_jump", {"node": "v0", "by": -500_000}),
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
