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


def exit_code(argv: list[str]) -> int:
    """``cli.main``'s exit code, whether it returns one or argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_size_command_bad_params():
    assert exit_code(["size", "--revoked-frac", "2.0"]) == 2


@pytest.mark.parametrize("slots, delta", [("144", "1.5"), ("10", "2.5"), ("144", "0.4")])
def test_size_refuses_a_delta_of_part_seconds(capsys, slots, delta):
    """A slot of part seconds has no integer geometry; rounding it apart
    from the epoch printed another T than --slots (108 for 144 × 1.5 s)."""
    assert exit_code(["size", "--slots", slots, "--delta", delta]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("rangerevoke size: error: argument --delta: must be a positive "
                        f"whole number of seconds, got {delta}\n")


def test_size_takes_whole_seconds_written_with_a_unit(capsys):
    assert cli.main(["size", "--slots", "10", "--delta", "1.5m"]) == 0
    assert "slots T              10\n" in capsys.readouterr().out


_NOT_A_DURATION = "is not a number with an optional unit s, m, h, d or y\n"

# (arguments, the last line of the error); argparse names the flag of a
# value refused by its type, and a check of two flags names both
_BAD_NUMBERS = [
    ("size --delta 1e999", "argument --delta: duration '1e999' is not a finite number"),
    ("size --delta 1e308y", "argument --delta: duration '1e308y' is not a finite number"),
    ("size --clients 1e999", "argument --clients: must be positive and finite, got 1e999\n"),
    ("size --clients nan", "argument --clients: must be positive and finite, got nan\n"),
    ("size --clients 0", "argument --clients: must be positive and finite, got 0\n"),
    ("size --slots 0", "argument --slots: must be positive, got 0\n"),
    ("size --slots -3", "argument --slots: must be positive, got -3\n"),
    ("size --delta 0", "argument --delta: must be a positive whole number of seconds, got 0\n"),
    ("size --delta -60",
     "argument --delta: must be a positive whole number of seconds, got -60\n"),
    ("size --pseudos 0", "argument --pseudos: must be positive, got 0\n"),
    ("size --needed 0", "argument --needed: must be positive, got 0\n"),
    ("size --extra -1", "argument --extra: must not be negative, got -1\n"),
    ("size --revoked-frac 2", "argument --revoked-frac: must lie in [0, 1], got 2\n"),
    ("size --fp 0", "argument --fp: must lie strictly between 0 and 1, got 0\n"),
    ("size --fp 1.5", "argument --fp: must lie strictly between 0 and 1, got 1.5\n"),
    ("storage-compare --epoch 1e999",
     "argument --epoch: duration '1e999' is not a finite number"),
    ("size --fanout 1", "argument --fanout: must be at least 2, got 1\n"),
    ("storage-compare --fanout 1", "argument --fanout: must be at least 2, got 1\n"),
    ("storage-compare --delta 0", "argument --delta: must be positive, got 0\n"),
    ("storage-compare --delta -60", "argument --delta: must be positive, got -60\n"),
    ("storage-compare --epoch 0", "argument --epoch: must be positive, got 0\n"),
    ("storage-compare --delta 1s,,1m",
     "argument --delta: must be positive, got an empty item\n"),
    ("size --delta 1,2", f"argument --delta: duration '1,2' {_NOT_A_DURATION}"),
    ("storage-compare --daily-demand -5 --delta 1m --epoch 1d",
     "argument --daily-demand: must be at least 1, got -5\n"),
    ("storage-compare --daily-demand 0", "argument --daily-demand: must be at least 1, got 0\n"),
    # 86,400 s over 1e-305 s slots is an infinite slot count
    ("storage-compare --delta 1e-305 --epoch 1d",
     "error: --epoch 86400 over --delta 1e-305 is over 2**64 slots\n"),
    ("storage-compare --delta 2d --epoch 1d",
     "error: no slot length fits in an epoch: every --delta exceeds every --epoch\n"),
    ("storage-compare --delta abc", f"argument --delta: duration 'abc' {_NOT_A_DURATION}"),
    ("storage-compare --delta m", f"argument --delta: duration 'm' {_NOT_A_DURATION}"),
    ("storage-compare --delta nan", "argument --delta: duration 'nan' is not a finite number"),
    ("storage-compare --epoch 1.2.3", f"argument --epoch: duration '1.2.3' {_NOT_A_DURATION}"),
    ("size --delta 10x", f"argument --delta: duration '10x' {_NOT_A_DURATION}"),
    # text int() or float() cannot read is refused in the flag's words
    ("size --pseudos 2.5", "argument --pseudos: must be a whole number, got 2.5\n"),
    ("size --slots 1e3", "argument --slots: must be a whole number, got 1e3\n"),
    ("size --fanout abc", "argument --fanout: must be a whole number, got abc\n"),
    ("size --extra 1.5", "argument --extra: must be a whole number, got 1.5\n"),
    ("storage-compare --daily-demand abc",
     "argument --daily-demand: must be a whole number, got abc\n"),
    ("size --clients abc", "argument --clients: must be a number, got abc\n"),
    ("size --fp 1%", "argument --fp: must be a number, got 1%\n"),
]


@pytest.mark.parametrize("args, names", _BAD_NUMBERS, ids=[a for a, _ in _BAD_NUMBERS])
def test_bad_numbers_are_usage_errors(capsys, args, names):
    assert exit_code(args.split()) == 2
    out, err = capsys.readouterr()
    last = err.splitlines(keepends=True)[-1]
    command = args.split()[0]
    assert last.startswith((f"rangerevoke {command}: error: argument --", "error: ")), err
    assert names in last, err
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
    # the tick is a manager's only clock check, so it runs at least once an epoch
    ("sim", "gossip_timeout = 61", "[sim] gossip_timeout: must not exceed epoch_len (60 s)"),
    ("sim", "epoch_len = 0", "[sim] epoch_len: must be > 0 s, got 0 s"),
    # finite seconds, but an infinite number of microseconds
    ("sim", "horizon = 1e303", "[sim] horizon: time '1e303' s is too large"),
    ("sim", "epoch_len = 1e303", "[sim] epoch_len: time '1e303' s is too large"),
    ("script", "a2 = 1e303 request client=0", "[script] a2: time '1e303' s is too large"),
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


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a child Python that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **extra)


def test_size_refuses_a_filter_past_the_limit_at_once():
    """The planner refuses a filter of about 2.8e12 bits before it
    searches: there 1 - 1/m rounds alike for a thousand byte steps and
    more.  Run in a child under a time limit."""
    run = subprocess.run([sys.executable, "-m", "rangerevoke.cli", "size", "--clients", "1e16"],
                         env=child_env(), capture_output=True, text=True, timeout=20)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: ") and "over the 2**40-bit limit" in run.stderr


def test_size_plans_the_largest_fleet_under_the_limit_quickly():
    """3.8e15 clients need a filter just under 2**40 bits, where the
    byte-step walk took 4 s; the planner's search answers at once.  Run
    in a child under a 2 s limit, start-up included."""
    run = subprocess.run([sys.executable, "-m", "rangerevoke.cli", "size",
                          "--clients", "3.8e15"],
                         env=child_env(), capture_output=True, text=True, timeout=2)
    assert run.returncode == 0, run.stderr
    assert "filter size m        1073243879032 bits" in run.stdout


def test_import_cli_loads_no_scipy_or_numpy():
    code = ("import sys, rangerevoke.cli; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("value", ["basic_format", "bogus", "info"])
def test_rrp_log_takes_only_level_names(value):
    """``RRP_LOG`` names a logging level in any case; anything else, even
    another attribute of ``logging``, reads as error.  Run in a child
    process, since ``basicConfig`` sets up the whole process's root logger."""
    run = subprocess.run([sys.executable, "-m", "rangerevoke.cli", "size"],
                         env=child_env(RRP_LOG=value), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr == "" and run.stdout.startswith("slots T")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
