"""``tools/compare.py`` on canned ``perfbench/run.py`` output: no run, no git
export, nothing written outside ``tmp_path``."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BETTER = {"setup_s": "lower", "op_p50_us": "lower", "op_p90_us": "lower",
          "ops_per_s": "higher"}
UNITS = {"setup_s": "s", "op_p50_us": "us", "op_p90_us": "us", "ops_per_s": "1/s"}


def run_output(values: dict[str, float], failed: int = 0) -> str:
    """What ``perfbench/run.py --trace 0`` prints: context, one line per
    metric, then the result object."""
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return "\n".join(
        ["# context " + json.dumps({"nproc": 2, "seed": 1})]
        + [f"{k:48s} {v:.6g} {UNITS[k]}" for k, v in values.items()]
        + [json.dumps({"correct": failed == 0, "attempted": 63, "failed": failed,
                       "metrics": metrics})]) + "\n"


def canned(i: int, side: str) -> dict[str, float]:
    """Pair i's values: the change is 5 us faster at p50 in every pair but
    pair 3, where it is 1 us slower; p90 goes the other way in pairs 0-6;
    throughput ties; set-up alternates."""
    base = {"setup_s": 0.5, "op_p50_us": 100.0 + i, "op_p90_us": 200.0 + 2 * i,
            "ops_per_s": 10.0}
    if side == "base":
        return base
    return {"setup_s": 0.5 + (0.1 if i % 2 else -0.1),
            "op_p50_us": base["op_p50_us"] + (1 if i == 3 else -5),
            "op_p90_us": base["op_p90_us"] + (3 if i < 7 else -3),
            "ops_per_s": 10.0}


def canned_pairs(n: int = 10) -> list[dict]:
    return [{"workload": "gossip", "seed": 40 + i, "first": ("base", "change")[i % 2],
             "base": compare.parse_result(run_output(canned(i, "base"))),
             "change": compare.parse_result(run_output(canned(i, "change"), failed=i == 9))}
            for i in range(n)]


def test_parse_result_reads_the_last_line_only():
    result = compare.parse_result(run_output(canned(0, "base")))
    assert result["correct"] is True and result["attempted"] == 63
    assert result["metrics"]["op_p50_us"] == {"value": 100.0, "unit": "us"}
    for text in ("", "# context {}\nsetup_s 1 s\n", '{"metrics": {}}\n'):
        with pytest.raises(ValueError):
            compare.parse_result(text)


@pytest.mark.parametrize("wins, losses, p", [
    (0, 0, 1.0), (5, 5, 1.0), (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024),
    (8, 2, 112 / 1024), (3, 0, 0.25), (1, 0, 1.0), (7, 3, 352 / 1024)])
def test_sign_test_is_two_sided_and_exact(wins, losses, p):
    assert compare.sign_test_p(wins, losses) == pytest.approx(p, abs=1e-15)
    assert compare.sign_test_p(losses, wins) == compare.sign_test_p(wins, losses)


def test_quartiles_interpolate_between_ranks():
    assert compare.quartiles([float(v) for v in range(100, 110)]) \
        == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert compare.quartiles([3.0, 1.0, 2.0]) == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert compare.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_aggregate_gives_every_field_per_workload_and_metric():
    pairs = canned_pairs()
    pairs.append({"workload": "verify", "seed": 1, "first": "base",
                  "base": compare.parse_result(run_output(canned(0, "base"))),
                  "change": compare.parse_result(run_output(canned(0, "base")))})
    out = compare.aggregate(pairs, BETTER)
    assert list(out) == ["gossip", "verify"]
    gossip = out["gossip"]
    assert gossip["pairs"] == 10 and gossip["seeds"] == list(range(40, 50))
    assert gossip["first"] == ["base", "change"] * 5
    assert gossip["all_correct"] is False                 # pair 9's change run failed one
    assert gossip["failed"] == {"base": 0, "change": 1}
    assert gossip["attempted"] == {"base": 630, "change": 630}
    assert list(gossip["metrics"]) == list(BETTER)

    p50 = gossip["metrics"]["op_p50_us"]
    base_runs = [100.0 + i for i in range(10)]
    change_runs = [v + (1 if i == 3 else -5) for i, v in enumerate(base_runs)]
    assert p50["unit"] == "us" and p50["better"] == "lower"
    assert p50["base"] == {"median": 104.5, "q1": 102.25, "q3": 106.75, "runs": base_runs}
    assert p50["change"]["runs"] == change_runs
    assert p50["change"]["median"] == pytest.approx(100.5)
    assert p50["ratio"] == pytest.approx(100.5 / 104.5)
    assert p50["base_iqr"] == pytest.approx(4.5)
    assert (p50["wins"], p50["losses"], p50["ties"]) == (9, 1, 0)
    assert p50["sign_test_p"] == pytest.approx(22 / 1024)

    p90 = gossip["metrics"]["op_p90_us"]
    assert (p90["wins"], p90["losses"], p90["ties"]) == (3, 7, 0)
    assert p90["sign_test_p"] == pytest.approx(352 / 1024)
    throughput = gossip["metrics"]["ops_per_s"]             # higher is better; all tie
    assert throughput["better"] == "higher" and throughput["ratio"] == 1.0
    assert (throughput["wins"], throughput["losses"], throughput["ties"]) == (0, 0, 10)
    assert throughput["sign_test_p"] == 1.0 and throughput["base_iqr"] == 0.0
    setup = gossip["metrics"]["setup_s"]                   # change first in the odd pairs
    assert (setup["wins"], setup["losses"]) == (5, 5) and setup["sign_test_p"] == 1.0

    verify = out["verify"]
    assert verify["pairs"] == 1 and verify["all_correct"] is True
    assert all(m["ties"] == 1 and m["ratio"] == 1.0 and m["sign_test_p"] == 1.0
               for m in verify["metrics"].values())


def test_higher_is_better_counts_a_rise_as_a_win():
    pairs = canned_pairs(4)
    for i, pair in enumerate(pairs):
        pair["change"]["metrics"]["ops_per_s"]["value"] = 11.0 if i else 9.0
    rate = compare.aggregate(pairs, BETTER)["gossip"]["metrics"]["ops_per_s"]
    assert (rate["wins"], rate["losses"], rate["ties"]) == (3, 1, 0)
    assert rate["ratio"] == pytest.approx(1.1)
    assert math.isclose(rate["sign_test_p"], 10 / 16)


def fake_export(same_harness: bool):
    """An ``export`` that writes a one-file harness, the same for every
    revision or not, and a run output that differs, which is ignored."""
    def export(rev, into):
        (into / "perfbench" / "out").mkdir(parents=True)
        (into / "perfbench" / "run.py").write_text("harness" if same_harness
                                                   else f"harness of {rev}")
        (into / "perfbench" / "out" / "left.json").write_text(rev)
        return f"{rev:0<40}"
    return export


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """The tool's temporary trees go under ``tmp_path`` too."""
    monkeypatch.setattr(compare.tempfile, "tempdir", str(tmp_path))
    return tmp_path


def test_main_alternates_sides_and_writes_one_file(scratch, monkeypatch):
    tmp_path = scratch
    monkeypatch.setattr(compare, "export", fake_export(same_harness=True))
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = tree.name
        calls.append((workload, seed, side, seconds))
        i = sum(1 for c in calls if c[0] == workload and c[2] == side) - 1
        return compare.parse_result(run_output(canned(i, side)))
    monkeypatch.setattr(compare, "run_once", run_once)
    argv = ["--base", "aaa", "--change", "bbb", "--workload", "gossip", "manage",
            "--pairs", "3", "--seconds", "0.5", "--seed", "7", "8", "--label", "t",
            "--out-dir", str(tmp_path)]
    assert compare.main(argv) == 0
    assert [c[1:3] for c in calls[:6]] == [(7, "base"), (7, "change"), (8, "change"),
                                           (8, "base"), (7, "base"), (7, "change")]
    assert [c[0] for c in calls] == ["gossip"] * 6 + ["manage"] * 6
    assert {c[3] for c in calls} == {0.5}
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_t.json"]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["label"] == "t" and record["seconds"] == 0.5 and record["seeds"] == [7, 8]
    assert record["base"] == {"ref": "aaa", "commit": "aaa" + "0" * 37}
    assert record["change"] == {"ref": "bbb", "commit": "bbb" + "0" * 37}
    assert set(record["host"]) == {"nproc", "python", "libsodium"}
    assert record["host"]["nproc"] >= 1 and record["host"]["python"].count(".") == 2
    assert record["host"]["libsodium"]
    assert list(record["workloads"]) == ["gossip", "manage"]
    assert record["workloads"]["gossip"]["seeds"] == [7, 8, 7]
    assert list(record["workloads"]["manage"]["metrics"]) == list(BETTER)


def test_main_refuses_trees_whose_harness_differs(scratch, monkeypatch, capsys):
    tmp_path = scratch
    monkeypatch.setattr(compare, "export", fake_export(same_harness=False))
    monkeypatch.setattr(compare, "run_once", lambda *args: pytest.fail("ran a benchmark"))
    argv = ["--base", "aaa", "--change", "bbb", "--workload", "gossip", "--pairs", "1",
            "--seconds", "1", "--seed", "1", "--label", "t", "--out-dir", str(tmp_path)]
    assert compare.main(argv) == 2
    assert "perfbench/ differs" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
