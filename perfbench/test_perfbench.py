"""Self-tests of the benchmark on its own workloads: tracer coverage,
closed-form per-operation counts, determinism and a clean oracle.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

from rangerevoke import cli, crypto, manager, pseudonym, simnet, verifier  # noqa: E402
from rangerevoke.ercset import BloomFilter  # noqa: E402


@functools.cache
def _traced(name: str, seed: int = 7, attempt: int = 0):
    """One traced run; ``attempt`` tells apart runs meant to be repeated."""
    return run.traced_run(workloads.WORKLOADS[name], SimpleNamespace(seed=seed))


def _per_op(tracer: Tracer, span: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for s in tracer.spans:
        if s[0] == span and s[4] >= 0:
            counts[s[4]] = counts.get(s[4], 0) + 1
    return counts


def test_tracer_patches_every_binding_and_restores_it():
    copies = [(crypto, "det_sign"), (pseudonym, "det_sign"), (manager, "det_sign"),
              (simnet, "det_sign"), (manager, "verify_capability"),
              (verifier, "verify_capability"), (cli, "verify_capability"),
              (workloads, "get_capability")]
    methods = [(BloomFilter, "query"), (BloomFilter, "add"), (BloomFilter, "merged"),
               (manager.TrustedCore, "issue"), (manager.TrustedCore, "revoke"),
               (manager.TrustedCore, "merge_filters"),
               (verifier.VerifierNode, "authenticate"),
               (verifier.VerifierNode, "handle_pull_response")]
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in copies + methods}
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr in copies + methods:
            assert vars(owner)[attr] is not before[(id(owner), attr)], (owner, attr)
            assert vars(owner)[attr].__wrapped__ is before[(id(owner), attr)]
    finally:
        tracer.uninstall()
    for owner, attr in copies + methods:
        assert vars(owner)[attr] is before[(id(owner), attr)], (owner, attr)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        cfg = workloads.Verify.geometry
        keys = workloads._Keys("t", 0)
        rrp = pseudonym.create_rrp(workloads._Keys.cid("t", 0, 0), 0, 1, keys.pm, 10)
        pseudonym.get_capability(rrp, 5, cfg)
    finally:
        tracer.uninstall()
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    outer = next(i for i, s in by_index.items() if s[0] == "pseudonym.get_capability")
    children = [s for s in tracer.spans if s[3] == outer]
    assert len(children) == 1 + cfg.height + 1          # path_to_root + one sign per label
    name, start, end, _, _, own, _ = by_index[outer]
    assert own == (end - start) - sum(c[2] - c[1] for c in children)


def test_verify_closed_forms():
    metrics, res, _wl, tracer = _traced("verify")
    assert res.failed == 0
    height = workloads.Verify.geometry.height
    decisions = {s[4]: s[6] for s in tracer.spans
                 if s[0] == "verifier.authenticate" and s[4] >= 0}
    signs = _per_op(tracer, "crypto.ver_sign")
    queries = _per_op(tracer, "ercset.query")
    granted = [op for op, d in decisions.items() if d == "granted"]
    assert granted
    for op in granted:
        assert signs[op] == height + 2 == 13
        assert queries[op] == height + 1 == 12
    assert metrics["verifier.decisions.not-genuine"] > 0
    assert metrics["verifier.decisions.revoked"] > 0


def test_manage_closed_forms():
    metrics, res, wl, tracer = _traced("manage")
    assert res.failed == 0
    merged = _per_op(tracer, "ercset.merged")
    revokes = [i for i in range(wl.n_ops) if wl.kind(i) == "revoke"]
    assert revokes
    for op in revokes:
        assert merged[op] == 2 * workloads.INSTANCES
    assert metrics["pseudonym.keys_derived_per_issue"] > 0
    assert 0 < metrics["manager.issue.granted_ratio"] < 1


def test_same_seed_same_inputs_counts_and_simulated_metrics():
    for name in ("verify", "manage", "gossip"):
        first, _, wl_a, _ = _traced(name)
        second, _, wl_b, _ = _traced(name, attempt=1)
        assert wl_a.digest.hexdigest() == wl_b.digest.hexdigest()
        stable = {k for k in first if k.endswith(".calls") or k.startswith("simnet.")
                  and not k.endswith("_ms")}
        assert {k: first[k] for k in stable} == {k: second[k] for k in stable}
    assert first["simnet.events"] > 0


def test_other_seed_other_inputs():
    for name in ("verify", "manage", "gossip"):
        other = workloads.WORKLOADS[name](8)
        assert other.digest.hexdigest() != _traced(name)[2].digest.hexdigest()


def test_timed_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)      # one set-up is enough here
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    args = SimpleNamespace(seed=5, seconds=0.01)
    for name in ("verify", "manage", "gossip"):
        metrics, named, res, _ = run.timed_run(workloads.WORKLOADS[name], args)
        assert set(metrics) == set(run.END_TO_END)
        assert all(v > 0 for v in metrics.values())
        assert named["failed_share"] == 0 and res.failed == 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert len(TARGETS) * 2 < len(spec["per_layer"]) <= 128
