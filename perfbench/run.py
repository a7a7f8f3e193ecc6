#!/usr/bin/env python3
"""The rangerevoke benchmark: one seeded workload per run, from source.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` sets the workload up at
least ``SETUP_REPEATS`` times and for ``SETUP_SECONDS``, then drives it
as a closed loop with one caller in whole passes until ``--seconds`` of
loop time and ``MIN_PASSES`` passes are measured.  Each set-up and each
pass is scaled to a nominal host speed by the reference kernel timed
around and during it (see ``hostspeed``); every end-to-end metric is the
median over the set-ups or the passes.  ``--trace 1`` sets up once under
the tracer, alternates two untraced and two traced passes over the same
operations, and prints the per-layer metrics with the tracing overhead.
The last line of standard output is one JSON object; lines before it
repeat every metric by name with its unit, plus the host context.  A
full record, and the spans of a traced run, go to ``perfbench/out/``.

Exit code 0 when a result was printed (``correct`` says whether every
operation met its oracle), 1 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import sys
import time
import typing
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3        # at least this many set-ups ...
SETUP_SECONDS = 1.0      # ... and at least this much set-up time
MIN_PASSES = 3
TRACED_PASSES = 2        # untraced and traced passes alternate

END_TO_END = {"setup_s": "s", "op_p50_us": "us", "op_p90_us": "us", "ops_per_s": "1/s"}

# The per-workload metrics printed by name, and the gated metrics before
# host-speed scaling.
NAMED_UNITS = {
    "auth_p50_us": "us", "auth_p90_us": "us", "auths_per_s": "1/s",
    "issue_p50_us": "us", "issue_p90_us": "us",
    "revoke_p50_ms": "ms", "revoke_p90_ms": "ms",
    "sim_events_per_s": "1/s", "sim_wall_p50_ms": "ms",
    "revoke_reach_p50_s": "sim_s", "revoke_reach_max_s": "sim_s",
    "failed_share": "ratio",
    "host_ref_median_us": "us",
    "raw_setup_s": "s", "raw_op_p50_us": "us", "raw_op_p90_us": "us", "raw_ops_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, the same set on every workload."""
    from rangerevoke.messages import Message
    from tracer import DECISIONS, TARGETS
    units: dict[str, str] = {}
    for name, _, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "slot_tree.cover_labels_per_revoke": "count",
        "pseudonym.keys_derived_per_issue": "count",
        "ercset.queries_per_auth": "count",
        "ercset.merged.bytes": "bytes",
        "ercset.fill_ratio": "ratio",
        "ercset.fp_share": "ratio",
        "ercset.fp_share_plan": "ratio",
        "manager.issue.granted_ratio": "ratio",
        "manager.merge_filters.changed_ratio": "ratio",
        "manager.pushes": "count", "manager.pulls": "count", "manager.forwards": "count",
        "manager.warnings": "count",
        "verifier.handle_pull_response.counted_ratio": "ratio",
        "verifier.warnings": "count",
        "codec.encode_message.bytes": "bytes",
        "simnet.events": "count",
        "simnet.revoke_reach_p50_s": "sim_s",
        "simnet.revoke_reach_max_s": "sim_s",
        "simnet.revoke_unreached": "count",
        "trace.ops": "count",
        "trace.spans": "count",
        "trace.overhead_ratio": "ratio",
    })
    for decision in DECISIONS:
        units[f"verifier.decisions.{decision}"] = "count"
    for msg in typing.get_args(Message):
        units[f"simnet.messages.{msg.__name__}"] = "count"
    return units


def load_program() -> None:
    """Put the checkout's own source first on the path, or stop."""
    init = SRC / "rangerevoke" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: program source not found: {init}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import rangerevoke
    if Path(rangerevoke.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported rangerevoke from {rangerevoke.__file__}")


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_context(args) -> dict:
    from importlib.metadata import version
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cryptography": version("cryptography"), "commit": git_commit()}


class Passes:
    """Latencies and outcomes of whole passes over a workload's operations.

    Every pass replays the same operations on a fresh copy of the set-up
    state, so every pass does the same work.
    """

    def __init__(self):
        self.latencies: list[float] = []   # every execution, pass after pass
        self.kinds: list[str] = []
        self.walls: list[float] = []       # loop time of each whole pass
        self.scales: list[float] = []      # host-speed factor of each pass
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def per_pass(self, scaled: bool = True) -> dict[str, list[float]]:
        """The timing metrics of each pass, scaled by its host speed."""
        n = self.attempted // len(self.walls)
        out: dict[str, list[float]] = {"op_p50_us": [], "op_p90_us": [], "ops_per_s": []}
        for i, (wall, scale) in enumerate(zip(self.walls, self.scales)):
            scale = scale if scaled else 1.0
            lat = self.latencies[i * n:(i + 1) * n]
            out["op_p50_us"].append(percentile(lat, 50) * 1e6 * scale)
            out["op_p90_us"].append(percentile(lat, 90) * 1e6 * scale)
            out["ops_per_s"].append(n / (wall * scale))
        return out


def run_passes(wl, host, seconds: float = 0.0, passes: int | None = None, tracer=None,
               out: Passes | None = None) -> Passes:
    """Closed loop, one caller: whole passes until ``seconds`` of loop time
    and ``MIN_PASSES`` passes (or exactly ``passes`` passes), added to
    ``out``.  Loop time leaves out the oracle's checks, the per-pass reset
    and the ``host`` speed samples taken between operations and at both
    ends of a pass."""
    out = Passes() if out is None else out
    done = 0
    clock = time.perf_counter
    while (out.wall < seconds or done < MIN_PASSES) if passes is None else (done < passes):
        wl.start_pass()
        mark = len(host.times)
        host.sample(3)
        wall = 0.0
        resumed = clock()
        for i in range(wl.n_ops):
            if tracer:
                tracer.op = out.attempted
            t0 = clock()
            try:
                outcome = wl.op(i)
            except Exception as exc:  # noqa: BLE001 - an operation that raised failed
                outcome = exc
            t1 = clock()
            out.latencies.append(t1 - t0)
            out.kinds.append(wl.kind(i))
            if tracer:
                tracer.paused = True
            out.failed += isinstance(outcome, Exception) or bool(wl.check(i, outcome))
            if tracer:
                tracer.paused = False
            host.maybe_sample()
            wall += t1 - resumed
            resumed = clock()
        host.sample(3)
        out.walls.append(wall)
        out.scales.append(host.scale_since(mark))
        done += 1
    return out


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def named_metrics(wl, res: Passes) -> dict[str, float]:
    def lat(kind: str, scale: float, q: int) -> float:
        return percentile([t for t, k in zip(res.latencies, res.kinds) if k == kind], q) * scale

    if wl.name == "verify":
        return {"auth_p50_us": lat("auth", 1e6, 50), "auth_p90_us": lat("auth", 1e6, 90),
                "auths_per_s": res.attempted / res.wall}
    if wl.name == "manage":
        return {"issue_p50_us": lat("issue", 1e6, 50), "issue_p90_us": lat("issue", 1e6, 90),
                "revoke_p50_ms": lat("revoke", 1e3, 50), "revoke_p90_ms": lat("revoke", 1e3, 90)}
    reach_p50, reach_max = wl.reach()
    return {"sim_events_per_s": wl.events_total / res.wall,
            "sim_wall_p50_ms": lat("sim", 1e3, 50),
            "revoke_reach_p50_s": reach_p50, "revoke_reach_max_s": reach_max}


def timed_run(make, args) -> tuple[dict, dict, Passes, object]:
    """End-to-end metrics, scaled to the host speed the bounds were set at;
    the unscaled medians are returned with the named metrics."""
    from hostspeed import HostSpeed
    logging.getLogger("rangerevoke").setLevel(logging.ERROR)
    host = HostSpeed()
    setups: list[float] = []
    scaled_setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        mark = len(host.times)
        host.sample(3)
        t0, spent = time.perf_counter(), host.spent
        wl = make(args.seed, tick=host.maybe_sample)
        setups.append(time.perf_counter() - t0 - (host.spent - spent))
        host.sample(3)
        scaled_setups.append(setups[-1] * host.scale_since(mark))
    res = run_passes(wl, host, seconds=args.seconds)
    metrics = {"setup_s": statistics.median(scaled_setups)}
    metrics.update({k: statistics.median(v) for k, v in res.per_pass().items()})
    named = named_metrics(wl, res)
    named["failed_share"] = res.failed / res.attempted
    named["host_ref_median_us"] = statistics.median(host.times) * 1e6
    named["raw_setup_s"] = statistics.median(setups)
    named.update({f"raw_{k}": statistics.median(v)
                  for k, v in res.per_pass(scaled=False).items()})
    return metrics, named, res, wl


def traced_run(make, args) -> tuple[dict, Passes, object, object]:
    from hostspeed import HostSpeed
    from tracer import Tracer
    host = HostSpeed()
    tracer = Tracer()
    tracer.install()
    try:
        wl = make(args.seed)
    finally:
        tracer.uninstall()
    logging.getLogger("rangerevoke").setLevel(logging.ERROR)
    plain, res = Passes(), Passes()
    for _ in range(TRACED_PASSES):
        run_passes(wl, host, passes=1, out=plain)
        tracer.install()
        try:
            run_passes(wl, host, passes=1, tracer=tracer, out=res)
        finally:
            tracer.uninstall()
    metrics = dict.fromkeys(per_layer_units(), 0)
    metrics.update(tracer.summary())
    metrics.update(wl.layer_metrics())
    metrics["trace.ops"] = res.attempted
    metrics["trace.overhead_ratio"] = (statistics.median(plain.per_pass()["ops_per_s"])
                                       / statistics.median(res.per_pass()["ops_per_s"]) - 1)
    res.failed += plain.failed
    return metrics, res, wl, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    context = host_context(args)
    if args.trace:
        metrics, res, wl, tracer = traced_run(make, args)
        units, named = per_layer_units(), {}
    else:
        metrics, named, res, wl = timed_run(make, args)
        units, tracer = END_TO_END, None
    context["inputs_sha256"] = wl.digest.hexdigest()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"context": context, "attempted": res.attempted, "failed": res.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "named": {k: {"value": v, "unit": NAMED_UNITS[k]} for k, v in named.items()}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.csv.gz")

    print("# context " + json.dumps(context))
    for table in (record["named"], record["metrics"]):
        for key, m in table.items():
            print(f"{key:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
