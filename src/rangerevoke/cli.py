"""Operator command line: sizing calculator, scenario runner, benchmarks,
storage comparison.

Subcommands::

    rangerevoke size             closed-form filter sizing table
    rangerevoke simulate FILE    run a scenario file, evaluate its checks
    rangerevoke bench            verification latency / issuance throughput
    rangerevoke storage-compare  revocation storage vs a slot-locked scheme

Every subcommand is deterministic given its flags and seed.  Exit codes:
0 success, 1 a scenario/acceptance check failed, 2 usage or config error.
``--out DIR`` writes CSV artifacts; tables always go to stdout.  The env
var ``RRP_LOG`` (error, info, debug) controls logging.

Scenario files are INI format; times are seconds (floats allowed)::

    [sim]
    seed = 7
    managers = 4
    fault_bound = 1
    verifiers = 1
    clients = 2
    epoch_len = 60
    delta = 15
    horizon = 100
    ...                     ; also fanout, delta_net, epsilon, gossip_timeout,
                            ; pull_period, filter_m, filter_k, max_instances;
                            ; times in seconds; an unknown key is an error

    [crashes]
    c1 = pm3 55..80         ; node, then down-window

    [unstable]
    w1 = 20..35             ; network partitions: messages held until end

    [script]                ; keys are only for ordering/uniqueness
    a1 = 2 request client=0 count=6 pm=pm0
    a2 = 8 authenticate client=0 verifier=v0
    a3 = 30 revoke client=0

    [checks]                ; names from _CHECKS, evaluated after the run
    convergence = yes
    denied_after = 0:40
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import codec, sizing
from .crypto import det_keygen, digest, seed_from_parts
from .ercset import FilterParams
from .manager import TrustedCore
from .messages import RequestRrp
from .pseudonym import create_rrp, get_capability, verify_capability
from .simnet import (
    MICRO,
    Action,
    CrashWindow,
    SimConfig,
    Simulation,
    Window,
    linkage_adversary,
)
from .slot_tree import EpochConfig

log = logging.getLogger(__name__)

SCENARIO_DIR = Path(__file__).parent / "scenarios"

BENCH_HEIGHTS = (8, 11, 16, 32)
BENCH_BATCHES = (4, 8, 16, 32)


# -- helpers ----------------------------------------------------------------

_UNIT_SECONDS = {"s": 1, "m": 60, "h": 3600, "d": 86_400, "y": 31_536_000}


def parse_duration(text: str) -> float:
    """'90', '1.5h', '1d', '1y' -> seconds."""
    text = text.strip()
    unit = 1
    if text and text[-1].isalpha():
        try:
            unit = _UNIT_SECONDS[text[-1]]
        except KeyError:
            raise ValueError(f"unknown time unit in {text!r}") from None
        text = text[:-1]
    return float(text) * unit


def _micros(seconds: float) -> int:
    return round(seconds * MICRO)


def _write_csv(out_dir: str | None, name: str, rows: list[list]) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    text = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
    (path / name).write_text(text, encoding="utf-8")


# -- size -------------------------------------------------------------------

def cmd_size(args: argparse.Namespace) -> int:
    delta = parse_duration(args.delta)
    params = sizing.DeploymentParams(
        clients=args.clients, pseudonyms=args.pseudos,
        revoked_fraction=args.revoked_frac, fanout=args.fanout,
        epoch_len=round(args.slots * delta), delta=round(delta),
        needed=args.needed, extra=args.extra)
    result = sizing.plan_filter(params, args.fp)
    cmp_ = sizing.compare_linear_scheme(params)
    print(f"slots T              {cmp_.slots}")
    print(f"tree height h        {max(1, params.tree_height)}")
    print(f"expected inserts n   {result.n:.1f}")
    print(f"filter size m        {result.m} bits = {result.m_bytes} bytes "
          f"(~{result.m_kb} KB)")
    print(f"index functions k    {result.k}")
    print(f"per-probe FP x       {result.fp_rate:.3e}")
    print(f"per-capability FP    {result.fp_capability:.3e}")
    print(f"P(full access)       {result.full_access:.12f}  "
          f"(p={params.needed}, M={params.extra})")
    print(f"revocation entries   tree {cmp_.revocation_entries_tree}  "
          f"slot-locked {cmp_.revocation_entries_linear}")
    print(f"client pseudonyms    tree {cmp_.client_pseudonyms_tree}  "
          f"slot-locked {cmp_.client_pseudonyms_linear}")
    _write_csv(args.out, "size.csv", [
        ["slots", "n", "m_bits", "m_kb", "k", "fp_probe", "fp_capability",
         "full_access"],
        [cmp_.slots, f"{result.n:.3f}", result.m, result.m_kb, result.k,
         f"{result.fp_rate:.6e}", f"{result.fp_capability:.6e}",
         f"{result.full_access:.12e}"],
    ])
    return 0


# -- storage-compare --------------------------------------------------------

def cmd_storage_compare(args: argparse.Namespace) -> int:
    deltas = [parse_duration(d) for d in args.delta.split(",")]
    epochs = [parse_duration(e) for e in args.epoch.split(",")]
    rows = [["delta_s", "epoch_s", "slots", "demand", "per_slot",
             "tree_entries", "flat_entries", "tree_kb", "flat_kb", "ratio"]]
    print(f"{'delta':>10} {'epoch':>10} {'slots':>9} {'tree KB':>12} "
          f"{'slot-locked KB':>14} {'ratio':>7}")
    for epoch in epochs:
        for delta in deltas:
            if delta > epoch:
                continue
            row = sizing.storage_comparison(delta, epoch, args.fanout,
                                            args.daily_demand)
            rows.append([f"{delta:g}", f"{epoch:g}", row.slots, row.demand,
                         row.per_slot, row.tree_entries, row.flat_entries,
                         f"{row.tree_kb:.1f}", f"{row.flat_kb:.1f}",
                         f"{row.ratio:.2f}"])
            print(f"{delta:>10g} {epoch:>10g} {row.slots:>9} "
                  f"{row.tree_kb:>12.1f} {row.flat_kb:>14.1f} {row.ratio:>7.2f}")
    _write_csv(args.out, "storage.csv", rows)
    return 0


# -- simulate ---------------------------------------------------------------

def _parse_action_args(tokens: list[str]) -> dict:
    out: dict = {}
    for tok in tokens:
        key, _, value = tok.partition("=")
        if not _:
            raise ValueError(f"expected key=value, got {tok!r}")
        try:
            out[key] = int(value)
        except ValueError:
            out[key] = value
    return out


# [sim] keys: integer keys name their SimConfig field, the rest are
# SimConfig times given in seconds; absent keys keep the SimConfig default
_SIM_INTS = {"seed": "seed", "managers": "n_pms", "fault_bound": "fault_bound",
             "verifiers": "n_verifiers", "clients": "n_clients",
             "fanout": "fanout", "filter_m": "filter_m", "filter_k": "filter_k",
             "max_instances": "max_instances"}
_SIM_SECONDS = ("epoch_len", "delta", "delta_net", "epsilon", "horizon",
                "gossip_timeout", "pull_period")


def parse_scenario(path: Path) -> tuple[SimConfig, dict[str, str]]:
    """Read an INI scenario file into a SimConfig plus its checks.

    Unknown ``[sim]`` keys and unknown check names raise ``ValueError``
    before anything runs.
    """
    ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as fh:
        ini.read_file(fh)
    kwargs: dict = {}
    if ini.has_section("sim"):
        for key, value in ini.items("sim"):
            if key in _SIM_INTS:
                kwargs[_SIM_INTS[key]] = int(value)
            elif key in _SIM_SECONDS:
                kwargs[key] = _micros(float(value))
            else:
                raise ValueError(f"unknown [sim] key {key!r}")
    windows = []
    if ini.has_section("unstable"):
        for _, value in ini.items("unstable"):
            start, _, end = value.partition("..")
            windows.append(Window(_micros(float(start)), _micros(float(end))))
    crashes = []
    if ini.has_section("crashes"):
        for _, value in ini.items("crashes"):
            node, span = value.split()
            start, _, end = span.partition("..")
            crashes.append(CrashWindow(node, _micros(float(start)),
                                       _micros(float(end))))
    script = []
    if ini.has_section("script"):
        for _, value in ini.items("script"):
            tokens = value.split()
            if len(tokens) < 2:
                raise ValueError(f"malformed script line {value!r}")
            script.append(Action(_micros(float(tokens[0])), tokens[1],
                                 _parse_action_args(tokens[2:])))
    script.sort(key=lambda a: a.at)
    checks = dict(ini.items("checks")) if ini.has_section("checks") else {}
    for key in checks:
        if key.split(".")[0] not in _CHECKS:
            raise ValueError(f"unknown check {key!r}")
    cfg = SimConfig(unstable=tuple(windows), crashes=tuple(crashes),
                    script=tuple(script), **kwargs)
    return cfg, checks


def _split_spec(value: str) -> tuple[str, str]:
    head, sep, tail = value.partition(":")
    if not sep:
        raise ValueError(f"expected SUBJECT:ARG, got {value!r}")
    return head.strip(), tail.strip()


def _check_convergence(sim: Simulation, report, _arg: str) -> tuple[bool, str]:
    states = {}
    for node, epoch, mode, cur, nxt in report.pm_state:
        if node in sim.correct_pms():
            states[node] = (epoch, mode, cur, nxt)
    distinct = set(states.values())
    if len(distinct) == 1 and next(iter(distinct))[1] == "serving":
        epoch, _, cur, _ = next(iter(distinct))
        return True, f"{len(states)} managers agree at epoch {epoch} ({cur})"
    return False, f"divergent manager states: {sorted(states.items())}"


def _check_denied_after(sim: Simulation, report, arg: str) -> tuple[bool, str]:
    client, at = _split_spec(arg)
    client, at = int(client), _micros(float(at))
    hits = [a for a in report.auths if a.client == client and a.at >= at]
    if not hits:
        return False, f"client{client} never authenticated after t={at}"
    bad = [a for a in hits if a.decision == "granted"]
    if bad:
        return False, f"client{client} granted at t={bad[0].at}"
    return True, f"all {len(hits)} attempts denied"


def _check_no_grant_after(sim: Simulation, report, arg: str) -> tuple[bool, str]:
    client, at = _split_spec(arg)
    client, at = int(client), _micros(float(at))
    bad = [r for r in report.issuance
           if r.client == client and r.at >= at and r.granted]
    if bad:
        return False, f"client{client} issued {bad[0].count} at t={bad[0].at}"
    n = sum(1 for r in report.issuance if r.client == client and r.at >= at)
    return True, f"{n} requests, none granted"


def _check_safemode(sim: Simulation, report, arg: str) -> tuple[bool, str]:
    vid, span = _split_spec(arg)
    start, _, end = span.partition("..")
    start, end = _micros(float(start)), _micros(float(end))
    hits = [a for a in report.auths
            if a.verifier == vid and start <= a.at < end]
    if not hits:
        return False, f"no attempts at {vid} in [{start}, {end})"
    bad = [a for a in hits if a.decision != "stale-state"]
    if bad:
        return False, f"{vid} answered {bad[0].decision} at t={bad[0].at}"
    return True, f"all {len(hits)} attempts refused as stale"


def _check_recovers(sim: Simulation, report, arg: str) -> tuple[bool, str]:
    vid, at = _split_spec(arg)
    at = _micros(float(at))
    hits = [a for a in report.auths
            if a.verifier == vid and a.at >= at and a.decision == "granted"]
    if hits:
        return True, f"{vid} granting again at t={hits[0].at}"
    return False, f"{vid} never granted after t={at}"


def _check_no_cross_links(sim: Simulation, report, _arg: str) -> tuple[bool, str]:
    stats = linkage_adversary(sim)
    cross = stats.linked_pairs - stats.linked_and_same_client
    if cross:
        return False, f"{cross} cross-client transcript links"
    return True, (f"{stats.presented} capabilities, "
                  f"{stats.linked_pairs} links, all same-client")


def _check_linkage(sim: Simulation, report, arg: str) -> tuple[bool, str]:
    client, rts = _split_spec(arg)
    stats = linkage_adversary(sim, int(client), int(rts))
    if stats.revoked_prerts_probes == 0:
        return False, "no pre-revocation latchkeys to probe"
    p1 = stats.revoked_prerts_hits / stats.revoked_prerts_probes
    p2 = stats.random_hits / stats.random_probes
    pooled = ((stats.revoked_prerts_hits + stats.random_hits)
              / (stats.revoked_prerts_probes + stats.random_probes))
    se = math.sqrt(max(pooled * (1 - pooled), 1e-12)
                   * (1 / stats.revoked_prerts_probes + 1 / stats.random_probes))
    z = (p1 - p2) / se
    detail = (f"pre-revocation hit rate {p1:.4f} vs random {p2:.4f} "
              f"(z={z:.2f}, {stats.revoked_prerts_probes} probes)")
    return z <= 3.0, detail


_CHECKS = {
    "convergence": _check_convergence,
    "denied_after": _check_denied_after,
    "no_grant_after": _check_no_grant_after,
    "safemode": _check_safemode,
    "recovers": _check_recovers,
    "no_cross_links": _check_no_cross_links,
    "linkage": _check_linkage,
}


def run_checks(sim: Simulation, report,
               checks: dict[str, str]) -> list[tuple[str, bool, str]]:
    results = []
    for key, value in checks.items():
        name = key.split(".")[0]
        fn = _CHECKS.get(name)
        if fn is None:
            raise ValueError(f"unknown check {name!r}")
        ok, detail = fn(sim, report, value)
        results.append((key, ok, detail))
    return results


def resolve_scenario(name: str) -> Path:
    path = Path(name)
    if path.is_file():
        return path
    bundled = SCENARIO_DIR / f"{name}.scn"
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(f"no scenario file or bundled scenario {name!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        path = resolve_scenario(args.scenario)
        cfg, checks = parse_scenario(path)
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    sim = Simulation(cfg)
    report = sim.run()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.as_text(), encoding="utf-8")
        (out / "auths.csv").write_text(report.auth_csv(), encoding="utf-8")
    else:
        print(report.as_text(), end="")
    failed = 0
    try:
        results = run_checks(sim, report, checks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, ok, detail in results:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        failed += not ok
    return 1 if failed else 0


# -- bench ------------------------------------------------------------------

def _bench_geometry(height: int) -> EpochConfig:
    return EpochConfig(0, 2**height, 1, 2)


def _bench_capability(height: int, seed: int) -> tuple[bytes, bytes]:
    """Returns (encoded capability for slot 0, manager public key)."""
    pm_key = det_keygen(seed_from_parts(b"bench-pm", seed))
    cid = digest(seed_from_parts(b"bench-client", seed))
    rrp = create_rrp(cid, 0, 1, pm_key, 8)
    cap = get_capability(rrp, 0, _bench_geometry(height))
    return codec.encode_capability(cap), pm_key.public


def _verify_blob_batch(batch: tuple[bytes, ...], pm_pub: bytes,
                       height: int) -> int:
    """Worker: decode and fully verify each capability; returns ok count."""
    cfg = _bench_geometry(height)
    ok = 0
    for blob in batch:
        cap = codec.decode_capability(blob)
        ok += verify_capability(cap, pm_pub, 0, cfg)
    return ok


def _bench_latency(heights, reps: int) -> list[tuple[int, float]]:
    rows = []
    for h in heights:
        blob, pm_pub = _bench_capability(h, seed=1)
        cfg = _bench_geometry(h)
        cap = codec.decode_capability(blob)
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            assert verify_capability(cap, pm_pub, 0, cfg)
            samples.append(time.perf_counter() - t0)
        # median: robust against scheduler hiccups on shared machines
        rows.append((h, statistics.median(samples) * 1e6))
    return rows


def _bench_workers(height: int, workers: int, batch: int = 48,
                   ) -> list[tuple[int, float]]:
    """Wall time to verify a fixed batch with 1 vs N worker processes."""
    blob, pm_pub = _bench_capability(height, seed=2)
    blobs = tuple([blob] * batch)
    rows = []
    for n in sorted({1, workers}):
        chunks = [blobs[i::n] for i in range(n)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            # warm up the pool so fork/import cost stays out of the timing
            list(pool.map(_verify_blob_batch, [blobs[:1]] * n,
                          [pm_pub] * n, [height] * n))
            t0 = time.perf_counter()
            done = sum(pool.map(_verify_blob_batch, chunks,
                                [pm_pub] * n, [height] * n))
            elapsed = time.perf_counter() - t0
        assert done == batch
        rows.append((n, elapsed))
    return rows


def _bench_throughput(batches, requests: int = 25) -> list[tuple[int, float]]:
    """Issued pseudonyms/s vs batch size; every request after the first
    carries a capability proof, so bigger batches amortize its check.
    Rates come from the fastest request cycle, the usual noise-floor
    estimator for short benchmarks."""
    rows = []
    for batch in batches:
        geometry = EpochConfig(0, 86_400, 600, 2)
        pm_key = det_keygen(seed_from_parts(b"bench-pm", 3))
        admin = det_keygen(seed_from_parts(b"bench-admin", 3))
        core = TrustedCore(pm_key, admin.public, geometry,
                           FilterParams(8192, 4),
                           max_instances=requests * batch + 1)
        cid = digest(b"bench-client")
        core.register(cid)
        first = core.issue(RequestRrp(cid, 0, 1))
        proof = get_capability(first[0], 0, geometry)
        best = float("inf")
        for _ in range(requests):
            t0 = time.perf_counter()
            core.issue(RequestRrp(cid, 0, batch, proof, 0))
            best = min(best, time.perf_counter() - t0)
        rows.append((batch, batch / best))
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    latency = _bench_latency(BENCH_HEIGHTS, args.reps)
    print("verification latency vs tree height")
    for h, mean_us in latency:
        print(f"  h={h:<3d} {mean_us:9.1f} us")
    worker_rows = _bench_workers(16, args.threads)
    base = worker_rows[0][1]
    print("verification wall time vs workers (h=16, fixed batch)")
    for n, elapsed in worker_rows:
        print(f"  workers={n:<2d} {elapsed * 1e3:9.1f} ms  "
              f"speedup={base / elapsed:.2f}x")
    throughput = _bench_throughput(BENCH_BATCHES)
    print("issuance throughput vs batch size")
    for batch, rate in throughput:
        print(f"  batch={batch:<3d} {rate:9.0f} pseudonyms/s")
    _write_csv(args.out, "bench_latency.csv",
               [["height", "mean_us"]] + [[h, f"{v:.3f}"] for h, v in latency])
    _write_csv(args.out, "bench_workers.csv",
               [["workers", "wall_s", "speedup"]]
               + [[n, f"{e:.6f}", f"{base / e:.3f}"] for n, e in worker_rows])
    _write_csv(args.out, "bench_throughput.csv",
               [["batch", "pseudonyms_per_s"]]
               + [[b, f"{r:.1f}"] for b, r in throughput])
    return 0


# -- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangerevoke",
        description="Range-revocable pseudonym tooling and simulator.")
    parser.add_argument("--out", metavar="DIR", help="write CSV artifacts here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("size", help="closed-form filter sizing")
    p.add_argument("--clients", type=float, default=250_000_000)
    p.add_argument("--pseudos", type=int, default=10)
    p.add_argument("--revoked-frac", type=float, default=1e-4 / 365)
    p.add_argument("--slots", type=int, default=144)
    p.add_argument("--delta", default="600", help="slot length (e.g. 600, 10m)")
    p.add_argument("--fanout", type=int, default=2)
    p.add_argument("--fp", type=float, default=0.001, help="target FP rate")
    p.add_argument("--needed", type=int, default=10, help="accesses per client")
    p.add_argument("--extra", type=int, default=0, help="spare pseudonyms M")
    p.set_defaults(fn=cmd_size)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario", help="path or bundled name "
                                    "(quarantine, linkage, safemode)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bench", help="latency/throughput micro-benchmarks")
    p.add_argument("--threads", type=int, default=4,
                   help="verification worker processes")
    p.add_argument("--reps", type=int, default=30)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("storage-compare",
                       help="revocation storage vs slot-locked scheme")
    p.add_argument("--delta", default="1s,1m,15m,6h,1d",
                   help="comma-separated slot lengths")
    p.add_argument("--epoch", default="1d,1y",
                   help="comma-separated epoch lengths")
    p.add_argument("--fanout", type=int, default=2)
    p.add_argument("--daily-demand", type=int, default=692)
    p.set_defaults(fn=cmd_storage_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RRP_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
