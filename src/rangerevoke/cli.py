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

Scenario files are described in ``rangerevoke.scenario``.
"""

from __future__ import annotations

import argparse
import logging
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
from .scenario import SCENARIO_DIR, parse_scenario, resolve_scenario, run_checks
from .simnet import Simulation
from .slot_tree import EpochConfig

log = logging.getLogger(__name__)

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

def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg, checks = parse_scenario(resolve_scenario(args.scenario))
    except (OSError, ValueError) as exc:
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
    results = run_checks(sim, report, checks)
    for name, ok, detail in results:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


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
