"""Operator command line: sizing calculator, scenario runner, storage
comparison.

Subcommands::

    rangerevoke size             closed-form filter sizing table
    rangerevoke simulate FILE    run a scenario file, evaluate its checks
    rangerevoke storage-compare  revocation storage vs a slot-locked scheme

Every subcommand is deterministic given its flags and seed.  Exit codes:
0 success, 1 a scenario/acceptance check failed, 2 usage or config error.
A bad number flag is refused by its argparse ``type``, so the error names
the flag.  ``--out DIR`` writes CSV artifacts; tables always go to stdout.
The env var ``RRP_LOG`` sets the logging level: debug, info, warning,
error or critical, in any case; anything else reads as error.

Scenario files are described in ``rangerevoke.scenario``; performance is
measured by ``perfbench/``.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from . import sizing
# SCENARIO_DIR and verify_capability are imported for perfbench/, which
# reads the one and has its tracer patch the other in this module
from .pseudonym import verify_capability
from .scenario import SCENARIO_DIR, parse_scenario, resolve_scenario, run_checks, u64
from .simnet import Simulation


# -- helpers ----------------------------------------------------------------

_UNIT_SECONDS = {"s": 1, "m": 60, "h": 3600, "d": 86_400, "y": 31_536_000}


def parse_duration(text: str) -> float:
    """'90', '1.5h', '1d', '1y' -> seconds, reading the whole text as a number
    first (so 'nan' has no unit 'n'); a non-finite result is refused."""
    text = text.strip()
    try:
        seconds = float(text)
    except ValueError:
        try:
            seconds = float(text[:-1]) * _UNIT_SECONDS[text[-1:]]
        except (ValueError, KeyError):
            raise ValueError(f"duration {text!r} is not a number with an optional "
                             "unit s, m, h, d or y") from None
    if not math.isfinite(seconds):
        raise ValueError(f"duration {text!r} is not a finite number of seconds")
    return seconds


def _write_csv(out_dir: str | None, name: str, rows: list[list]) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    text = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
    (path / name).write_text(text, encoding="utf-8")


def _checked(kind, ok, rule: str, many: bool = False):
    """An argparse ``type``: ``kind`` of the flag's text (a list, one per
    comma-separated item, if ``many``), refused with the item as written if
    ``kind`` cannot read it, or with ``rule`` if ``ok`` fails it; argparse names the flag."""
    def one(item: str):
        try:
            value = kind(item) if item.strip() else math.nan   # fails every rule
        except ValueError as exc:           # parse_duration words its own refusal
            unread = {int: "must be a whole number", float: "must be a number"}.get(kind)
            raise argparse.ArgumentTypeError(
                f"{unread}, got {item.strip()}" if unread else str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {item.strip() or 'an empty item'}")
        return value
    return (lambda text: [one(item) for item in text.split(",")]) if many else one


_POSITIVE_INT = _checked(int, lambda v: v > 0, "must be positive")
_FANOUT = _checked(int, lambda v: v >= 2, "must be at least 2")
_DURATIONS = _checked(parse_duration, lambda v: v > 0, "must be positive", many=True)


# -- size -------------------------------------------------------------------

def cmd_size(args: argparse.Namespace) -> int:
    params = sizing.DeploymentParams(
        clients=args.clients, pseudonyms=args.pseudos,
        revoked_fraction=args.revoked_frac, fanout=args.fanout,
        epoch_len=args.slots * int(args.delta), delta=int(args.delta),
        needed=args.needed, extra=args.extra)
    result = sizing.plan_filter(params, args.fp)
    row = sizing.storage_row(params.delta, params.epoch_len, params.fanout,
                             params.needed, params.needed)
    print(f"slots T              {row.slots}")
    print(f"tree height h        {max(1, params.tree_height)}")
    print(f"expected inserts n   {result.n:.1f}")
    print(f"filter size m        {result.m} bits = {result.m_bytes} bytes "
          f"(~{result.m_kb} KB)")
    print(f"index functions k    {result.k}")
    print(f"per-probe FP x       {result.fp_rate:.3e}")
    print(f"per-capability FP    {result.fp_capability:.3e}")
    print(f"P(full access)       {result.full_access:.12f}  "
          f"(p={params.needed}, M={params.extra})")
    print(f"revocation entries   tree {row.tree_entries}  "
          f"slot-locked {row.flat_entries}")
    print(f"client pseudonyms    tree {row.demand}  "
          f"slot-locked {row.flat_entries}")
    _write_csv(args.out, "size.csv", [
        ["slots", "n", "m_bits", "m_kb", "k", "fp_probe", "fp_capability",
         "full_access"],
        [row.slots, f"{result.n:.3f}", result.m, result.m_kb, result.k,
         f"{result.fp_rate:.6e}", f"{result.fp_capability:.6e}",
         f"{result.full_access:.12e}"],
    ])
    return 0


# -- storage-compare --------------------------------------------------------

def cmd_storage_compare(args: argparse.Namespace) -> int:
    pairs = [(delta, epoch) for epoch in args.epoch for delta in args.delta if delta <= epoch]
    if not pairs:
        raise ValueError("no slot length fits in an epoch: every --delta "
                         "exceeds every --epoch")
    for delta, epoch in pairs:
        if epoch / delta > 2**64:
            raise ValueError(f"--epoch {epoch:g} over --delta {delta:g} is over 2**64 slots")
    rows = [["delta_s", "epoch_s", "slots", "demand", "per_slot",
             "tree_entries", "flat_entries", "tree_kb", "flat_kb", "ratio"]]
    print(f"{'delta':>10} {'epoch':>10} {'slots':>9} {'tree KB':>12} "
          f"{'slot-locked KB':>14} {'ratio':>7}")
    for delta, epoch in pairs:
        row = sizing.storage_comparison(delta, epoch, args.fanout, args.daily_demand)
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


# -- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangerevoke",
        description="Range-revocable pseudonym tooling and simulator.")
    parser.add_argument("--out", metavar="DIR", help="write CSV artifacts here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("size", help="closed-form filter sizing")
    p.add_argument("--clients", type=_checked(float, lambda v: 0 < v < math.inf,
                                              "must be positive and finite"), default=250_000_000)
    p.add_argument("--pseudos", type=_POSITIVE_INT, default=10)
    p.add_argument("--revoked-frac", type=_checked(float, lambda v: 0 <= v <= 1,
                                                   "must lie in [0, 1]"), default=1e-4 / 365)
    p.add_argument("--slots", type=_POSITIVE_INT, default=144)
    p.add_argument("--delta", type=_checked(parse_duration, lambda v: v > 0 and v.is_integer(),
                                            "must be a positive whole number of seconds"),
                   default="600", help="slot length (e.g. 600, 10m)")
    p.add_argument("--fanout", type=_FANOUT, default=2)
    p.add_argument("--fp", type=_checked(float, lambda v: 0 < v < 1, "must lie strictly "
                                         "between 0 and 1"), default=0.001, help="target FP rate")
    p.add_argument("--needed", type=_POSITIVE_INT, default=10, help="accesses per client")
    p.add_argument("--extra", type=_checked(int, lambda v: v >= 0, "must not be negative"),
                   default=0, help="spare pseudonyms M")
    p.set_defaults(fn=cmd_size)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario", help="path or bundled name "
                                    "(quarantine, linkage, safemode)")
    p.add_argument("--seed", type=u64, help="override the scenario seed, 0..2**64-1")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("storage-compare",
                       help="revocation storage vs slot-locked scheme")
    p.add_argument("--delta", type=_DURATIONS, default="1s,1m,15m,6h,1d",
                   help="comma-separated slot lengths")
    p.add_argument("--epoch", type=_DURATIONS, default="1d,1y",
                   help="comma-separated epoch lengths")
    p.add_argument("--fanout", type=_FANOUT, default=2)
    p.add_argument("--daily-demand", type=_checked(int, lambda v: v >= 1, "must be at least 1"),
                   default=692)
    p.set_defaults(fn=cmd_storage_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RRP_LOG", "error").upper()
    logging.basicConfig(level=level if level in ("DEBUG", "INFO", "WARNING", "ERROR",
                                                 "CRITICAL") else "ERROR")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
