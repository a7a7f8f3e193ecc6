#!/usr/bin/env python3
"""Compare two revisions on the benchmark: alternating pairs, one file.

    python3 tools/compare.py --base REV [--change REV] --workload gossip \\
        --pairs 10 --seconds 20 --seed 101 102 --label NAME

Run from anywhere inside the checkout.  Each revision is exported with
``git archive`` into a temporary directory; without ``--change`` the
change side is the working tree as it is.  Each tree runs its own
``perfbench/run.py``, so each side is measured by its own program under
its own harness, and the two harnesses must be the same: the tool refuses
to run when the trees' ``perfbench/`` differ.  Runs go one at a time.
Pair i runs seed ``seeds[i % len(seeds)]`` on both sides, base first on
even pairs and change first on odd ones, for each workload in turn.

The result goes to ``BENCH_<label>.json`` (in ``--out-dir``, the
checkout's root by default).  Per workload and end-to-end metric it holds
each side's runs, median and quartiles, the ratio change / base of the
medians, the pairs the change won and lost (ties count for neither) and a
two-sided sign-test p over the pairs that were not ties.  It also records
the host (``nproc``, Python, libsodium) and both revisions.  The file
records results and gates nothing: ``BENCHMARK.json`` keeps the bounds.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HARNESS = "perfbench"
SODIUM_NAMES = ("libsodium.so.23", "libsodium.so.26", "libsodium.so", "libsodium.dylib")


# -- aggregation (pure) -------------------------------------------------------

def parse_result(stdout: str) -> dict:
    """The result object that ``perfbench/run.py`` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise ValueError(f"not a run.py result: {lines[-1][:80]!r}")
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles, interpolated between ranks (numpy's default)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign test: the chance, with no difference between the
    sides, of a split at least as uneven as ``wins`` to ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def aggregate(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric, the summary of alternating pairs.

    Each pair is ``{"workload", "seed", "first", "base", "change"}``, where
    ``first`` names the side that ran first and ``base`` and ``change``
    are ``parse_result`` objects.  ``better`` maps each end-to-end metric
    to "lower" or "higher"."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry = {
            "pairs": len(runs),
            "seeds": [p["seed"] for p in runs],
            "first": [p["first"] for p in runs],
            "all_correct": all(p[side]["correct"] for p in runs for side in ("base", "change")),
            "failed": {side: sum(p[side]["failed"] for p in runs) for side in ("base", "change")},
            "attempted": {side: sum(p[side]["attempted"] for p in runs)
                          for side in ("base", "change")},
            "metrics": {},
        }
        for metric, direction in better.items():
            values = {side: [p[side]["metrics"][metric]["value"] for p in runs]
                      for side in ("base", "change")}
            sign = 1 if direction == "higher" else -1
            diffs = [sign * (c - b) for b, c in zip(values["base"], values["change"])]
            wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
            base, change = quartiles(values["base"]), quartiles(values["change"])
            entry["metrics"][metric] = {
                "unit": runs[0]["base"]["metrics"][metric]["unit"],
                "better": direction,
                "base": {**base, "runs": values["base"]},
                "change": {**change, "runs": values["change"]},
                "ratio": change["median"] / base["median"] if base["median"] else None,
                "base_iqr": base["q3"] - base["q1"],
                "wins": wins,
                "losses": losses,
                "ties": len(runs) - wins - losses,
                "sign_test_p": sign_test_p(wins, losses),
            }
        out[workload] = entry
    return out


# -- trees and runs -------------------------------------------------------------

def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> str:
    """Extract ``rev`` into ``into`` and return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                          check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    return commit


def harness_digest(tree: Path) -> dict[str, str]:
    """SHA-256 of every harness file, leaving out what runs write."""
    return {str(path.relative_to(tree)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tree / HARNESS).rglob("*"))
            if path.is_file() and not {"out", "__pycache__"} & set(path.relative_to(tree).parts)}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, f"{HARNESS}/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_result(proc.stdout)


def sodium_version() -> str | None:
    for name in filter(None, (*SODIUM_NAMES, ctypes.util.find_library("sodium"))):
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        lib.sodium_version_string.argtypes, lib.sodium_version_string.restype = [], ctypes.c_char_p
        return lib.sodium_version_string().decode()
    return None


def end_to_end_directions() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--change", help="change revision (default: the working tree)")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        trees = {"base": Path(tmp) / "base"}
        revs = {"base": export(args.base, trees["base"])}
        if args.change is None:
            trees["change"] = ROOT
            dirty = git("status", "--porcelain")
            revs["change"] = git("rev-parse", "HEAD") + ("+working-tree" if dirty else "")
        else:
            trees["change"] = Path(tmp) / "change"
            revs["change"] = export(args.change, trees["change"])
        if harness_digest(trees["base"]) != harness_digest(trees["change"]):
            print(f"refused: {HARNESS}/ differs between the two trees", file=sys.stderr)
            return 2

        pairs = []
        for workload in args.workload:
            for i in range(args.pairs):
                seed = args.seed[i % len(args.seed)]
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{m} {pair['base']['metrics'][m]['value']:.6g} -> "
                    f"{pair['change']['metrics'][m]['value']:.6g}"
                    for m in end_to_end_directions()), file=sys.stderr, flush=True)

    record = {
        "label": args.label,
        "base": {"ref": args.base, "commit": revs["base"]},
        "change": {"ref": args.change or "working tree", "commit": revs["change"]},
        "seconds": args.seconds,
        "seeds": args.seed,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "libsodium": sodium_version()},
        "workloads": aggregate(pairs, end_to_end_directions()),
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
