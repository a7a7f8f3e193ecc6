"""Spans around the public functions of each rangerevoke layer.

The tracer wraps functions from outside the program.  ``from .crypto
import det_sign`` copies the function into ``pseudonym``, ``manager`` and
``simnet``, so a function is replaced in every module that holds it, and
methods are replaced on their classes.  ``uninstall`` puts every original
back.

A span is (name, start_ns, end_ns, parent span, op id, self_ns, value).
Self time is the span's duration minus the time its direct children
cover.  ``value`` is one small number or string taken from the call
(bytes encoded, a decision, whether an issuance was granted), so ratios
are measured where the work happens.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import gzip
import logging
import sys
import time
from pathlib import Path

from rangerevoke import codec, crypto, pseudonym, slot_tree
from rangerevoke.ercset import BloomFilter
from rangerevoke.manager import TrustedCore
from rangerevoke.simnet import Simulation
from rangerevoke.verifier import Decision, VerifierNode

BENCH_DIR = Path(__file__).resolve().parent
DECISIONS = tuple(d.value for d in Decision)


def _granted(args, result, exc):
    return int(exc is None)


def _result_len(args, result, exc):
    return len(result)


def _self_bytes(args, result, exc):
    return len(args[0].bits)


def _truth(args, result, exc):
    return int(bool(result))


def _decision(args, result, exc):
    return result.value


# (span name, owner, attribute, value taken from the call)
TARGETS = [
    ("crypto.det_keygen", crypto, "det_keygen", None),
    ("crypto.det_sign", crypto, "det_sign", None),
    ("crypto.ver_sign", crypto, "ver_sign", None),
    ("crypto.digest", crypto, "digest", None),
    ("slot_tree.path_to_root", slot_tree, "path_to_root", None),
    ("slot_tree.safe_cover", slot_tree, "safe_cover", _result_len),
    ("pseudonym.create_rrp", pseudonym, "create_rrp", None),
    ("pseudonym.get_capability", pseudonym, "get_capability", None),
    ("pseudonym.verify_capability", pseudonym, "verify_capability", None),
    ("pseudonym.pseudonym_public_keys_of", pseudonym, "pseudonym_public_keys_of", None),
    ("ercset.add", BloomFilter, "add", None),
    ("ercset.query", BloomFilter, "query", None),
    ("ercset.merged", BloomFilter, "merged", _self_bytes),
    ("manager.issue", TrustedCore, "issue", _granted),
    ("manager.revoke", TrustedCore, "revoke", None),
    ("manager.merge_filters", TrustedCore, "merge_filters", _truth),
    ("verifier.authenticate", VerifierNode, "authenticate", _decision),
    ("verifier.handle_pull_response", VerifierNode, "handle_pull_response", _truth),
    ("codec.decode_capability", codec, "decode_capability", None),
    ("codec.encode_message", codec, "encode_message", _result_len),
    ("codec.decode_message", codec, "decode_message", None),
    ("simnet.run", Simulation, "run", None),
]


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: dict[str, int] = {}

    def emit(self, record: logging.LogRecord) -> None:
        layer = record.name.rsplit(".", 1)[-1]
        self.counts[layer] = self.counts.get(layer, 0) + 1


def _in_bench(module) -> bool:
    path = getattr(module, "__file__", None)
    return bool(path) and Path(path).resolve().parent == BENCH_DIR


class Tracer:
    """Install with ``install()``, set ``op`` per timed operation, and
    ``uninstall()`` when done.  ``paused`` lets the oracle call the
    program without being counted."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.op = -1
        self.paused = False
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.warnings = _WarningCounter()

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [index, 0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                value = note(args, result, exc) if note else None
                spans[index] = (name, start, end, parent[0] if parent else -1,
                                self.op, duration - frame[1], value)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key.split(".")[0] == "rangerevoke" or _in_bench(m)]
        for name, owner, attr, note in self.targets:
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original, note)
            holders = [owner] if isinstance(owner, type) else []
            holders += [m for m in modules
                        if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)
        log = logging.getLogger("rangerevoke")
        self._log_state = (log.level, log.propagate)
        log.setLevel(logging.WARNING)
        log.propagate = False
        log.addHandler(self.warnings)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()
        log = logging.getLogger("rangerevoke")
        log.removeHandler(self.warnings)
        log.setLevel(self._log_state[0])
        log.propagate = self._log_state[1]

    def write(self, path) -> None:
        """Spans as gzip CSV: name,start_ns,end_ns,parent,op,self_ns,value."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("name,start_ns,end_ns,parent,op,self_ns,value\n")
            for span in self.spans:
                out.write(",".join("" if v is None else str(v) for v in span) + "\n")

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name calls and self time, plus the ratios the README lists."""
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        values: dict[str, list] = {}
        # nearest enclosing issue / authenticate / revoke span of every span
        under: list[str | None] = []
        for name, _, _, parent, _, own, value in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            if value is not None:
                values.setdefault(name, []).append(value)
            if name in ("manager.issue", "verifier.authenticate", "manager.revoke"):
                under.append(name)
            else:
                under.append(under[parent] if parent >= 0 else None)

        def within(child: str, outer: str) -> int:
            return sum(1 for s, u in zip(self.spans, under) if s[0] == child and u == outer)

        def per(count: float, name: str) -> float:
            return count / calls[name] if calls.get(name) else 0.0

        out: dict[str, float] = {}
        for name, _, _, _ in self.targets:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
        out["slot_tree.cover_labels_per_revoke"] = per(
            sum(values.get("slot_tree.safe_cover", [])), "manager.revoke")
        out["pseudonym.keys_derived_per_issue"] = per(
            within("crypto.det_keygen", "manager.issue"), "manager.issue")
        out["ercset.queries_per_auth"] = per(
            within("ercset.query", "verifier.authenticate"), "verifier.authenticate")
        out["ercset.merged.bytes"] = sum(values.get("ercset.merged", []))
        out["codec.encode_message.bytes"] = sum(values.get("codec.encode_message", []))
        out["manager.issue.granted_ratio"] = per(
            sum(values.get("manager.issue", [])), "manager.issue")
        out["manager.merge_filters.changed_ratio"] = per(
            sum(values.get("manager.merge_filters", [])), "manager.merge_filters")
        out["verifier.handle_pull_response.counted_ratio"] = per(
            sum(values.get("verifier.handle_pull_response", [])),
            "verifier.handle_pull_response")
        decisions = values.get("verifier.authenticate", [])
        for decision in DECISIONS:
            out[f"verifier.decisions.{decision}"] = decisions.count(decision)
        for layer in ("manager", "verifier"):
            out[f"{layer}.warnings"] = self.warnings.counts.get(layer, 0)
        out["trace.spans"] = len(self.spans)
        return out

