"""Fast guard for the benchmark under ``perfbench/``.

The benchmark imports names from the program, calls it with fixed
signatures, and its tracer wraps a list of program functions in every
module that holds them.  A change that deletes or renames one of those
names breaks the benchmark; these tests catch that in about a second
instead of in the benchmark's own two-minute self-tests.  They only read
``perfbench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _import_bench(name: str):
    sys.path.insert(0, str(BENCH_DIR))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH_DIR))


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute of every program or benchmark module and of their
    classes, by identity."""
    holders = [m for key, m in list(sys.modules.items())
               if key.split(".")[0] == "rangerevoke"
               or Path(getattr(m, "__file__", None) or "/").resolve().parent == BENCH_DIR]
    holders += [v for m in list(holders) for v in vars(m).values() if isinstance(v, type)]
    return {(id(h), key): value for h in holders for key, value in vars(h).items()}


def test_tracer_installs_and_restores_every_binding():
    _import_bench("workloads")        # the names the workloads import still exist
    tracer = _import_bench("tracer")
    before = _bindings()
    originals = {name: vars(owner)[attr] for name, owner, attr, _ in tracer.TARGETS}
    t = tracer.Tracer()
    t.install()
    try:
        for name, owner, attr, _ in tracer.TARGETS:
            assert vars(owner)[attr].__wrapped__ is originals[name], name
        patched = {(id(holder), key) for holder, key, _ in t._patches}
        assert len(patched) > len(tracer.TARGETS)    # copies in importing modules too
    finally:
        t.uninstall()
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed


@pytest.mark.parametrize("name", ["verify", "manage", "gossip"])
def test_workload_sets_up_and_passes_its_oracle(name):
    workload = _import_bench("workloads").WORKLOADS[name](1)
    assert workload.n_ops > 0
    assert not workload.check(0, workload.op(0))     # True means a failed operation
