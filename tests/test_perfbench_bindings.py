"""Fast guard for the benchmark under ``perfbench/``.

The benchmark imports names from the program, calls it with fixed
signatures, and its tracer wraps a list of program functions in every
module that holds them.  A change that deletes or renames one of those
names breaks the benchmark; these tests catch that in about a second
instead of in the benchmark's own two-minute self-tests.  They only read
``perfbench/``.
"""

import ast
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
    """Every operation of one seed-1 pass passes its oracle (gossip: each
    run up to its first grid run), and the per-layer metrics read from the
    program's state after them (gossip: the grid run's revocation reach)."""
    workload = _import_bench("workloads").WORKLOADS[name](1)
    assert workload.n_ops > 0
    workload.start_pass()
    failed = []
    for i in range(workload.n_ops):
        if workload.check(i, workload.op(i)):         # True means a failed operation
            failed.append(i)
        if name == "gossip" and workload.runs[i][0].startswith("grid/"):
            break
    assert not failed, f"{len(failed)} of {workload.n_ops} operations broke the oracle"
    metrics = workload.layer_metrics()
    assert metrics and all(isinstance(v, int | float) and v >= 0 for v in metrics.values())


def _tracer_test_bindings() -> list[tuple[str, object, str]]:
    """The (owner, "attr") pairs that the benchmark's tracer self-test names,
    read from its source with each owner resolved through that file's
    imports."""
    tree = ast.parse((BENCH_DIR / "test_perfbench.py").read_text(encoding="utf-8"))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update({a.asname or a.name: _import_bench(a.name) for a in node.names
                          if (BENCH_DIR / f"{a.name}.py").exists()})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rangerevoke"):
            module = importlib.import_module(node.module)
            names.update({a.asname or a.name: getattr(module, a.name, None) or
                          importlib.import_module(f"{node.module}.{a.name}")
                          for a in node.names})
    test = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "test_tracer_patches_every_binding_and_restores_it")
    pairs = []
    for node in ast.walk(test):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, str)):
            owner = ast.unparse(node.elts[0])
            value = names[owner.split(".")[0]]
            for part in owner.split(".")[1:]:
                value = getattr(value, part)
            pairs.append((owner, value, node.elts[1].value))
    return pairs


def test_every_binding_the_tracer_test_names_exists():
    pairs = _tracer_test_bindings()
    assert len(pairs) >= 10
    missing = [f"{owner}.{attr}" for owner, value, attr in pairs if attr not in vars(value)]
    assert not missing
