"""Static checks over the program's own source."""

import ast
import configparser
import re
from dataclasses import fields
from pathlib import Path

import pytest

from rangerevoke.scenario import SCENARIO_DIR, _sim_entry
from rangerevoke.simnet import SimConfig, Simulation

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rangerevoke"
BENCH = ROOT / "perfbench"

# names a module imports only so that callers can import them from it:
# perfbench/workloads.py imports SCENARIO_DIR from rangerevoke.cli, and
# perfbench/test_perfbench.py checks that its tracer patches
# rangerevoke.cli.verify_capability and rangerevoke.manager.verify_capability
# (neither module calls it: the manager checks a proof by rebuilding it)
REEXPORTS = {("cli", "SCENARIO_DIR"), ("cli", "verify_capability"),
             ("manager", "verify_capability")}


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = _imported_names(tree) - _used_names(tree)
    unused -= {name for module, name in REEXPORTS if module == path.stem}
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def _referenced(tree: ast.AST) -> set[str]:
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_definition_is_reached_by_the_program():
    """Each top-level def or class in src/ must be reached from program code
    (module-level statements outside __init__.py, then transitively through
    the definitions they reference) or be named by the benchmark; code that
    only tests reach belongs under tests/."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in SRC.glob("*.py") if path.name != "__init__.py"}
    defs = {id(node): f"{stem}.{node.name}" for stem, tree in modules.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)}
    nodes = {id(node): node for tree in modules.values() for node in tree.body}
    reached = {word for path in BENCH.glob("*.py")
               for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    live = set()
    pending = [node for key, node in nodes.items() if key not in defs]
    while pending:
        for node in pending:
            reached |= _referenced(node)
        pending = [nodes[key] for key in defs
                   if key not in live and nodes[key].name in reached]
        live |= {id(node) for node in pending}
    unused = sorted(name for key, name in defs.items() if key not in live)
    assert not unused, f"reached only from tests: {unused}"


def _absolute_imports():
    """(module file name, imported top-level package) for every absolute
    import in src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((path.name, name.split(".")[0]) for name in names)


def test_program_does_not_import_tests():
    test_modules = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    offenders = [f"{module}: {name}" for module, name in _absolute_imports()
                 if name in test_modules]
    assert not offenders, f"program modules import test code: {offenders}"


def test_program_does_not_import_cryptography():
    # Ed25519 runs in libsodium only; ``cryptography`` is the tests'
    # reference implementation, and two backends would disagree on
    # hostile signatures
    offenders = [module for module, name in _absolute_imports() if name == "cryptography"]
    assert not offenders, f"program modules import cryptography: {offenders}"


def test_program_has_no_assert():
    # ``python -O`` strips assert statements, so a check the program relies
    # on must raise instead
    offenders = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
    assert not offenders, f"assert statements in src/: {offenders}"


# the one function outside crypto.py that may call hashlib in each module
# that does: default_salt's cache outlives any one run, so it skips
# ``digest`` to keep call counts per run (its docstring), and a report's
# filter digest names a filter for a reader, it protects nothing
HASHLIB_OUTSIDE_CRYPTO = {"ercset": "default_salt", "simnet": "_filter_digest"}


def test_only_crypto_uses_hashlib():
    """The crypto module's docstring says the algorithms are chosen there
    and nowhere else: no other module hashes, except as listed above."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "crypto":
            continue
        allowed = HASHLIB_OUTSIDE_CRYPTO.get(path.stem)
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            inside = isinstance(top, ast.FunctionDef) and top.name == allowed
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    bad = node.module == "hashlib"
                elif isinstance(node, ast.Import):     # plain, where it is called
                    bad = any(a.name == "hashlib" and (a.asname or allowed is None)
                              for a in node.names)
                else:
                    bad = isinstance(node, ast.Name) and node.id == "hashlib" \
                        and not inside
                if bad:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"hashlib used outside crypto.py: {offenders}"


def test_simulator_routes_no_message():
    """Each node routes its own messages through ``deliver``: the simulator
    names no ``handle_*`` method, so it cannot pick a handler by type."""
    tree = ast.parse((SRC / "simnet.py").read_text(encoding="utf-8"))
    offenders = [f"simnet.py:{node.lineno}: {node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr.startswith("handle_")]
    assert not offenders, f"the simulator calls node handlers: {offenders}"


def _keywords_of_sim_config_calls(tree: ast.AST) -> set[str]:
    return {kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SimConfig"
            for kw in node.keywords}


def _bundled_scenarios():
    for path in SCENARIO_DIR.glob("*.scn"):
        ini = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
        ini.read(path, encoding="utf-8")
        yield ini


def test_every_sim_config_field_is_set_by_some_run():
    """A simulator setting that no run changes is a mode kept for tests
    alone: each ``SimConfig`` field must be set by a bundled scenario (a
    ``[sim]`` key, or the section of the same name), by a ``SimConfig(...)``
    keyword under perfbench/, or by an assignment to another object's
    attribute of that name in src/ (``cfg.seed = ...``)."""
    set_by = set()
    for ini in _bundled_scenarios():
        set_by |= {_sim_entry(key, value)[0] for key, value in ini.items("sim")}
        set_by |= set(ini.sections())
    for path in BENCH.glob("*.py"):
        set_by |= _keywords_of_sim_config_calls(ast.parse(path.read_text(encoding="utf-8")))
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = node.targets if isinstance(node, ast.Assign) else []
            set_by |= {t.attr for t in targets if isinstance(t, ast.Attribute)
                       and isinstance(t.value, ast.Name) and t.value.id != "self"}
    unset = sorted(f.name for f in fields(SimConfig) if f.name not in set_by)
    assert not unset, f"SimConfig fields that no run sets: {unset}"


def test_every_action_is_taken_by_some_run():
    """An action kind that no run scripts is a mode kept for tests alone:
    each ``Simulation.ACTION_ARGS`` kind must appear in a bundled
    scenario's ``[script]`` or as the kind of an ``Action(...)`` call
    under perfbench/."""
    taken = set()
    for ini in _bundled_scenarios():
        taken |= {value.split()[1] for _, value in ini.items("script")}
    for path in BENCH.glob("*.py"):
        taken |= {node.args[1].value
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Action"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)}
    untaken = sorted(Simulation.ACTION_ARGS.keys() - taken)
    assert not untaken, f"action kinds that no run takes: {untaken}"


def _used_only_by_the_benchmark(attr: str, owner: str) -> None:
    """No src/ module uses an attribute named ``attr``, and
    perfbench/workloads.py still does."""
    def uses(path: Path) -> list[int]:
        return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Attribute) and node.attr == attr]
    in_src = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line in uses(path)]
    assert not in_src, f"src/ uses an attribute named {attr}: {in_src}"
    assert uses(BENCH / "workloads.py"), \
        f"perfbench/workloads.py no longer uses .{attr}: delete {owner}.{attr}"


def test_filter_alias_serves_only_the_benchmark():
    """``BloomFilter.filter`` returns the filter itself: the program holds
    the filter directly, and only perfbench/workloads.py still reads the
    attribute.  Once it does not, the alias goes."""
    _used_only_by_the_benchmark("filter", "BloomFilter")


def test_local_time_serves_only_the_benchmark():
    """Every node of a run reads one clock, ``Simulation.now``, and
    ``Simulation.local_time`` returns it: only perfbench/workloads.py
    still calls it.  Once it does not, the method goes."""
    _used_only_by_the_benchmark("local_time", "Simulation")
