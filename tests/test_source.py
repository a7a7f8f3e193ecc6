"""Static checks over the program's own source."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rangerevoke"
BENCH = ROOT / "perfbench"

# names a module imports only so that callers can import them from it:
# perfbench/workloads.py imports SCENARIO_DIR from rangerevoke.cli, and
# perfbench/test_perfbench.py checks that its tracer patches
# rangerevoke.cli.verify_capability
REEXPORTS = {("cli", "SCENARIO_DIR"), ("cli", "verify_capability")}


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


def test_program_does_not_import_tests():
    test_modules = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name.split(".")[0] in test_modules]
    assert not offenders, f"program modules import test code: {offenders}"
