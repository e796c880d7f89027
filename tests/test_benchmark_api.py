"""Every cascadefuse name that the benchmark in perfbench/ uses still exists.

perfbench/ is kept apart from the package, and its own tests are outside the
default test paths, so a name dropped from src/ would otherwise go unnoticed
until the benchmark runs. This reads perfbench/ and changes nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def cascadefuse_names(tree: ast.Module):
    """(module, name) for each `from cascadefuse... import name` and each
    `local.name` where `local` was imported as a cascadefuse module."""
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cascadefuse":
            for alias in node.names:
                found.append((node.module, alias.name))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cascadefuse":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((modules[node.value.id], node.attr))
    return found


def exists(module: str, name: str) -> bool:
    """Whether cascadefuse module `module` has `name`, as an attribute or a submodule."""
    try:
        return (hasattr(importlib.import_module(module), name)
                or importlib.util.find_spec(f"{module}.{name}") is not None)
    except ModuleNotFoundError:
        return False


def test_benchmark_names_resolve():
    files = sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py"))
    uses = {(path.relative_to(PERFBENCH).as_posix(), module, name)
            for path in files
            for module, name in cascadefuse_names(ast.parse(path.read_text(encoding="utf-8")))}
    # the probes reach the package through these modules at least
    assert {module for _, module, _ in uses} >= {
        "cascadefuse.autodiff", "cascadefuse.layers", "cascadefuse.model",
        "cascadefuse.features", "cascadefuse.data", "cascadefuse.pointprocess"}
    missing = sorted(use for use in uses if not exists(use[1], use[2]))
    assert not missing, f"perfbench uses names that cascadefuse no longer has: {missing}"
