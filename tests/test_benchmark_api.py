"""Every cascadefuse name that the benchmark in perfbench/ uses still exists,
and so does every attribute it reads off a config object.

perfbench/ is kept apart from the package, and its own tests are outside the
default test paths, so a name or config field dropped from src/ would otherwise
go unnoticed until the benchmark runs. This reads perfbench/ and changes nothing
there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from cascadefuse.data import SyntheticProfile
from cascadefuse.features import BundleConfig
from cascadefuse.model import ModelConfig
from cascadefuse.pointprocess import KernelParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the names under which the probes hold config objects, each with a default instance
CONFIG_OBJECTS = {"cfg": ModelConfig(), "BUNDLE_CONFIG": BundleConfig(),
                  "PROFILE": SyntheticProfile(), "kernel": KernelParams()}


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


def perfbench_files():
    return sorted(PERFBENCH.glob("*.py")) + sorted(PERFBENCH.glob("tests/*.py"))


def test_benchmark_names_resolve():
    uses = {(path.relative_to(PERFBENCH).as_posix(), module, name)
            for path in perfbench_files()
            for module, name in cascadefuse_names(ast.parse(path.read_text(encoding="utf-8")))}
    # the probes reach the package through these modules at least
    assert {module for _, module, _ in uses} >= {
        "cascadefuse.autodiff", "cascadefuse.layers", "cascadefuse.model",
        "cascadefuse.features", "cascadefuse.data", "cascadefuse.pointprocess"}
    missing = sorted(use for use in uses if not exists(use[1], use[2]))
    assert not missing, f"perfbench uses names that cascadefuse no longer has: {missing}"


def config_reads(tree: ast.Module):
    """(object, attribute) for each `obj.attribute` or `module.obj.attribute`
    where obj is one of CONFIG_OBJECTS."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            held = node.value
            name = held.id if isinstance(held, ast.Name) else getattr(held, "attr", None)
            if name in CONFIG_OBJECTS:
                found.append((name, node.attr))
    return found


def test_benchmark_config_reads_resolve():
    reads = {(path.relative_to(PERFBENCH).as_posix(), obj, attr)
             for path in perfbench_files()
             for obj, attr in config_reads(ast.parse(path.read_text(encoding="utf-8")))}
    # the walk finds reads of every config object, the model config's among them
    assert {obj for _, obj, _ in reads} == set(CONFIG_OBJECTS)
    assert {("cfg", a) for a in ("gru_form", "embed_dim", "e_con")} <= \
        {(obj, attr) for _, obj, attr in reads}
    missing = sorted(read for read in reads if not hasattr(CONFIG_OBJECTS[read[1]], read[2]))
    assert not missing, f"perfbench reads config attributes that no longer exist: {missing}"
