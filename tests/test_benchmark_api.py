"""Every cascadefuse name that the benchmark in perfbench/ uses still exists,
every call it makes into cascadefuse binds to the callee's signature, every
attribute it reads off a config object still exists, and every parameter it
reads by name is one that the model has.

perfbench/ is kept apart from the package, and its own tests are outside the
default test paths, so a name or config field dropped from src/ would otherwise
go unnoticed until the benchmark runs. This reads perfbench/ and changes nothing
there.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from cascadefuse.data import SyntheticProfile
from cascadefuse.features import BundleConfig
from cascadefuse.model import ModelConfig, param_shapes
from cascadefuse.pointprocess import KernelParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the names under which the probes hold config objects, each with a default instance
CONFIG_OBJECTS = {"cfg": ModelConfig(), "BUNDLE_CONFIG": BundleConfig(),
                  "PROFILE": SyntheticProfile(), "kernel": KernelParams()}


def cascadefuse_imports(tree: ast.Module):
    """(module, name) for each `from cascadefuse... import name`, and the dotted
    path of each local name bound by a cascadefuse import."""
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
    return found, modules


def cascadefuse_names(tree: ast.Module):
    """(module, name) for each `from cascadefuse... import name` and each
    `local.name` where `local` was imported as a cascadefuse module."""
    found, modules = cascadefuse_imports(tree)
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


def callee(func: ast.expr, modules):
    """The cascadefuse object that a call's `name` or `local.name` denotes, else None."""
    if isinstance(func, ast.Name) and func.id in modules:
        path = modules[func.id]
    elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in modules):
        path = f"{modules[func.value.id]}.{func.attr}"
    else:
        return None
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name, None)


def cascadefuse_calls(tree: ast.Module):
    """(line, callee, call) for each call of a cascadefuse function or class."""
    _, modules = cascadefuse_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = callee(node.func, modules)
            if callable(target):
                yield node.lineno, target, node


def binds(target, call: ast.Call) -> bool:
    """Whether call's positional count and keywords bind to target's signature;
    a call that passes *args or **kwargs need only bind in part."""
    args = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
    kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
    partial = len(args) < len(call.args) or len(kwargs) < len(call.keywords)
    signature = inspect.signature(target)
    try:
        (signature.bind_partial if partial else signature.bind)(*args, **kwargs)
    except TypeError:
        return False
    return True


def test_benchmark_calls_bind():
    calls = [(f"{path.relative_to(PERFBENCH).as_posix()}:{line}", target, call)
             for path in perfbench_files()
             for line, target, call in cascadefuse_calls(
                 ast.parse(path.read_text(encoding="utf-8")))]
    # the probes call into the layers and the model, gru_unroll with *weights among them
    assert {t.__name__ for _, t, _ in calls} >= {
        "gru_unroll", "cross_entropy", "init_params", "forward", "train", "evaluate"}
    broken = sorted(where for where, target, call in calls if not binds(target, call))
    assert not broken, f"perfbench calls that no longer bind to cascadefuse: {broken}"


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


def param_reads(tree: ast.Module):
    """Each string-literal key of a `params["..."]` read."""
    return [node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "params" and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)]


def test_benchmark_parameter_names_exist(monkeypatch):
    shapes = param_shapes(ModelConfig())
    reads = {(path.relative_to(PERFBENCH).as_posix(), name)
             for path in perfbench_files()
             for name in param_reads(ast.parse(path.read_text(encoding="utf-8")))}
    # the probes read the embedding and the head's weights by name
    assert {name for _, name in reads} >= {"embed", "f2_W", "f2_b", "out_W", "out_b"}
    missing = sorted(read for read in reads if read[1] not in shapes)
    assert not missing, f"perfbench reads parameters that the model no longer has: {missing}"
    # and each path's six GRU weights by names that tracing builds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for prefix in ("ling", "user", "temp"):
        assert len(tracing._gru_weights(shapes, prefix)) == 6
