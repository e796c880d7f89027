"""The error set stays small: each class of errors.py is raised somewhere, and only
errors.py defines package errors."""

import ast
from pathlib import Path

import cascadefuse

SRC = Path(cascadefuse.__file__).parent


def _name(node):
    """The name a raise or a base class refers to: X, errors.X or X(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_every_error_class_is_raised_and_defined_only_in_errors():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    error_classes = {node.name for node in trees["errors.py"].body
                     if isinstance(node, ast.ClassDef)}
    raised = {_name(node.exc) for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    # the base is what callers catch; every other class must have a raise site
    assert sorted(error_classes - {"CascadeFuseError"} - raised) == []
    subclasses = [f"{module}: {node.name}" for module, tree in trees.items()
                  if module != "errors.py" for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  and any(_name(base) in error_classes for base in node.bases)]
    assert subclasses == []
