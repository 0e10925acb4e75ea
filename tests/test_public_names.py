"""Every public name of the package, every field of a public dataclass and
every public method and property of a public class has a reader outside the
tests."""

import ast
import dataclasses
import functools
import inspect
import types
from pathlib import Path

import nmloc

ROOT = Path(__file__).resolve().parents[1]


def nodes_outside_the_tests():
    """Every AST node of the package modules (less ``__init__.py``), the
    demos and the benchmark scripts."""
    files = [p for p in (ROOT / "src" / "nmloc").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    for path in files:
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def names_read_outside_the_tests():
    """Loaded names, attributes and import aliases outside the tests."""
    read = set()
    for node in nodes_outside_the_tests():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rsplit(".", 1)[-1])
    return read


def test_every_public_name_has_a_reader_outside_the_tests():
    public = {
        name for name in nmloc.__all__
        if name != "__version__"
        and not isinstance(getattr(nmloc, name), types.ModuleType)
    }
    assert sorted(public - names_read_outside_the_tests()) == []


def test_every_public_dataclass_field_has_a_reader_outside_the_tests():
    # a field is read as an attribute: neither a store (``result.x = x``)
    # nor a local variable of the same name reads it
    read = {node.attr for node in nodes_outside_the_tests()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [
        f"{name}.{f.name}" for name in nmloc.__all__
        if dataclasses.is_dataclass(getattr(nmloc, name))
        for f in dataclasses.fields(getattr(nmloc, name)) if f.name not in read
    ]
    assert unread == []


def test_every_public_method_and_property_has_a_reader_outside_the_tests():
    read = {node.attr for node in nodes_outside_the_tests()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = (property, functools.cached_property, classmethod, staticmethod)
    unread = [
        f"{name}.{attr}" for name in nmloc.__all__ if inspect.isclass(getattr(nmloc, name))
        for attr, member in vars(getattr(nmloc, name)).items()
        if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, members))
        and attr not in read
    ]
    assert unread == []


def test_every_module_level_import_is_read_in_its_module():
    unread = []
    for path in sorted((ROOT / "src" / "nmloc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unread.append(f"{path.name}: {bound}")
    assert unread == []
