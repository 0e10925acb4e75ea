"""Every public name of the package has a reader outside the tests."""

import ast
import types
from pathlib import Path

import nmloc

ROOT = Path(__file__).resolve().parents[1]


def names_read_outside_the_tests():
    """Loaded names, attributes and import aliases of the package modules
    (less ``__init__.py``), the demos and the benchmark scripts."""
    files = [p for p in (ROOT / "src" / "nmloc").glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "demos").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
