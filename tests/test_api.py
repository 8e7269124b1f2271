"""Every exported name and every public method has a caller.

A name in ``carleson_kit.__all__`` must be loaded somewhere in the library
outside ``__init__`` or be imported by the acceptance suite.  A public
method or property of a class of the package must be read as an attribute
(``obj.name``) somewhere in the library or in the acceptance suite.  Public
surface that no command, guarantee or library routine needs should go.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import carleson_kit

PACKAGE = Path(carleson_kit.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _loaded_names() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _attribute_loads(paths) -> set:
    return {node.attr
            for path in paths for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _acceptance_imports() -> set:
    tree = ast.parse(ACCEPTANCE.read_text(), str(ACCEPTANCE))
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_export_has_a_caller():
    used = _loaded_names() | _acceptance_imports()
    exports = [name for name in carleson_kit.__all__
               if not isinstance(getattr(carleson_kit, name), types.ModuleType)]
    assert len(exports) > 50
    assert sorted(name for name in exports if name not in used) == []


def _public_methods() -> list:
    """(class, name) of every public method and property of the package's classes."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"carleson_kit.{path.stem}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for name, value in vars(cls).items():
                if not name.startswith("_") and (
                        inspect.isfunction(value)
                        or isinstance(value, (classmethod, staticmethod, property))):
                    found.append((cls.__name__, name))
    return found


def test_every_public_method_has_a_caller():
    library = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = _attribute_loads(library + [ACCEPTANCE])
    methods = _public_methods()
    assert len(methods) > 30
    assert sorted(f"{cls}.{name}" for cls, name in methods if name not in used) == []
