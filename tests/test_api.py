"""Every exported name has a caller.

A name in ``carleson_kit.__all__`` must be loaded somewhere in the library
outside ``__init__`` or be imported by the acceptance suite; public surface
that no command, guarantee or library routine needs should go.
"""

import ast
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
