"""Every exported name, every public method and every default has a caller,
and every imported name a use.

A name in ``carleson_kit.__all__`` must be loaded somewhere in the library
outside ``__init__`` or be imported by the acceptance suite.  A public
method or property of a class of the package must be read as an attribute
(``obj.name``) somewhere in the library or in the acceptance suite.  A
defaulted parameter of a function or method of the package must be passed
by some call in the library or the acceptance suite, unless
``TEST_ONLY_DEFAULTS`` names it with the reason a test sets it.  Public
surface and knobs that no command, guarantee or library routine needs
should go.  A module of the package other than ``__init__`` (which imports
to export) must load every name it imports, and every private
module-level function, class or constant of the package must be loaded
somewhere in the library: a helper that only tests load is dead code.

Every function, class and method of the package is reachable from the
command line's runners (``cli.main`` and the ``cli.run_*`` functions) in
the package's name graph, or named in ``UNREACHABLE_FROM_RUNNERS`` with the
acceptance guarantee or documented public primitive that needs it.
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


#: defaulted parameters that only tests pass, with the reason they do
TEST_ONLY_DEFAULTS = {
    "epsilon_net_split(net_vectors)": "a test plants a far net",
    "select_bad_intervals(depth_floor)": "the unpruned oracle runs at floors 8 to 16",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _defaulted_parameters() -> list:
    """(callee, parameter, position) of every defaulted parameter.

    The callee is the name a call uses: the function's or method's name,
    or the class name for ``__init__`` and for the fields of a dataclass.
    The position counts the positional arguments a call writes before the
    parameter (``self`` and ``cls`` excluded); it is None for keyword-only
    parameters.  A dataclass field is also set by ``dataclasses.replace``,
    whose calls count for every dataclass (see :func:`_calls`).
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [(cls, node) for node in cls.body if isinstance(node, ast.FunctionDef)]
            if _is_dataclass(cls):
                fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)]
                found += [(cls.name, f.target.id, i) for i, f in enumerate(fields)
                          if f.value is not None]
        for cls, fn in defs:
            args = fn.args.posonlyargs + fn.args.args
            if cls is not None and not any(ast.unparse(d) == "staticmethod"
                                           for d in fn.decorator_list):
                args = args[1:]
            callee = cls.name if fn.name == "__init__" else fn.name
            first = len(args) - len(fn.args.defaults)
            found += [(callee, a.arg, i) for i, a in enumerate(args) if i >= first]
            found += [(callee, a.arg, None)
                      for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def _calls(paths) -> list:
    """(callee, positional count, keyword names) of every call.

    ``cls(...)`` inside a class is resolved to the class.  A call that
    unpacks ``*`` or ``**`` has keyword names None: it counts as passing
    everything.  A call of
    ``replace(obj, name=...)`` is entered once for every dataclass, with
    only its keywords, since it sets those fields of whichever it copies.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)
        if not isinstance(node, ast.Call):
            return
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if callee == "cls":
            callee = cls
        splat = (any(isinstance(a, ast.Starred) for a in node.args)
                 or any(k.arg is None for k in node.keywords))
        keywords = None if splat else {k.arg for k in node.keywords}
        if callee == "replace":
            found.extend((name, 0, keywords) for name in dataclass_names)
        else:
            found.append((callee, len(node.args), keywords))

    trees = [ast.parse(path.read_text(), str(path)) for path in paths]
    dataclass_names = {node.name for tree in trees for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
    for tree in trees:
        visit(tree, None)
    return found


def test_every_default_is_passed_by_a_caller():
    library = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    calls = _calls(library + [ACCEPTANCE])
    params = _defaulted_parameters()
    assert len(params) > 20

    def passed(callee, name, position):
        return any(c == callee and ((position is not None and count > position)
                                    or keywords is None or name in keywords)
                   for c, count, keywords in calls)

    unpassed = sorted(f"{callee}({name})" for callee, name, position in params
                      if not passed(callee, name, position))
    assert unpassed == sorted(TEST_ONLY_DEFAULTS)


def _unused_imports(tree: ast.Module) -> list:
    """Names that the module's imports bind and that no expression loads."""
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    bound += [alias.asname or alias.name
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module != "__future__"
              for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports(ast.parse("import math\nfrom .disk import TAU, kernel\nkernel(TAU)")) \
        == ["math"]
    unused = sorted(f"{path.name}: {name}" for path in PACKAGE.glob("*.py")
                    if path.name != "__init__.py"
                    for name in _unused_imports(ast.parse(path.read_text(), str(path))))
    assert unused == []


def _private_definitions() -> list:
    """(module, name) of every private module-level function, class and
    constant of the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(path.stem, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


def test_every_private_name_is_loaded_in_the_library():
    privates = _private_definitions()
    assert len(privates) > 40
    loaded = _loaded_names()
    assert sorted(f"{module}.{name}" for module, name in privates if name not in loaded) == []


#: library definitions that no command-line runner reaches, with the
#: acceptance guarantee or documented public primitive that needs each
UNREACHABLE_FROM_RUNNERS = {
    # the FFT model-space chain (README: carleson_kit.hardy, model_space)
    "hardy.BoundaryGrid": "acceptance c02 (the FFT model-space chain)",
    "hardy.BoundaryGrid.from_coefficients": "acceptance c02 (the FFT model-space chain)",
    "hardy.BoundaryGrid.is_analytic": "acceptance c02 (the FFT model-space chain)",
    "hardy.riesz_project": "acceptance c02 (the FFT model-space chain)",
    "model_space.kernel_grid": "acceptance c02 (the FFT model-space chain)",
    "model_space.project_model": "acceptance c02 (the FFT model-space chain)",
    # the checked disk primitives; the library calls their unchecked forms
    "disk.kernel": "documented public primitive (README: carleson_kit.disk)",
    "disk.pseudo_hyperbolic": "documented public primitive (README: carleson_kit.disk)",
    "disk.pseudo_hyperbolic_disk": "documented public primitive (README: carleson_kit.disk)",
    "disk.blaschke_factor": "documented public primitive (disk's module docstring)",
    # the potential's two-sided bounds
    "contour.check_potential_bounds": "acceptance c06",
    "contour.RepresentingMeasure.potential": "acceptance c06",
    # constant members of matrix families
    "model_space.MatrixFunction.constant": "acceptance c07 and c10",
}


def _references(nodes) -> set:
    """Every name and attribute name that the AST ``nodes`` mention."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for root in nodes for node in ast.walk(root)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _name_graph():
    """({qualified definition: (name, names it mentions)}, the names that
    import-time code mentions).  A class mentions what its body outside its
    methods mentions, and its dunder methods, which run unnamed."""
    definitions, import_time = {}, set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, functions):
                definitions[f"{path.stem}.{node.name}"] = (node.name, _references([node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, functions)]
                rest = [n for n in node.body if not isinstance(n, functions)]
                dunders = {m.name for m in methods if m.name.startswith("__")}
                definitions[f"{path.stem}.{node.name}"] = (
                    node.name, _references(rest + node.bases + node.decorator_list) | dunders)
                for m in methods:
                    definitions[f"{path.stem}.{node.name}.{m.name}"] = (m.name, _references([m]))
            else:
                import_time |= _references([node])
    return definitions, import_time


def _reachable_from_runners(definitions, import_time) -> set:
    """The definitions that the runners and import-time code reach, where a
    mentioned name reaches every definition of that name."""
    named = {}
    for qualified, (name, _) in definitions.items():
        named.setdefault(name, []).append(qualified)
    todo = [q for q in definitions if q == "cli.main" or q.startswith("cli.run_")]
    todo += [q for name in import_time for q in named.get(name, [])]
    reached = set()
    while todo:
        qualified = todo.pop()
        if qualified not in reached:
            reached.add(qualified)
            todo += [q for name in definitions[qualified][1] for q in named.get(name, [])]
    return reached


def test_every_definition_is_reachable_from_a_runner():
    definitions, import_time = _name_graph()
    assert len(definitions) > 150
    reached = _reachable_from_runners(definitions, import_time)
    assert {"cli.run_carleson", "carleson._layer_bounds", "disk._kernel_sums"} <= reached
    assert sorted(set(definitions) - reached) == sorted(UNREACHABLE_FROM_RUNNERS)
