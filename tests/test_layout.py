"""The package holds only code that runs.

Helpers that only tests use live under ``tests/`` (``oracle.py`` and
``sampling.py``).  These checks read the sources with :mod:`ast`: a module
of ``src/allostery`` must be imported by another of its modules, an
exported name must be used by the package or by the benchmark under
``bench/``, and a public method of a package class must be reached by name,
as an attribute or a string, from the package or the benchmark.
``__init__`` only re-exports, so its imports count for none of these.
Every parameter of a package function other than ``self`` and ``cls`` is
read in its body.  No module imports what would leave work for the
interpreter's teardown, which ``cli.run`` skips.  No module but
``dynamics`` calls ``.prepare(``.  The per-state reference
action in ``oracle.py`` reaches none of the level's digit methods, so it
cannot fall back onto the code it checks.
"""

import ast
from pathlib import Path

import allostery

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = {"__init__", "cli"}


def _parse(paths):
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}


MODULES = _parse(sorted((ROOT / "src" / "allostery").glob("*.py")))
BENCH = _parse(sorted((ROOT / "bench").rglob("*.py")))


def _imported_modules(tree):
    """The package modules that a module imports, by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                out.update([node.module] if node.module else (a.name for a in node.names))
            elif node.module and node.module.startswith("allostery."):
                out.add(node.module.split(".")[1])
            elif node.module == "allostery":
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("allostery."))
    return out


def _reached_names(tree):
    """The attribute names a module reads and its identifier-like strings;
    a ``def`` is not a use of its own name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def _used_names(tree):
    """The names a module reads or imports, with its :func:`_reached_names`;
    assignments and definitions do not count."""
    out = _reached_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def test_every_module_is_imported_by_another():
    importers = {name: set() for name in MODULES}
    for name, tree in MODULES.items():
        if name != "__init__":
            for target in _imported_modules(tree) - {name}:
                importers.setdefault(target, set()).add(name)
    orphans = sorted(name for name in MODULES if name not in ENTRY_POINTS and not importers[name])
    assert orphans == []


def test_every_export_is_used():
    used = set().union(*(_used_names(tree) for name, tree in MODULES.items() if name != "__init__"))
    used |= set().union(*map(_used_names, BENCH.values()))
    assert sorted(set(allostery.__all__) - used) == []


def _public_methods(tree):
    """(class, method) for each public function defined in a class body."""
    return {
        (cls.name, node.name)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def test_every_public_method_is_reached():
    trees = [tree for name, tree in MODULES.items() if name != "__init__"]
    reached = set().union(*map(_reached_names, trees + list(BENCH.values())))
    methods = set().union(*map(_public_methods, MODULES.values()))
    assert sorted(f"{cls}.{name}" for cls, name in methods if name not in reached) == []


def test_only_dynamics_prepares_an_action():
    """The package acts on a window state through ``Window.images``;
    ``Window.prepare`` stays only for the benchmark's tracer."""
    callers = sorted(
        name
        for name, tree in MODULES.items()
        if name != "dynamics"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "prepare"
    )
    assert callers == []


def _unread_parameters(tree):
    """(function, parameter) for each parameter of a ``def`` that its body
    never reads by name."""
    out = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            out.update((fn.name, a) for a in params if a not in read | {"self", "cls"})
    return out


def test_every_parameter_is_read():
    unread = set().union(*map(_unread_parameters, MODULES.values()))
    assert sorted(f"{fn}.{arg}" for fn, arg in unread) == []


# Each leaves work for the interpreter's teardown: atexit handlers, threads
# to join, child processes to reap, temporary files to remove, log handlers
# to flush.
TEARDOWN_MODULES = {
    "atexit", "threading", "multiprocessing", "concurrent", "subprocess", "tempfile", "logging"
}


def _absolute_imports(tree):
    """The top-level names of the modules a module imports absolutely."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_leaves_work_for_teardown():
    found = sorted(
        f"{name} imports {module}"
        for name, tree in MODULES.items()
        for module in _absolute_imports(tree) & TEARDOWN_MODULES
    )
    assert found == [], (
        f"{found}: cli.run ends the process with os._exit once the output is "
        "flushed, so atexit handlers, threads, child processes, temporary files "
        "and log handlers would be left unfinished"
    )


# The per-state reference action of ``oracle.py`` and its own index and text
# spelling, and the digit arithmetic of ``FiniteLevel`` that they check.
REFERENCE = {
    "apply_state", "act", "identity_state", "iter_states", "index_of", "coset_at",
    "coset_text", "window_text", "window_act",
}
DIGIT_METHODS = {
    "images", "index_map", "table", "digits", "_index_of", "state_text", "parse_state_index"
}


def _reached_from(tree, names):
    """:func:`_reached_names` of the named module-level functions of a
    module and of every function of that module they call by name."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(names) <= set(functions)
    todo, seen, reached = list(names), set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        reached |= _reached_names(functions[name])
        calls = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        todo += calls & set(functions)
    return reached


def test_the_reference_action_reaches_no_digit_method():
    oracle = ast.parse((ROOT / "tests" / "oracle.py").read_text())
    assert sorted(_reached_from(oracle, REFERENCE) & DIGIT_METHODS) == []
