"""Static guard against leftovers: every module-level function of the
package whose name starts with ``_`` must be referenced somewhere in the
package outside its own body, so that no helper is kept alive only by the
tests.  Every module-level function, private or public, must use every
parameter it declares, so that a parameter that a refactor made idle (an
option accepted and then ignored, say) is deleted with it.  Every public
module-level function must likewise be read outside its own body and outside
``__init__.py``, whose re-exports do not count, unless it is named in
``LIBRARY_API``, the functions kept for library callers alone (README
lists them).  Every method and property of a package class, dunders
aside, must be read as an attribute somewhere in the package outside its
own body, unless all of its class's bases come from outside the package
(an argparse subclass overrides what argparse calls).  The modules import
each other one way: the package's internal import graph, counting imports
inside functions and leaving out ``__init__.py``, has no cycle, and the
hot-path modules never import ``series``, the ``Fraction`` reference.
Every module is parsed with ``ast``; a reference is a name or an attribute
that reads the function, wherever in the package it stands."""

import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "etaflow").glob("*.py"))

# public functions that no module of the package reads: the library API
LIBRARY_API = {"load_report", "spin_vanishing_predicate", "sqrt_sign"}
# the modules that answer queries, none of which may import series
HOT_PATH = ("exact", "spectral", "catalog", "eta")


def _functions(tree, private=True):
    """The module-level functions of ``tree`` named _x, dunders aside, or
    with ``private`` False those not starting with _."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") == private and not node.name.endswith("__")]


def _reads(node):
    """Counter of the names that ``node`` reads, as a name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
    return found


def unreferenced(trees, private=True):
    """(module, line, name) for each private (or, with ``private`` False,
    public) function that nothing in ``trees`` ({module: tree}) reads
    outside the function itself; a public one must be read outside
    ``__init__.py``."""
    everywhere = sum((_reads(tree) for module, tree in trees.items()
                      if private or module != "__init__.py"), Counter())
    return [(module, func.lineno, func.name)
            for module, tree in trees.items()
            for func in _functions(tree, private)
            if everywhere[func.name] <= _reads(func)[func.name]]


def _attribute_reads(node):
    """Counter of the attribute names that ``node`` reads."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _methods(tree, package_classes):
    """(class, method) for each method or property of ``tree``, dunders
    aside, in a class with no base or with a base among ``package_classes``:
    a class whose bases all come from outside the package may define what
    those bases call."""
    def from_package(base):
        return (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)) \
            in package_classes

    return [(cls, node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and (not cls.bases or any(map(from_package, cls.bases)))
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unread_methods(trees):
    """(module, line, "Class.method") for each method or property of
    ``trees`` ({module: tree}) that no attribute in ``trees`` reads outside
    the method itself."""
    package_classes = {cls.name for tree in trees.values() for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef)}
    everywhere = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    return [(module, node.lineno, f"{cls.name}.{node.name}")
            for module, tree in trees.items()
            for cls, node in _methods(tree, package_classes)
            if everywhere[node.name] <= _attribute_reads(node)[node.name]]


def idle_parameters(tree):
    """(line, function, parameter) for each parameter that a module-level
    function of ``tree`` declares and its body never reads."""
    found = []
    for func in _functions(tree) + _functions(tree, private=False):
        args = func.args
        declared = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                    *filter(None, (args.vararg, args.kwarg))]
        body = sum((_reads(stmt) for stmt in func.body), Counter())
        found += [(func.lineno, func.name, arg.arg) for arg in declared
                  if not body[arg.arg]]
    return found


def internal_imports(trees):
    """{module: the modules of ``trees`` ({file name: tree}) that it
    imports}, at any depth, inside functions too, as ``from .x import y``,
    ``from . import x`` or their ``etaflow.`` spellings.  An import of the
    package itself (``from . import __version__``) names no module."""
    modules = {name.removesuffix(".py") for name in trees}
    graph = {}
    for name, tree in trees.items():
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "etaflow"
                                                     or node.module.startswith("etaflow.")):
                base = (node.module or "").removeprefix("etaflow").lstrip(".")
                found |= {base} if base else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                found |= {alias.name.removeprefix("etaflow.") for alias in node.names
                          if alias.name.startswith("etaflow.")}
        graph[name.removesuffix(".py")] = found & modules
    return graph


def import_cycle(graph):
    """Modules of ``graph`` that import each other in a ring, the first
    repeated last, or [] when there is none."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def test_sources_found():
    assert any(path.name == "spectral.py" for path in SOURCES)


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_private_functions_are_referenced():
    assert unreferenced(_trees()) == []


def test_public_functions_are_read_or_library_api():
    unread = {name for _, _, name in unreferenced(_trees(), private=False)}
    assert unread - LIBRARY_API == set()
    # every name of the list is a public function, and README names it
    defined = {func.name for tree in _trees().values() for func in _functions(tree, False)}
    assert LIBRARY_API <= defined
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(LIBRARY_API) if f"{name}`" not in readme] == []


def test_methods_and_properties_are_read():
    assert unread_methods(_trees()) == []


def test_imports_are_one_way():
    graph = internal_imports({name: tree for name, tree in _trees().items()
                              if name != "__init__.py"})
    assert set(HOT_PATH) <= set(graph) and "series" in graph["cli"]
    assert [module for module in HOT_PATH if "series" in graph[module]] == []
    # eta reads a base only through what it is given: catalog names it in
    # annotations alone
    assert "catalog" not in graph["eta"]
    assert import_cycle(graph) == []


def test_lint_finds_local_imports_and_cycles():
    trees = {"a.py": ast.parse("from .b import f\nimport json\n"),
             "b.py": ast.parse("def f():\n    from . import a\n    import etaflow.c\n"),
             "c.py": ast.parse("from . import __version__\nfrom etaflow.d import g\n"),
             "d.py": ast.parse("from fractions import Fraction\n")}
    graph = internal_imports(trees)
    assert graph == {"a": {"b"}, "b": {"a", "c"}, "c": {"d"}, "d": set()}
    cycle = import_cycle(graph)
    assert set(cycle) == {"a", "b"} and cycle[0] == cycle[-1]
    del trees["b.py"]
    assert import_cycle(internal_imports(trees)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_private_functions_use_their_parameters(path):
    # public functions too, since idle_parameters reads every module-level one
    assert idle_parameters(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("snippet", [
    "def _helper(x):\n    return 1\n",
    "def _helper(x, *, y):\n    return x\n",
    "def _helper(x, *rest):\n    return x\n",
    "def _helper(x, **extra):\n    return x\n",
    "def _helper(x, y=1):\n    return lambda z: x + z\n",
    "def public(manifold, r, order=None):\n    return manifold, r\n",
])
def test_lint_flags_idle_parameters(snippet):
    assert idle_parameters(ast.parse(snippet))


def test_lint_flags_unreferenced_helpers():
    # used only by itself, or only in another module's unused import
    trees = {"a.py": ast.parse("def _walk(n):\n    return _walk(n - 1) if n else 0\n"),
             "b.py": ast.parse("from .a import _walk\n")}
    assert unreferenced(trees) == [("a.py", 1, "_walk")]


def test_lint_flags_unread_public_functions():
    # read only by itself and by a re-export in __init__.py
    trees = {"a.py": ast.parse("def orphan(n):\n    return orphan(n - 1) if n else 0\n"
                               "def used():\n    return 1\n"),
             "b.py": ast.parse("from .a import used\nVALUE = used()\n"),
             "__init__.py": ast.parse("from .a import orphan\nEXPORTS = [orphan]\n")}
    assert unreferenced(trees, private=False) == [("a.py", 1, "orphan")]


def test_lint_accepts_used_helpers():
    trees = {"a.py": ast.parse("def _scale(x, *args, **kw):\n    return x, args, kw\n"
                               "def __getattr__(name):\n    raise AttributeError\n"
                               "def public():\n    return _scale(2)\n"),
             "b.py": ast.parse("from . import a\n"
                               "def _twice(x):\n    return 2 * x\n"
                               "HANDLERS = {'twice': _twice}\n"
                               "y = a._scale(3)\n")}
    assert unreferenced(trees) == []
    assert all(idle_parameters(tree) == [] for tree in trees.values())


def test_lint_flags_unread_methods_and_properties():
    # read only by itself (walk), or not at all (half, and orphan in a class
    # with no base); a dunder is never asked for
    trees = {"a.py": ast.parse(
        "class Record:\n"
        "    def __eq__(self, other):\n        return self is other\n"
        "class Value(Record):\n"
        "    def walk(self, n):\n        return self.walk(n - 1) if n else 0\n"
        "    @property\n    def half(self):\n        return 1\n"
        "    def used(self):\n        return 2\n"
        "class Plain:\n"
        "    def orphan(self):\n        return 3\n"),
        "b.py": ast.parse("from .a import Value\nVALUE = Value().used()\n")}
    assert unread_methods(trees) == [("a.py", 5, "Value.walk"), ("a.py", 8, "Value.half"),
                                     ("a.py", 13, "Plain.orphan")]


def test_lint_accepts_read_methods_and_foreign_overrides():
    # error is called by argparse, not by the package; a subclass of a
    # package class still has its methods checked
    trees = {"a.py": ast.parse(
        "import argparse\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n"
        "class Failure(LookupError):\n"
        "    def hint(self):\n        return ''\n"
        "class Table:\n"
        "    def h(self, q):\n        return q\n"
        "class Product(Table):\n"
        "    def h(self, q):\n        return 2 * q\n"
        "    @property\n    def top(self):\n        return self.h(1)\n"),
        "b.py": ast.parse("from . import a\nVALUE = a.Product().top\n")}
    assert unread_methods(trees) == []
