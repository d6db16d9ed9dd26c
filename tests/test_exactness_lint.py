"""Static guard for the exactness invariant: no float is used in any
decision.  Every module of the package is parsed with ``ast`` and must
contain no float or complex literal, no call to ``float`` or ``complex``,
no import of ``cmath`` or ``decimal``, and no ``math`` function outside
the exact integer ones.  It must not import ``sympy``, ``mpmath`` or
``numpy`` either: the package declares no dependencies, and the tests use
those libraries as oracles that must share no code with it.  Every memo
must be bounded, so ``functools.cache`` and ``lru_cache(maxsize=None)``
are refused too: an unbounded memo grows for the life of the process.
``dataclasses`` is refused as well: with the ``inspect`` it imports and
the methods it generates, it cost about a fifth of a command-line start,
so the records are plain classes.  Every ``json.load``/``json.loads`` must
pass ``parse_float=``, so that no float enters from data either: a number
literal in a config or table keeps its exact decimal value."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "etaflow").glob("*.py"))
EXACT_MATH = {"floor", "ceil", "isqrt", "comb", "factorial", "gcd"}
INEXACT_MODULES = {"cmath", "decimal"}
ORACLE_MODULES = {"sympy", "mpmath", "numpy"}
REFUSED_MODULES = INEXACT_MODULES | ORACLE_MODULES | {"dataclasses"}


def _unbounded_lru_cache(node):
    """``lru_cache(None)`` or ``lru_cache(maxsize=None)``, by any name."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name != "lru_cache":
        return False
    sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def violations(tree):
    """(line, description) for every inexact construct in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"{type(node.value).__name__} literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"call to {node.func.id}"))
        elif isinstance(node, ast.Call) and _unbounded_lru_cache(node):
            found.append((node.lineno, "unbounded lru_cache"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
              and node.func.attr in ("load", "loads")
              and not any(k.arg == "parse_float" for k in node.keywords)):
            found.append((node.lineno, f"json.{node.func.attr} without parse_float"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in REFUSED_MODULES:
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in REFUSED_MODULES:
                found.append((node.lineno, f"from {node.module} import"))
            elif root == "json":
                found.extend((node.lineno, f"from json import {alias.name}")
                             for alias in node.names if alias.name in ("load", "loads"))
            elif root == "functools":
                found.extend((node.lineno, "from functools import cache")
                             for alias in node.names if alias.name == "cache")
            elif root == "math":
                found.extend((node.lineno, f"from math import {alias.name}")
                             for alias in node.names if alias.name not in EXACT_MATH)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "functools" and node.attr == "cache"):
            found.append((node.lineno, "functools.cache"))
    return found


def test_sources_found():
    assert any(path.name == "exact.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_is_exact(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert violations(tree) == []


def test_gaussian_values_are_built_only_by_the_parity_split():
    # a paper_i value comes from eta.eval_at_i alone; nothing else builds
    # one, so no module needs complex arithmetic
    builders = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "GaussianRational"
    }
    assert builders == {"eta.py"}


@pytest.mark.parametrize("snippet", [
    "x = 0.5", "x = 2j", "y = float(x)", "y = complex(1, 2)", "import cmath",
    "import decimal", "from decimal import Decimal", "y = math.sqrt(2)",
    "y = math.log(3)", "from math import exp",
    "import sympy", "import sympy as sp", "from sympy import Rational",
    "from sympy.core.numbers import I", "import mpmath", "from mpmath import mp",
    "import numpy as np", "import numpy.linalg", "from numpy import array",
    "from functools import cache", "from functools import lru_cache, cache",
    "@functools.cache\ndef f(x): pass", "@lru_cache(maxsize=None)\ndef f(x): pass",
    "@functools.lru_cache(None)\ndef f(x): pass",
    "f = functools.lru_cache(maxsize=None)(g)",
    "import dataclasses", "import dataclasses as dc",
    "from dataclasses import dataclass", "from dataclasses import dataclass, field",
    "cfg = json.loads(text)", "cfg = json.load(handle)",
    "cfg = json.loads(text, parse_int=int)", "from json import loads",
])
def test_lint_flags_inexact_constructs(snippet):
    assert violations(ast.parse(snippet))


def test_lint_accepts_exact_constructs():
    snippet = ("import math\nfrom fractions import Fraction\n"
               "y = math.floor(Fraction(7, 2)) + math.comb(5, 2) + math.isqrt(10)\n"
               "z = math.factorial(4) + math.gcd(4, 6) + math.ceil(Fraction(1, 3))\n"
               "from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(x): pass\n"
               "@functools.lru_cache(8)\ndef g(x): pass\n"
               "import json\ncfg = json.loads(text, parse_float=parse_rational)\n"
               "text = json.dumps(cfg)\n")
    assert violations(ast.parse(snippet)) == []
