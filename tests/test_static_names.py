"""Static name resolution over the package, with the standard library only.

A function body that reads a name bound nowhere (not local, not enclosing, not
module-level, not a builtin) compiles and imports fine, and fails only when
that line runs.  These tests find such reads in every module of the package
and in the test oracles, and the reverse: module-level imports that nothing in
the module reads, module-level functions and classes, and the methods and
properties of those classes, that no other code reads, and function parameters
that their body never reads.
"""

import ast
import builtins
import re
import symtable
from collections import Counter
from pathlib import Path

import effectalg

PACKAGE = Path(effectalg.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"   # runs only inside the tests that call it
PERFBENCH = Path(__file__).parent.parent / "perfbench"

# Imports kept on purpose although the module never reads them.
KEPT_IMPORTS = {
    # perfbench/tracing.py wraps effectalg.operators:is_state
    ("operators.py", "is_state"),
    # perfbench/tracing.py wraps effectalg.catalog:validate_axioms
    ("catalog.py", "validate_axioms"),
}

# Definitions kept on purpose although no other code reads them.
KEPT_DEFINITIONS = {
    # ROADMAP items 4 ("Homomorphisms along the tree") and 9 ("The paper's
    # duality, finite case, as a closed-form oracle: objects and morphisms")
    # give it a reader in the package
    ("core.py", "is_isomorphic"),
    # A08 checks the push-forward against the pull-back oracle
    ("duality.py", "VertexMap.push_forward"),
    # the tests build CLI input files with it
    ("io.py", "structure_to_dict"),
}

# Parameters kept on purpose although the function body never reads them.
KEPT_PARAMETERS = {
    # every subcommand handler takes the parsed arguments
    ("cli.py", "cmd_paper_suite", "args"),
}


def unbound_global_reads(source: str, filename: str) -> list[tuple[str, str]]:
    """(scope, name) for each name read as a global that the module never binds."""
    top = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported() or s.is_namespace()}
    bound |= set(dir(builtins))
    found = []
    stack = list(top.get_children())
    while stack:
        table = stack.pop()
        stack.extend(table.get_children())
        for sym in table.get_symbols():
            name = sym.get_name()
            if sym.is_referenced() and sym.is_global() and name not in bound:
                found.append((table.get_name(), name))
    return sorted(found)


def test_detector_catches_an_unimported_name():
    source = "from math import lcm\n\ndef f(a, b):\n    return a * b // gcd(a, b)\n"
    assert unbound_global_reads(source, "probe.py") == [("f", "gcd")]


def test_detector_accepts_imports_locals_closures_and_builtins():
    source = ("from math import gcd\nLIMIT = 3\n\n"
              "def f(xs):\n    total = 0\n"
              "    def g(y):\n        return gcd(y, total) + LIMIT\n"
              "    return sorted(map(g, xs))\n\n"
              "class C:\n    def m(self):\n        return f([1]) or C\n")
    assert unbound_global_reads(source, "probe.py") == []


def test_package_functions_read_only_bound_names():
    modules = sorted(PACKAGE.glob("*.py")) + [ORACLES]
    assert modules
    problems = {}
    for path in modules:
        found = unbound_global_reads(path.read_text(), str(path))
        if found:
            problems[path.name] = found
    assert problems == {}


def unused_imports(source: str, filename: str) -> list[str]:
    """Names bound by a module-level import that no expression reads.

    Reads are found with ``ast`` rather than ``symtable`` so that names used
    only in annotations (strings under ``from __future__ import annotations``)
    still count.
    """
    tree = ast.parse(source, filename)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_detector_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import itertools\nfrom .core import GuardExceeded, homomorphisms\n\n"
              "def f(E):\n    return sorted(homomorphisms(E, E))\n")
    assert unused_imports(source, "probe.py") == ["GuardExceeded", "itertools"]


def test_detector_counts_reads_in_annotations_attributes_and_nested_scopes():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Optional\nfrom math import gcd as g\n\n"
              "class C:\n    x: Optional[int] = None\n"
              "    def m(self):\n        return lambda: g(os.path.sep.count('/'), 2)\n")
    assert unused_imports(source, "probe.py") == []


def against_allow_list(found, kept: set) -> tuple[list, list]:
    """(entries of ``found`` that ``kept`` does not list, entries of ``kept``
    that are not found): what to mend, and what the allow-list keeps stale."""
    return sorted(set(found) - kept), sorted(kept - set(found))


def test_allow_list_check_reports_unlisted_and_stale_entries():
    source = "import os\nimport sys\nfrom math import gcd\n\ndef f():\n    return os.sep\n"
    found = [("probe.py", name) for name in unused_imports(source, "probe.py")]
    kept = {("probe.py", "sys"), ("probe.py", "os")}
    assert against_allow_list(found, kept) == ([("probe.py", "gcd")], [("probe.py", "os")])
    package = {"a.py": "def f():\n    return 0\n\ndef g():\n    return f()\n"}
    assert against_allow_list(unread_definitions(package, []), {("a.py", "f")}) == (
        [("a.py", "g")], [("a.py", "f")])


def test_package_modules_read_every_import():
    """Every module-level import is read by its module, except those that
    ``KEPT_IMPORTS`` lists, and each of those is in fact unread."""
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"      # re-exports
             for name in unused_imports(path.read_text(), str(path))]
    assert against_allow_list(found, KEPT_IMPORTS) == ([], [])


def imported_modules(source: str, filename: str) -> set[str]:
    """Top-level names of every module imported anywhere in the source."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_detector_finds_imports_in_function_bodies():
    source = ("from random import Random\n\n"
              "def f():\n    import os.path\n    from .core import x\n    return x\n")
    assert imported_modules(source, "probe.py") == {"random", "os"}


def function_level_imports(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, function) for every import statement inside a function body."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(inner.lineno, node.name) for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))}
    return sorted(found)


def test_detector_catches_imports_in_functions_and_methods():
    source = ("import os\n\n"
              "def f():\n    import json\n    return json\n\n"
              "class C:\n    def m(self):\n        from .core import x\n        return x\n")
    assert function_level_imports(source, "probe.py") == [(4, "f"), (9, "m")]


def test_package_imports_only_at_module_level():
    """A module's dependencies are all in its header; there is no import cycle
    that a deferred import would have to break."""
    problems = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = function_level_imports(path.read_text(), str(path))
        if found:
            problems[path.name] = found
    assert problems == {}


def test_only_the_fuzzer_draws_random_numbers():
    """Exact checks decide their contracts; seeded randomness belongs to the
    random-algebra generator, not to a decision route or a suite check."""
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if "random" in imported_modules(path.read_text(), str(path)))
    assert users == ["fuzz.py"]


def float_uses(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, text) for every read of the name ``float`` and every float literal."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
    return sorted(found)


def test_detector_catches_float_calls_and_literals():
    source = ("from fractions import Fraction\n\n"
              "def f(x, xs):\n    y = float(x) + 0.5\n"
              "    return [1e3, Fraction(1, 2), '2.5', x.float, *map(float, xs)]\n")
    assert float_uses(source, "probe.py") == [(4, "0.5"), (4, "float"), (5, "1000.0"),
                                              (5, "float")]


def test_state_layer_is_float_free():
    """No float enters elimination, vertex enumeration or the state polytope:
    vertex dedup and value-set tests need decidable equality."""
    problems = {}
    for name in ("linalg.py", "polytope.py", "states.py"):
        path = PACKAGE / name
        found = float_uses(path.read_text(), str(path))
        if found:
            problems[name] = found
    assert problems == {}


def test_polytope_imports_nothing_from_fractions():
    """Vertex enumeration takes integer rows and returns integer rays; the
    per-map records of the operator layer hold ints only."""
    for name in ("polytope.py", "operators.py"):
        path = PACKAGE / name
        assert "fractions" not in imported_modules(path.read_text(), str(path)), name


TRACE_TARGET = re.compile(r"effectalg\.\w+:([\w.]+)")


def names_read(tree: ast.AST, attributes_only: bool = False) -> Counter:
    """Names that the code under ``tree`` reads, with multiplicity: loaded
    attributes, each part of the path of every "effectalg.module:attr" or
    "effectalg.module:Class.attr" tracing target string and, unless
    ``attributes_only``, loaded names and imported names."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for path in TRACE_TARGET.findall(node.value):
                found.update(path.split("."))
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(name, node, is_method) for each module-level function and class, and,
    named "Class.attr", each method and property of those classes; dunder
    methods, which Python calls without a read, are left out."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for inner in node.body:
                if isinstance(inner, FUNCTIONS) and not inner.name.startswith("__"):
                    yield f"{node.name}.{inner.name}", inner, True


def unread_definitions(package: dict[str, str], outside: list[str]) -> list[tuple[str, str]]:
    """(module, name) for each of the ``definitions`` in ``package`` (file name
    to source) that is read neither by the package outside its own definition
    nor by any of the ``outside`` sources.  A method is read by any read of an
    attribute of its name, whatever the object; a local variable of that name
    does not read it."""
    trees = {name: ast.parse(source, name) for name, source in package.items()}
    outside_trees = [ast.parse(source) for source in outside]
    inside, elsewhere = {}, {}
    for attrs in (False, True):
        inside[attrs] = sum((names_read(t, attrs) for t in trees.values()), Counter())
        elsewhere[attrs] = set(sum((names_read(t, attrs) for t in outside_trees), Counter()))
    found = []
    for module, tree in trees.items():
        for qualname, node, attrs in definitions(tree):
            if (node.name not in elsewhere[attrs]
                    and inside[attrs][node.name] == names_read(node, attrs)[node.name]):
                found.append((module, qualname))
    return sorted(found)


def test_detector_finds_definitions_that_nothing_else_reads():
    package = {"a.py": ("def f(n):\n    return f(n - 1) if n else g()\n\n"
                        "def g():\n    return 0\n\nclass C:\n    pass\n\n"
                        "def h():\n    return 1\n"),
               "b.py": ("from .a import C\n\ndef k(x):\n    return x.size\n\n"
                        "def unused():\n    pass\n")}
    outside = ["LAYER = ('effectalg.b:k.inner',)\n", "from effectalg import a\na.h()\n"]
    assert unread_definitions(package, outside) == [("a.py", "f"), ("b.py", "unused")]
    assert unread_definitions(package, []) == [("a.py", "f"), ("a.py", "h"), ("b.py", "k"),
                                               ("b.py", "unused")]


def test_detector_reads_methods_as_attributes():
    """A method or property is read through an attribute of its name, here or
    in a dotted tracing target; a plain name or a read inside its own body
    does not count, and dunder methods are never reported."""
    package = {"a.py": ("class C:\n    def __repr__(self):\n        return ''\n\n"
                        "    @property\n    def size(self):\n        return 1\n\n"
                        "    def grow(self):\n        return self.grow() + self.size\n\n"
                        "    def traced(self):\n        return 0\n\n"
                        "    def shadowed(self):\n        return 0\n\n"
                        "def f(shadowed):\n    return C(), shadowed\n")}
    outside = ["LAYER = ('effectalg.a:C.traced',)\n", "from effectalg.a import f\n"]
    assert unread_definitions(package, outside) == [("a.py", "C.grow"), ("a.py", "C.shadowed")]


def test_package_definitions_are_read_elsewhere():
    """Every module-level function and class of the package, and every method
    and property of those classes, is read by another part of it
    (``__init__.py``'s re-exports do not count) or by the benchmark's own
    modules, which import and trace public functions and methods.  Each entry
    of ``KEPT_DEFINITIONS`` is in fact unread."""
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    outside = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))
               if not path.name.startswith("test_")]
    assert outside
    assert against_allow_list(unread_definitions(package, outside), KEPT_DEFINITIONS) == ([], [])


def unused_parameters(source: str, filename: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter that the function's body never
    reads, nested functions named "outer.inner" and methods "Class.method".  A
    read in a nested scope counts; the first parameter of a method, which
    Python binds itself, is left out."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                visit(child, prefix)
                continue
            name = prefix + child.name
            if isinstance(child, FUNCTIONS):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if p]
                if isinstance(node, ast.ClassDef):
                    params = params[1:]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend((name, p) for p in params if p not in read)
            visit(child, name + ".")

    visit(ast.parse(source, filename), "")
    return sorted(found)


def test_detector_catches_unread_parameters():
    """A parameter that is only annotated, defaulted or stored to is unread;
    one read in a nested function or its defaults is read, and a method's
    self is left out."""
    source = ("def f(a, b, *args, c=0, **kw):\n    b = 1\n    return kw\n\n"
              "def g(x, y: int = 2):\n    def inner(z=x):\n        return x\n"
              "    return inner\n\n"
              "class C:\n    def m(self, unused):\n        return 0\n")
    assert unused_parameters(source, "probe.py") == [
        ("C.m", "unused"), ("f", "a"), ("f", "args"), ("f", "b"), ("f", "c"),
        ("g", "y"), ("g.inner", "z")]


def test_package_functions_read_every_parameter():
    """Every parameter of every package function is read by its body, except
    those that ``KEPT_PARAMETERS`` lists, and each of those is in fact unread."""
    found = [(path.name, *entry) for path in sorted(PACKAGE.glob("*.py"))
             for entry in unused_parameters(path.read_text(), str(path))]
    assert against_allow_list(found, KEPT_PARAMETERS) == ([], [])


def attribute_readers(source: str, filename: str, attr: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) for each load of the attribute
    ``attr`` and each string constant equal to it, as ``getattr`` takes; the
    function is "" at module level."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Constant) and child.value == attr):
                found.append((scope, child.lineno))
            visit(child, child.name if isinstance(child, FUNCTIONS) else scope)

    visit(ast.parse(source, filename), "")
    return sorted(found)


def test_detector_finds_attribute_reads_by_function():
    source = ("x = E.kind\n\ndef f(E):\n    def g():\n        return getattr(E, 'kind')\n"
              "    E.kind = 1\n    return g, 'kind.'\n\n"
              "class C:\n    def kind(self):\n        return self.kind\n")
    assert attribute_readers(source, "probe.py", "kind") == [("", 1), ("g", 5), ("kind", 11)]


def test_only_the_search_reads_the_endomorphism_type():
    """A map of ``E.endomorphism_type`` is accepted without a walk, which is
    sound only while the search alone mints that type.  So the package and
    the benchmark read it in exactly two places: ``homomorphisms``, which
    mints it at a leaf whose checks passed, and ``is_homomorphism``, which
    tests for it."""
    sources = sorted(PACKAGE.glob("*.py")) + [path for path in sorted(PERFBENCH.glob("*.py"))
                                             if not path.name.startswith("test_")]
    found = [(path.name, scope) for path in sources
             for scope, _line in attribute_readers(path.read_text(), str(path),
                                                   "endomorphism_type")]
    assert found == [("core.py", "homomorphisms"), ("core.py", "is_homomorphism")]
