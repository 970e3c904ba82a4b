"""Every name a module imports is used in it, every definition is used somewhere,
and every argument of a test is read by it.

The checks walk each module's syntax tree: a name bound by an import must be
read somewhere in the module, as a bare name or as the root of an attribute. A
top-level function or class of the package or of tests/_oracles.py, and a method
of the package's classes other than a dunder, must be read, as a bare name or as
an attribute, by some file under src/, tests/ or benchmarks/. An argument of a
test_* function under tests/, other than self, must be read in its body: a
fixture it never reads is set up for nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "qwattack").glob("*.py"), *(ROOT / "tests").glob("*.py")])
DEFINING = sorted([*(ROOT / "src" / "qwattack").glob("*.py"), ROOT / "tests" / "_oracles.py"])
READERS = sorted(p for d in ("src", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each top-level function and class, and of each non-dunder method of those classes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(m.lineno, m.name) for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def names_read(source: str) -> set[str]:
    """Each name the source reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unread_arguments(source: str) -> list[tuple[int, str]]:
    """(line, argument) of each argument of a test_* function, other than self, that its body never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            out += [(node.lineno, a.arg) for a in args if a.arg != "self" and a.arg not in read]
    return sorted(out)


def test_every_imported_name_is_used():
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def test_the_check_flags_an_unused_name():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nfrom a.b import c\nimport x.y\nnp.sqrt(tau + x.y)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi"), (4, "c")]


def test_every_definition_is_read_somewhere():
    read = set().union(*(names_read(p.read_text()) for p in READERS))
    unused = {str(p.relative_to(ROOT)): [(line, name) for line, name in definitions(p.read_text()) if name not in read]
              for p in DEFINING}
    assert {path: names for path, names in unused.items() if names} == {}


def test_the_check_flags_an_unused_definition():
    source = ("class A:\n    def __init__(self): pass\n    def used(self): pass\n    def idle(self): pass\n"
              "def f(): return A().used()\ndef g(): pass\nf()\n")
    read = names_read(source)
    assert [(line, name) for line, name in definitions(source) if name not in read] == [(4, "idle"), (6, "g")]


def test_every_test_argument_is_read():
    unread = {str(p.relative_to(ROOT)): unread_arguments(p.read_text()) for p in (ROOT / "tests").glob("test_*.py")}
    assert {path: names for path, names in unread.items() if names} == {}


def test_the_check_flags_an_unread_argument():
    source = ("class TestA:\n    def test_m(self, tmp_path, capsys):\n        capsys.readouterr()\n"
              "def test_f(corpus, seed):\n    def inner():\n        return seed\n    return inner\n"
              "def helper(unused):\n    pass\n")
    assert unread_arguments(source) == [(2, "tmp_path"), (4, "corpus")]
