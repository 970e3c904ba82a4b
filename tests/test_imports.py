"""Every name a module imports is used in it.

The check walks each module's syntax tree: a name bound by an import must be
read somewhere in the module, as a bare name or as the root of an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "qwattack").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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


def test_every_imported_name_is_used():
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def test_the_check_flags_an_unused_name():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nfrom a.b import c\nimport x.y\nnp.sqrt(tau + x.y)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi"), (4, "c")]
