"""Every name a library module imports is used in that module.

An import that nothing reads is a dead dependency: it survives the code that
needed it and hides which module still relies on which.  A name counts as
used when it appears in the module's code as a name (which covers an
attribute access through it and an annotation).  ``from __future__`` imports
are directives, and ``__init__.py`` imports re-export the public API, so
neither is checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "urncount"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for line, name in unused_imports(path.read_text())]
    assert not unused, "imports no code in their module uses: " + ", ".join(unused)


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .rng import _BLOCK, _SCALAR_MAX as cutoff\n"
              "\n"
              "def f(x: np.ndarray) -> int:\n"
              "    return os.path.sep, _BLOCK\n")
    assert unused_imports(source) == [(2, "math"), (5, "cutoff")]
