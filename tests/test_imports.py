"""Every name a library module imports is used in that module, and no
module imports another's private names but two named ones.

An import that nothing reads is a dead dependency: it survives the code that
needed it and hides which module still relies on which.  A name counts as
used when it appears in the module's code as a name (which covers an
attribute access through it and an annotation).  ``from __future__`` imports
are directives, and ``__init__.py`` imports re-export the public API, so
neither is checked.

An underscore name is its module's own business: a module that imports one
from another package module splits one decision across two homes.
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


# (importing module, source module, name): the private imports that stay
PRIVATE_IMPORTS_KEPT = {
    # the one integer rule for urn and fingerprint entries
    ("fingerprint", "urn", "_is_integer_type"),
    # the one Gram recurrence, shared by the basis and the modulus check
    ("vandermonde", "orthopoly", "_gram_coefficients"),
}


def private_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, source module, name) for each underscore name the module imports
    from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "urncount":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, module.split(".")[-1], alias.name))
    return found


def test_no_module_imports_another_modules_private_names():
    private = [f"{path.relative_to(ROOT)}:{line} {module}.{name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for line, module, name in private_imports(path.read_text())
               if (path.stem, module, name) not in PRIVATE_IMPORTS_KEPT]
    assert not private, "private names imported from another module: " + ", ".join(private)


def test_a_private_import_is_found():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from numpy import _NoValue\n"
              "from .rng import _BLOCK, RngStream\n"
              "from urncount.urn import _is_integer_type as is_int\n"
              "from . import rng\n")
    assert private_imports(source) == [(4, "rng", "_BLOCK"), (5, "urn", "_is_integer_type")]
