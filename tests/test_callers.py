"""Every public library name has a caller in the library or the benchmark.

A public function, class or method of ``urncount`` that only the tests call
belongs in the tests.  A name counts as called when it appears, outside its
own definition, in a ``src/`` or ``perfbench/`` file: as a name, an
attribute, an import, or an identifier inside a string that is not a
docstring (the benchmark's hook table names its targets in strings).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "urncount"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree: ast.Module) -> set[int]:
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, owners) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _references(tree: ast.Module):
    """(identifier, line) for every use of a name in the module."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            for word in IDENTIFIER.findall(node.value):
                yield word, node.lineno


def _public_definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, defs))


def test_every_public_name_has_a_caller():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    uncalled = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in _public_definitions(tree):
            if node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in own for where, line in uses.get(node.name, ())):
                uncalled.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not uncalled, "public names with no caller outside the tests: " + ", ".join(uncalled)
