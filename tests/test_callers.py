"""Every public library name has a caller in the library or the benchmark.

A public function, class or method of ``urncount`` that only the tests call
belongs in the tests.  A name counts as called when it appears, outside its
own definition, in a ``src/`` or ``perfbench/`` file: as a name, an
attribute, an import, or a part of a string that is one identifier or dotted
path (the benchmark's hook table names its targets in such strings).  A
method or property counts as called only through an attribute access, so a
local variable or a word that shares its name does not keep it alive.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "urncount"
DOTTED_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _references(tree: ast.Module):
    """(identifier, line, through an attribute) for every use of a name in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_PATH.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno, False


def _public_definitions(tree: ast.Module):
    """(definition, is a member) for module-level functions and classes, and
    for the methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node, False
            if isinstance(node, ast.ClassDef):
                yield from ((sub, True) for sub in node.body if isinstance(sub, defs))


def test_every_public_name_has_a_caller():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, via_attribute in _references(tree):
            uses.setdefault(name, []).append((path, line, via_attribute))
    uncalled = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node, member in _public_definitions(tree):
            if node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any((where != path or line not in own) and (via_attribute or not member)
                       for where, line, via_attribute in uses.get(node.name, ())):
                uncalled.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not uncalled, "public names with no caller outside the tests: " + ", ".join(uncalled)
