"""Each integer rule has one home.

A count, size or seed argument is checked by ``rng.check_int``, and an urn or
fingerprint entry by the element rule ``urn._is_integer_type``.  Any other
``src/`` function that tests for ``bool`` itself (``isinstance(..., bool)``,
``issubclass(..., bool)``, ``np.bool_`` or ``... is bool``) is a second copy
of one of them, unless it is one of the two other rules listed below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "rng.check_int",
    "urn._is_integer_type",
    "sampling._check_not_bool",  # p and the Poisson n are floats, but no bools
    "harness._typed",  # the JSON types of an experiment config
}


def _names_bool(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "bool" for sub in ast.walk(node))


def _tests_for_bool(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "bool_"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
        return any(_names_bool(arg) for arg in node.args[1:])
    if isinstance(node, ast.Compare):
        return any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops) and (
            _names_bool(node.left) or any(map(_names_bool, node.comparators)))
    return False


def bool_tests(package: Path) -> set[str]:
    """``module.qualname`` of each function in ``package`` with a bool test
    of its own (a module-level test is named by the module alone)."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if _tests_for_bool(child):
                found.add(scope)
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_bool_tests_only_in_the_integer_rules():
    extra = bool_tests(ROOT / "src" / "urncount") - ALLOWED
    assert not extra, "bool tests outside the integer rules: " + ", ".join(sorted(extra))
