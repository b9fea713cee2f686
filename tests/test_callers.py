"""Every public library name, and every default it declares, has a caller in
the library or the benchmark.

A public function, class or method of ``urncount`` that only the tests call
belongs in the tests.  A name counts as called when it appears, outside its
own definition, in a ``src/`` or ``perfbench/`` file: as a name, an
attribute, an import, or a part of a string that is one identifier or dotted
path (the benchmark's hook table names its targets in such strings).  A
method or property counts as called only through an attribute access, so a
local variable or a word that shares its name does not keep it alive.

Likewise a default that only the tests take is a second way to call the
function that the program never uses: each defaulted parameter needs one
call in ``src/`` or ``perfbench/``, outside the function's own body, that
leaves it out.  The explicit ``__init__`` of a public class is called by the
class name, ``ClassName(...)``.

And a field of a public dataclass that nothing reads is state the program
carries for no one: each field needs an attribute read in ``src/`` or
``perfbench/``, outside its own class.  A module that passes objects whole
to ``asdict`` or ``fields`` reads every field of its dataclasses, since the
test cannot tell which class those objects are.
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


def _program_trees() -> dict[Path, ast.Module]:
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def test_every_public_name_has_a_caller():
    trees = _program_trees()
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


def _defaults(node, member: bool):
    """(name, positional slot or None) for each defaulted parameter of a def;
    the slot counts call arguments, so a method's ``self`` or ``cls`` takes
    none."""
    args = node.args
    first = len(args.args) - len(args.defaults)
    for slot, arg in enumerate(args.args[first:], start=first - member):
        yield arg.arg, slot
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _omits(call: ast.Call, name: str, slot) -> bool:
    """Whether ``call`` leaves the parameter to its default; a call that
    spreads ``*args`` or ``**kwargs`` counts as leaving it."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords):
        return True
    if any(kw.arg == name for kw in call.keywords):
        return False
    return slot is None or len(call.args) <= slot


def test_every_default_is_used():
    trees = _program_trees()
    calls: dict[str, list[tuple[Path, ast.Call, bool]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append((path, node, False))
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append((path, node, True))
    unused = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node, member in _public_definitions(tree):
            if node.name.startswith("_"):
                continue
            called, label, through_attribute = node.name, node.name, member
            if isinstance(node, ast.ClassDef):
                node = next((sub for sub in node.body
                             if isinstance(sub, ast.FunctionDef) and sub.name == "__init__"), None)
                if node is None:
                    continue
                # ClassName(...) calls __init__ with self taking no slot
                label, member, through_attribute = f"{called}.__init__", True, False
            own = range(node.lineno, node.end_lineno + 1)
            callers = [call for where, call, via_attribute in calls.get(called, ())
                       if (where != path or call.lineno not in own)
                       and (via_attribute or not through_attribute)]
            for name, slot in _defaults(node, member):
                if not any(_omits(call, name, slot) for call in callers):
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {label}({name}=)")
    assert not unused, "defaults that no call outside the tests takes: " + ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _serializes_whole(tree: ast.Module) -> bool:
    """Whether the module calls ``asdict`` or ``fields`` on an object."""
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("asdict", "fields")
               for node in ast.walk(tree))


def test_every_dataclass_field_is_read():
    trees = _program_trees()
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line, via_attribute in _references(tree):
            if via_attribute:
                reads.setdefault(name, []).append((path, line))
    unread = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents or _serializes_whole(tree):
            continue
        for node, member in _public_definitions(tree):
            if (member or not isinstance(node, ast.ClassDef) or node.name.startswith("_")
                    or not _is_dataclass(node)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            for sub in node.body:
                if not (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)):
                    continue
                field = sub.target.id
                if not any(where != path or line not in own for where, line in reads.get(field, ())):
                    unread.append(f"{path.relative_to(ROOT)}:{sub.lineno} {node.name}.{field}")
    assert not unread, "dataclass fields that nothing outside the tests reads: " + ", ".join(unread)
