"""Every module-level function, class and constant of ``src/willmore``, and
every method and property of its classes, has a reader in ``src/willmore``
besides its own definition.

A name counts as read where it is loaded, taken as an attribute or
imported by name; reads inside the definition itself (recursion, a class
naming itself, a method calling itself) do not count.  Dunder names are
exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "willmore"

#: names kept without a reader in ``src``, each with its reason
ALLOWED = {
    "VERDICTS": "the verdict vocabulary: tests read it, and the three-valued "
                "zero test of ROADMAP item 2 extends it",
    "dzbar": "the Codazzi oracle of tests/oracles.py reads it, and the gate "
             "ledger of ROADMAP item 13 brings that check into src",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            yield node.target.id, node


def _reads(node, skip=None) -> set:
    """Names read in ``node``, outside the subtree ``skip``."""
    names, stack = set(), [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        stack.extend(ast.iter_child_nodes(sub))
    return names


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def unread_names() -> list:
    """(module, name) of every module-level definition nothing else reads."""
    trees = _trees()
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    reads = {id(stmt): _reads(stmt) for stmt in statements}
    unread = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if _dunder(name):
                continue
            if not any(name in reads[id(stmt)] for stmt in statements
                       if stmt is not node):
                unread.append((module, name))
    return unread


def unread_members() -> list:
    """(module, class, name) of every method and property of a class that
    nothing reads outside its own body."""
    trees = _trees()
    reads = {module: _reads(tree) for module, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or _dunder(node.name):
                    continue
                if not (node.name in _reads(tree, skip=node) or any(
                        node.name in names for other, names in reads.items()
                        if other != module)):
                    unread.append((module, cls.name, node.name))
    return unread


def test_every_module_level_name_has_a_reader():
    unread = [(m, n) for m, n in unread_names() if n not in ALLOWED]
    assert unread == []


def test_allowed_names_are_still_unread():
    # an allowed name that gained a reader leaves the list
    assert {n for _, n in unread_names()} >= set(ALLOWED)


def test_every_method_and_property_has_a_reader():
    assert unread_members() == []
