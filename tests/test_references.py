"""Every module-level function, class and constant of ``src/willmore`` has
a reader in ``src/willmore`` besides its own definition.

A name counts as read where it is loaded, taken as an attribute or
imported by name; reads inside the definition itself (recursion, a class
naming itself) do not count.  Dunder names are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "willmore"

#: names kept without a reader in ``src``, each with its reason
ALLOWED = {
    "VERDICTS": "the verdict vocabulary: tests read it, and the three-valued "
                "zero test of ROADMAP item 1 extends it",
    "dzbar": "the Codazzi oracle of tests/oracles.py reads it, and the gate "
             "ledger of ROADMAP item 6 brings that check into src",
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


def _reads(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unread_names() -> list:
    """(module, name) of every module-level definition nothing else reads."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    reads = {id(stmt): _reads(stmt) for stmt in statements}
    unread = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in reads[id(stmt)] for stmt in statements
                       if stmt is not node):
                unread.append((module, name))
    return unread


def test_every_module_level_name_has_a_reader():
    unread = [(m, n) for m, n in unread_names() if n not in ALLOWED]
    assert unread == []


def test_allowed_names_are_still_unread():
    # an allowed name that gained a reader leaves the list
    assert {n for _, n in unread_names()} >= set(ALLOWED)
