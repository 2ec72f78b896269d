"""Checks on the package's source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flowtopo"


def module_private_names(tree):
    """(name, first line, last line) of each private module-level name that
    tree defines: a function, a class or an assigned name, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def references(tree):
    """(name, line) of each name that tree reads, imports or reads as an
    attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_private_name_has_a_caller():
    # code with no caller is deleted, and a private name the tests alone
    # use is such code
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, first, last in module_private_names(tree):
            if not any(ref == name and not (other == module and first <= line <= last)
                       for other, found in refs.items() for ref, line in found):
                unused.append(f"{module}: {name}")
    assert unused == []
