"""The package ships only what it runs.

Every public module-level function and class in ``src/randblock`` must be
used somewhere in the package outside its own definition, or by the
benchmark in ``perfbench/`` (which calls `spectra.build_block` and traces
names such as `eigen.min_eig_tridiag` from outside).  Code that only the
tests reach belongs in ``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "randblock"


def _names(node, strings: bool = False) -> set[str]:
    """Every name the subtree of ``node`` uses: plain names, attributes and
    imported names, and with ``strings`` the dotted parts of string
    constants (the benchmark names its trace targets in strings)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _public_definitions(tree) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_definition_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    benchmark = set().union(*(_names(ast.parse(path.read_text()), strings=True)
                              for path in sorted((ROOT / "perfbench").glob("*.py"))))
    uses = [(stmt, _names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for path, tree in trees.items():
        for node in _public_definitions(tree):
            used = node.name in benchmark or any(
                node.name in names for stmt, names in uses if stmt is not node)
            if not used:
                module = ".".join(path.relative_to(SRC).with_suffix("").parts)
                unused.append(f"{module}.{node.name}")
    assert unused == [], f"public code that only tests reach: {unused}"
