"""The package ships only what it runs.

Every public module-level function and class in ``src/randblock``, and every
public method of a public class, must be used somewhere in the package
outside its own definition, or by the benchmark in ``perfbench/`` (which
calls `spectra.build_block` and traces names such as
`eigen.min_eig_tridiag` from outside).  Code that only the tests reach
belongs in ``tests/reference.py``.  And no module of the package or of the
tests imports a name it does not use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "randblock"


def _names(nodes, strings: bool = False) -> set[str]:
    """Every name the subtrees of ``nodes`` use: plain names, attributes and
    imported names, and with ``strings`` the dotted parts of string
    constants (the benchmark names its trace targets in strings)."""
    out = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _units(tree):
    """(top-level node, part, names the part uses) over a module: each
    top-level statement is one part, except that a class is split into its
    header (bases and decorators) and each statement of its body."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt, stmt, _names(stmt.bases + stmt.keywords + stmt.decorator_list)
            for member in stmt.body:
                yield stmt, member, _names([member])
        else:
            yield stmt, stmt, _names([stmt])


def _public_definitions(tree):
    """(name, node, whether node is a method) for every public function and
    class at module level and every public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member, True


def test_every_public_definition_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    benchmark = set().union(*(_names([ast.parse(path.read_text())], strings=True)
                              for path in sorted((ROOT / "perfbench").glob("*.py"))))
    units = [unit for tree in trees.values() for unit in _units(tree)]
    unused = []
    for path, tree in trees.items():
        for qualname, node, method in _public_definitions(tree):
            # a function or class may not count its own body, a method its own
            used = node.name in benchmark or any(
                node.name in names for top, part, names in units
                if (part if method else top) is not node)
            if not used:
                module = ".".join(path.relative_to(SRC).with_suffix("").parts)
                unused.append(f"{module}.{qualname}")
    assert unused == [], f"public code that only tests reach: {unused}"


def test_every_import_is_used():
    # names in __all__ are exported, and a line marked "# noqa: F401" keeps
    # an import on purpose (the benchmark hooks `analysis.min_eig_tridiag`)
    unused = []
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "tests").glob("*.py")]):
        text = path.read_text()
        tree = ast.parse(text)
        lines = text.splitlines()
        exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used and name != "annotations":
                    unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == [], f"imported names that are never used: {unused}"
