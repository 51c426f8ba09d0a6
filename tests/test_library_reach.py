"""Every public function, class and method of the library is reached by a
run, by the benchmark, or by the documented API.

A name counts as reached when it is used (as an AST ``Name`` or
``Attribute``) outside its own definition anywhere in ``src/vpqmc`` or
``perfbench/*.py``, when ``perfbench/run.py`` traces it, or when README
names it in backticks.  Code that only tests call belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

from test_perfbench_contract import bench

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "vpqmc").glob("*.py")
                 if p.name != "__init__.py")


def _definitions(tree):
    """(qualified name, node) of each public top-level function and class
    and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _uses(tree):
    """(name, line) of every Name and Attribute use in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_library_name_is_reached():
    trees = {path: ast.parse(path.read_text())
             for path in LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))}
    uses = {path: list(_uses(tree)) for path, tree in trees.items()}
    traced = {(module, attr) for module, attr, _, _ in bench.TRACED}
    documented = set(re.findall(r"\w+", " ".join(
        re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text()))))

    unreached = []
    for path in LIBRARY:
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            reached = ((path.stem, qualname) in traced or name in documented
                       or any(used == name and not (where == path and line in own)
                              for where, found in uses.items()
                              for used, line in found))
            if not reached:
                unreached.append(f"{path.stem}.{qualname}")
    assert not unreached, f"reached only from tests: {unreached}"
