"""Every public function and method in the package has a caller outside the tests.

A module-level function whose name does not start with an underscore, and
a method of that kind on a class whose name does not, must be referenced
by name somewhere other than its own body: in another part of `src/`, in
a demo, in a `bench/` file or in a python block of the README.  A method
counts as referenced when its name is read as an attribute or a name
anywhere there, so the scan is coarse for common names.  A string counts
only in `bench/`, whose tracer names functions by dotted strings; a
string elsewhere is data, such as a JSON key.  The package `__init__`
re-exports names and does not count as a caller.

A private module-level function must be referenced in `src/` outside its
own body, so that no helper is reached only from the tests.
"""

import ast
import re
from pathlib import Path

import torus_census

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "torus_census"

# Public functions and methods kept with no caller outside the tests, with the reason.
ALLOWED = {
    "graph_to_json": "the reference that tests/test_cli.py byte-compares with cli._graph_text",
    "UnimodularAffineMap.apply": (
        "the one operation of the exported witness type that polygon.canonical_form "
        "returns; tests/test_polygon.py checks the witness through it"
    ),
}


def _references(
    tree: ast.Module, skip: str | None = None, strings: bool = False
) -> set[str]:
    """Names, attributes, imports and, with `strings`, dotted strings read
    outside `skip`'s body.

    `skip` is a module-level function's name or a "Class.method" name.
    `bench/` traces functions by dotted strings such as "polygon.edges".
    """
    owner, _, name = (skip or "").rpartition(".")

    def skipped(node: ast.AST, within: str) -> bool:
        return isinstance(node, ast.FunctionDef) and (within, node.name) == (owner, name)

    stack = [node for node in tree.body if not skipped(node, "")]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and owner == node.name:
            stack.remove(node)
            stack += [child for child in node.body if not skipped(child, node.name)]
    found = set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _bench(where: str) -> bool:
    return where.startswith("bench/")


def _caller_trees() -> dict[str, ast.Module]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in files}
    readme = (ROOT / "README.md").read_text()
    for index, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        trees[f"README.md python block {index}"] = ast.parse(block)
    return trees


def _public(node: ast.AST, kind: type) -> bool:
    return isinstance(node, kind) and not node.name.startswith("_")


def _public_functions() -> list[tuple[str, str]]:
    """(file, name) of each public function, and (file, "Class.method") of each public method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        where = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text()).body:
            if _public(node, ast.FunctionDef):
                found.append((where, node.name))
            elif _public(node, ast.ClassDef):
                found += [
                    (where, f"{node.name}.{child.name}")
                    for child in node.body if _public(child, ast.FunctionDef)
                ]
    return found


def test_every_public_function_has_a_caller_outside_the_tests():
    functions = _public_functions()
    assert set(ALLOWED) <= {name for _, name in functions}
    trees = _caller_trees()
    unused = []
    for owner, name in functions:
        if name in ALLOWED:
            continue
        if not any(
            name.rpartition(".")[2]
            in _references(tree, name if where == owner else None, _bench(where))
            for where, tree in trees.items()
        ):
            unused.append(f"{owner}: {name}")
    assert unused == []


def test_every_private_function_has_a_caller_in_the_package():
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    private = [
        (where, node.name)
        for where, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    assert ("src/torus_census/circle_graph.py", "_refined") in private
    unused = [
        f"{owner}: {name}"
        for owner, name in private
        if not any(
            name in _references(tree, name if where == owner else None)
            for where, tree in trees.items()
        )
    ]
    assert unused == []


def test_the_scan_sees_public_methods():
    names = {name for _, name in _public_functions()}
    assert {"Basis.gram", "UnimodularAffineMap.apply", "S1Graph.component"} <= names
    assert not any(name.startswith("_") or "._" in name for name in names)


def test_every_exported_name_resolves():
    missing = [name for name in torus_census.__all__ if not hasattr(torus_census, name)]
    assert missing == []
    assert len(set(torus_census.__all__)) == len(torus_census.__all__)


def test_allowlisted_names_have_no_caller_outside_the_tests():
    # An entry whose name gained a caller is stale and leaves the list.
    trees = _caller_trees()
    assert [
        name for name in ALLOWED
        if any(
            name.rpartition(".")[2] in _references(tree, strings=_bench(where))
            for where, tree in trees.items()
        )
    ] == []


def test_reference_scan_counts_uses_and_skips_the_own_body():
    tree = ast.parse(
        "from pkg.mod import imported\n"
        "import pkg.whole\n"
        "def f():\n"
        "    return f() + g() + obj.attr\n"
        "def h():\n"
        "    return 'polygon.traced'\n"
    )
    assert {"imported", "whole", "g", "attr", "f"} <= _references(tree)
    assert "traced" not in _references(tree)
    assert "traced" in _references(tree, strings=True)
    assert {"f", "g", "attr"}.isdisjoint(_references(tree, "f"))
    assert "traced" not in _references(tree, "h", strings=True)


def test_reference_scan_skips_only_the_own_method_body():
    tree = ast.parse(
        "class A:\n"
        "    def m(self):\n"
        "        return self.m() + self.k()\n"
        "    def n(self):\n"
        "        return self.m()\n"
        "class B:\n"
        "    def m(self):\n"
        "        return 'x.p'\n"
    )
    assert {"m", "k", "p"} <= _references(tree, strings=True)
    assert "m" in _references(tree, "A.m")  # A.n calls it
    assert "k" not in _references(tree, "A.m")
    assert "p" not in _references(tree, "B.m", strings=True)
    assert "k" in _references(tree, "B.m")
