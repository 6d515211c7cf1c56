"""Static checks over the package source."""

import ast
import collections
import pathlib

import pytest

import asterhover

PACKAGE = pathlib.Path(asterhover.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Public package names that nothing in src/ or perfbench/ names, each with
# the reason it stays.
UNCALLED = {
    "lidar.crossing_count": "the parity test the `impact` outcome will run (ROADMAP item 7)",
    "dynamics.asteroid_angular_velocity": "the spin vector the acceptance criteria check",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name counts as read where it appears as a name, also inside a string
    constant that parses as an expression (a string annotation, an
    ``__all__`` entry). ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def writing_opens(source: str) -> list[int]:
    """Lines of the `open` calls (bare or as an attribute, such as
    ``io.open``) whose mode writes, appends, creates or updates. A mode that
    is not a string literal counts as writing."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "open":
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        if any(
            not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
            or set(mode.value) & set("wax+")
            for mode in modes
        ):
            lines.append(node.lineno)
    return lines


def names_read(tree: ast.AST) -> collections.Counter:
    """How often `tree` reads each name: bare names and attribute names,
    also inside a string constant that parses as an expression."""
    used = collections.Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        stack.extend(ast.iter_child_nodes(node))
    return used


def uncalled_public_names(package: dict[str, str], others: list[str]) -> set[str]:
    """`module.name` of each public module-level function or class of the
    `package` sources (module name -> source) that neither those sources nor
    the `others` name outside its own definition. Importing a name by
    `from` counts as naming it."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read = collections.Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        read.update(names_read(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and read[node.name] == names_read(node)[node.name]
    }


def test_unused_import_check_catches_one():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom typing import Any, Callable\n"
        "def f(x: 'Callable[[Any], int]'):\n    return np.asarray(x)\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_writing_open_check_catches_one():
    source = (
        "open(a)\nopen(a, 'rb')\nopen(a, newline='')\n"
        "open(a, 'w')\nio.open(a, mode='ab')\nopen(a, 'xb')\nopen(a, 'rb+')\nopen(a, m)\n"
    )
    assert writing_opens(source) == [4, 5, 6, 7, 8]


def test_one_open_for_writing_in_the_package():
    # every file a run writes goes through config.replacing, which writes
    # beside the target and renames it into place
    found = {path.stem: writing_opens(path.read_text()) for path in MODULES}
    assert len(found.pop("config")) == 1
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_uncalled_public_name_check_catches_one():
    package = {
        "a": "def used():\n    return 1\n\ndef alone(n):\n    return alone(n - 1)\n"
             "class _Private:\n    pass\n",
        "b": "from .a import used\n",
    }
    assert uncalled_public_names(package, []) == {"a.alone"}
    assert uncalled_public_names(package, ["import a\na.alone(3)\n"]) == set()
    assert uncalled_public_names(package, ["x: 'alone'\n"]) == set()


def test_every_public_name_has_a_caller_outside_tests():
    # An entry of UNCALLED that gains a caller must leave it, and a public
    # function or class that only tests use belongs in tests/.
    package = {path.stem: path.read_text() for path in MODULES}
    others = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert others, f"no perfbench sources under {PERFBENCH}"
    assert uncalled_public_names(package, others) == set(UNCALLED)
