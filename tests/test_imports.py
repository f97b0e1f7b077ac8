"""No module in the package imports a name it never uses, and nothing in
the package defines a function or class that nothing names.

No linter runs on this project, so these are the guards: an import left
behind by a deletion fails here, and so does a definition whose last
caller was deleted.  A package `__init__.py` re-exports what it imports,
and a line marked `# noqa: F401` keeps its import on purpose.  A
definition counts as named when any file of `src/`, `tests/` or
`perfbench/` names it outside the definition itself: as a name, an
attribute, an imported name or a string that is exactly the name.
"""

import ast
from pathlib import Path

import dynbal

PACKAGE = Path(dynbal.__file__).resolve().parent
REPO = PACKAGE.parents[1]


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_module_uses_what_it_imports():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused


def test_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nimport os.path as osp\nfrom typing import Optional, Union\n"
        "from re import compile  # noqa: F401\n\n"
        "def f(x: Optional[int]) -> int:\n    return osp.sep\n"
    )
    assert unused_imports(module) == ["module.py:1 os", "module.py:3 Union"]


def _names(tree: ast.AST):
    """(identifier, line) for every name, attribute, imported name and
    identifier-like string in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def unnamed_definitions(modules: list[Path], sources: list[Path]) -> list[str]:
    spans: dict[str, list[tuple[Path, int, int]]] = {}
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    named = set()
    for path in sources:
        for name, line in _names(ast.parse(path.read_text())):
            if name in spans and not any(
                path == where and start <= line <= end for where, start, end in spans[name]
            ):
                named.add(name)
    return [
        f"{where.name}:{start} {name}"
        for name, places in spans.items()
        if name not in named
        for where, start, _ in places
    ]


def test_every_definition_is_named_somewhere():
    modules = sorted(PACKAGE.rglob("*.py"))
    sources = sorted(p for d in ("src", "tests", "perfbench") for p in (REPO / d).rglob("*.py"))
    assert modules and len(sources) > len(modules)
    assert not unnamed_definitions(modules, sources)


def test_guard_sees_an_unnamed_definition(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Listed:\n    pass\n\n"
        "class Alone:\n    pass\n\n"
        "__all__ = ['Listed']\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from module import used as f\n\nprint(f(), 'Alone is a word')\n")
    assert unnamed_definitions([module], [module, caller]) == [
        "module.py:4 recursive",
        "module.py:10 Alone",
    ]
