"""No module in the package imports a name it never uses.

No linter runs on this project, so this is the guard: an import left
behind by a deletion fails here.  A package `__init__.py` re-exports what
it imports, and a line marked `# noqa: F401` keeps its import on purpose.
"""

import ast
from pathlib import Path

import dynbal

PACKAGE = Path(dynbal.__file__).resolve().parent


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
