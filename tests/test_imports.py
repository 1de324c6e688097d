"""Every name a package module imports is used there, or its import line
says why it stays with `# noqa: F401` (a name another module looks up on
this one, such as a kernel the benchmark's tracer wraps).  The project
runs no linter, so this test is the check."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gpspca"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name the module never reads, unless
    its line carries `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in used and "# noqa: F401" not in lines[line - 1]]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_name():
    source = ("import os\nimport numpy as np\nfrom a import (\n    b,\n    c,  # noqa: F401\n)\n"
              "np.zeros(b)\n")
    assert unused_imports(source) == [(1, "os")]
