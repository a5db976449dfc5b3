"""Import hygiene: every name a package module or a test file imports is
used there.

No linter runs on this tree, so a deletion that leaves an import behind is
caught here.  A name listed only in ``__all__`` counts as unused: no
module re-exports another's names.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "multigrid_ilc"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport json\nfrom math import pi, tau\n__all__ = ['tau']\nos.sep\n"
    assert unused_imports(source) == ["line 2: json", "line 3: pi", "line 3: tau"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_file_uses_every_import(name):
    assert unused_imports((TESTS / name).read_text(encoding="utf-8")) == []
