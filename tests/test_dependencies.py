"""numpy is the only runtime dependency: each module of the package imports
only the standard library, numpy and the package itself."""

import ast
import pathlib
import sys

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "lsekg"}
MODULES = sorted((pathlib.Path(__file__).parents[1] / "src" / "lsekg")
                 .glob("*.py"))


def test_the_package_is_found():
    assert "__init__.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_stdlib_and_numpy(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    assert {name.split(".")[0] for name in imported} - ALLOWED == set()
