"""numpy is the only runtime dependency: each module of the package imports
only the standard library, numpy and the package itself. No module calls
into C libraries through `ctypes`. And the package holds no dead code:
each function, class and method it defines is used somewhere else."""

import ast
import pathlib
import re
import sys
from collections import defaultdict

import pytest

ALLOWED = (set(sys.stdlib_module_names) - {"ctypes"}) | {"numpy", "lsekg"}
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


def _values_only_unique_calls(tree) -> list[int]:
    """The lines of `np.unique` calls that do not pass
    `return_inverse=True`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any(kw.arg == "return_inverse"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True for kw in node.keywords)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_np_unique_only_for_its_inverse(path):
    """numpy 2.4.6's `np.unique` finds the distinct values of an integer
    array by hashing. On the 86,835 int64 tail-major keys of a WN18RR-sized
    train split (2-core VM, best of 5 × 10 calls, five processes) it took
    14.1–18.1 ms, against 0.62–0.83 ms for `np.sort` and a neighbour mask;
    with `return_index=True` it took 6.6–6.9 ms, against 1.9–2.2 ms for
    `argsort` and `np.minimum.reduceat`. The package calls
    `lsekg.data.distinct` and `first_occurrences` instead. With
    `return_inverse=True`, `np.unique` sorts, and may stay.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _values_only_unique_calls(tree) == []


def test_values_only_unique_is_found():
    tree = ast.parse("np.unique(a)\nnumpy.unique(a, return_index=True)\n"
                     "np.unique(a, return_inverse=False)\n"
                     "np.unique(a, return_inverse=True)\n")
    assert _values_only_unique_calls(tree) == [1, 2, 3]


ROOT = pathlib.Path(__file__).parents[1]
# where a definition of the package may be used
USERS = sorted(path for folder in ("src", "tests", "perfbench")
               for path in (ROOT / folder).rglob("*.py"))
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions(tree):
    """The top-level functions and classes of a module and the methods of
    its top-level classes, dunders left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (method for method in node.body
                        if isinstance(method, kinds[:2]))


def _orphans(sources: dict, checked) -> list[str]:
    """The definitions (`_definitions`) of the `checked` modules of
    `sources`, path -> text, that no line outside themselves names. A
    name is used as a name, as an attribute, or as a part of a dotted
    string constant, which is how `perfbench/spans.py` names its
    targets."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses = defaultdict(list)  # name -> (path, line) of each use
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                names = node.value.split(".")
            else:
                continue
            for name in names:
                uses[name].append((path, node.lineno))
    return [f"{path}: {node.name}" for path in checked
            for node in _definitions(trees[path])
            if not node.name.startswith("__")
            and all(at == path and node.lineno <= line <= node.end_lineno
                    for at, line in uses[node.name])]


def test_every_definition_is_used():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in USERS}
    checked = [str(path.relative_to(ROOT)) for path in MODULES]
    assert _orphans(sources, checked) == []


def test_an_orphan_is_found():
    sources = {
        "data.py": "def _split(query):\n"
                   "    return _split(query[1:])\n"
                   "class Index:\n"
                   "    def contains(self):\n"
                   "        return 'Index'\n"
                   "    def __len__(self):\n"
                   "        return 0\n"
                   "def known_tails():\n"
                   "    pass\n",
        "spans.py": "Index().contains()\n"
                    "TARGET = ('lsekg.data', 'known_tails.__wrapped__')\n"}
    assert _orphans(sources, ["data.py"]) == ["data.py: _split"]
