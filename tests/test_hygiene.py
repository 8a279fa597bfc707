"""Source hygiene of the package: no module imports a name it never uses,
and no function, class or method is defined that nothing refers to."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import eongp

MODULES = sorted(Path(eongp.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for part in ("src", "tests", "demos", "bench")
                 for path in (REPO / part).rglob("*.py"))


def imported_names(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` binds c
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= used_names(ast.parse(note.value, mode="eval"))
    return names


def test_modules_are_found():
    assert {"gp.py", "psa.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def defined_names(tree):
    """(name, line) of every function, class and method but dunders."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and \
                not (node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


@pytest.fixture(scope="module")
def words():
    """How often each identifier-like word occurs in the repository."""
    return Counter(word for path in SOURCES
                   for word in re.findall(r"\w+", path.read_text()))


def test_sources_are_found():
    assert {"gp.py", "test_gp.py", "run.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path, words):
    # a name that occurs only where it is defined is dead code; counting
    # words also counts mentions in strings and comments, so this only
    # catches names nothing refers to at all
    defs = Counter(name for module in MODULES
                   for name, _ in defined_names(ast.parse(module.read_text())))
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = [f"{path.name}:{line} {name}" for name, line in defined_names(tree)
            if words[name] <= defs[name]]
    assert not dead, f"defined but never referenced: {dead}"
