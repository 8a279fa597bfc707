"""Source hygiene of the package: no module imports a name it never uses,
no function, class or method is defined that nothing refers to, or that
only the tests refer to, and loading the package leaves the test-only
dependencies unloaded."""

import ast
import os
import re
import subprocess
import sys
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


def unreferenced(path, words):
    """Definitions in `path` whose name occurs in `words` no more often
    than the package defines it."""
    defs = Counter(name for module in MODULES
                   for name, _ in defined_names(ast.parse(module.read_text())))
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{line} {name}" for name, line in defined_names(tree)
            if words[name] <= defs[name]]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path, words):
    # a name that occurs only where it is defined is dead code; counting
    # words also counts mentions in strings and comments, so this only
    # catches names nothing refers to at all
    dead = unreferenced(path, words)
    assert not dead, f"defined but never referenced: {dead}"


@pytest.fixture(scope="module")
def program_references():
    """Every name the package, the bench harness and the demos refer to in
    code: names and attributes read, and names imported.  The tests of
    either are left out, and so are strings and comments."""
    refs = set()
    for path in SOURCES:
        if path.relative_to(REPO).parts[0] == "tests" or \
                path.name == "test_bench.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_test_only_definitions(path, program_references):
    # a name that only the tests refer to is dead code kept alive by them;
    # the tests keep their own oracles (tests/oracles.py)
    tree = ast.parse(path.read_text(), filename=str(path))
    test_only = [f"{path.name}:{line} {name}"
                 for name, line in defined_names(tree)
                 if name not in program_references]
    assert not test_only, f"defined for the tests alone: {test_only}"


def imported_modules(tree):
    """Top-level package of every module an import statement loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and \
                not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_signal_handling(path):
    # bench/probe.py samples the host's speed from a SIGALRM handler on an
    # ITIMER_REAL timer that runs through every timed pass: a module that
    # installs, resets or restores a handler or a timer ends the bench
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "signal" not in set(imported_modules(tree))


def referrers(node, name, owner=None):
    """Innermost function around each read of `name` as a name or an
    attribute; None at module level."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if (isinstance(node, ast.Name) and node.id == name or
            isinstance(node, ast.Attribute) and node.attr == name) and \
            isinstance(node.ctx, ast.Load):
        yield owner
    for child in ast.iter_child_nodes(node):
        yield from referrers(child, name, owner)


def test_package_loads_without_networkx():
    # networkx is a test dependency, the tests' path oracle; a fresh
    # interpreter that loads the command line must not load it
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eongp.cli; sys.exit('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "networkx was loaded"


def test_efficiencies_are_pinned_in_one_place():
    # rounding and the exact oracle must pin alike, so psa.pin is the only
    # code that reaches gp.fix_variable
    callers = {(path.name, owner) for path in MODULES
               for owner in referrers(ast.parse(path.read_text()),
                                      "fix_variable")}
    assert callers == {("psa.py", "pin")}


def test_scipy_sparse_only_where_superlu_needs_it():
    # the compiled form keeps its matrices as plain entry arrays: only the
    # MMD probe, the sparse factor and the sparse Newton step build scipy
    # objects, for SuperLU
    readers = {(path.name, owner) for path in MODULES
               for name in ("sp", "spla")
               for owner in referrers(ast.parse(path.read_text()), name)}
    assert readers == {("gp.py", "_compile"), ("gp.py", "_factor"),
                       ("gp.py", "_solve_newton")}


def test_one_copy_of_the_approximate_noise_model():
    # the fitted log-kernel coefficients build the approximate noise model
    # in psa.noise_bracket alone; physics reads them only for the kernel
    # fits that characterize-approx sets against the exact kernel
    readers = {(path.name, owner) for path in MODULES
               for name in ("XCI_LOG_SLOPE", "XCI_LOG_CUBIC")
               for owner in referrers(ast.parse(path.read_text()), name)}
    assert readers == {("physics.py", "log_ratio_linear"),
                       ("physics.py", "log_ratio_cubic"),
                       ("psa.py", "noise_bracket")}
