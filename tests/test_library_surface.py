"""Every function, class and method of the library has a caller outside the
tests: code that only tests call belongs in the tests."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "cavityuq"

# oracle is the closed-form reference the tests and the benchmark checker
# compare the discretization against; some of its references (the crossing
# radius of criterion 2) have no caller in the pipeline by design.
_EXEMPT_MODULES = {"oracle.py"}


def _trees(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _uses(trees):
    """Every name a module looks up: Name ids, Attribute attrs, imported
    names, and string constants that are identifiers (a name looked up at
    run time, as in getattr(module, "name") or globals()[name])."""
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                names.add(node.value)
    return names


def _definitions(path, tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno} {name}", name


def test_no_library_definition_is_test_only():
    library = _trees(sorted(_PACKAGE.glob("*.py")))
    # a re-export from the package's __init__ is not a caller
    callers = [(path, tree) for path, tree in library if path.name != "__init__.py"]
    pipelines = callers + _trees(
        p for p in sorted((_ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")
    )
    used = _uses(pipelines)
    unused = [
        where
        for path, tree in library
        if path.name not in _EXEMPT_MODULES
        for where, name in _definitions(path, tree)
        if name not in used
    ]
    assert unused == []


def test_only_the_solvers_name_the_dense_cutoff():
    # the tier decision stays behind the base eigensolve (eigen) and the
    # bordered system (tracking)
    naming = [
        path.name for path, tree in _trees(sorted(_PACKAGE.glob("*.py")))
        if "DENSE_CUTOFF" in _uses([(path, tree)])
    ]
    assert naming == ["eigen.py", "tracking.py"]
