"""Every function, class and method of the library has a caller outside the
tests: code that only tests call belongs in the tests.  A method or property
counts as called only where a pipeline looks it up as an attribute or names
it in a string, not where a local name happens to share its spelling."""

import ast
import dataclasses
from pathlib import Path

from cavityuq.tracking import Tally

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "cavityuq"

# oracle is the closed-form reference the tests and the benchmark checker
# compare the discretization against; some of its references (the crossing
# radius of criterion 2) have no caller in the pipeline by design.
_EXEMPT_MODULES = {"oracle.py"}


def _trees(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _uses(trees, attributes_only=False):
    """Every name a module looks up: Name ids, Attribute attrs, imported
    names, and string constants that are identifiers (a name looked up at
    run time, as in getattr(module, "name") or globals()[name]).  With
    attributes_only, only the attrs and the strings: the ways a method or
    property is looked up, which a bare name of the same spelling is not."""
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not attributes_only:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and not attributes_only:
                names.update(node.name.split("."))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                names.add(node.value)
    return names


def _definitions(path, tree):
    """(where, name, is_method) of every function and class the module
    defines; a method is a function defined in a class body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(child)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for child in node.body if isinstance(child, functions)
    }
    for node in ast.walk(tree):
        if isinstance(node, (*functions, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno} {name}", name, id(node) in methods


def test_no_library_definition_is_test_only():
    library = _trees(sorted(_PACKAGE.glob("*.py")))
    # a re-export from the package's __init__ is not a caller
    callers = [(path, tree) for path, tree in library if path.name != "__init__.py"]
    pipelines = callers + _trees(
        p for p in sorted((_ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")
    )
    used, looked_up = _uses(pipelines), _uses(pipelines, attributes_only=True)
    unused = [
        where
        for path, tree in library
        if path.name not in _EXEMPT_MODULES
        for where, name, method in _definitions(path, tree)
        if name not in (looked_up if method else used)
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


def test_only_the_stepping_loop_takes_a_homotopy():
    # the stepping loop and the drivers above it evaluate a homotopy; every
    # kernel below them works on the pencil stacks and LUs it is handed
    path = _PACKAGE / "tracking.py"
    taking = {
        node.name
        for _, tree in _trees([path]) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "homotopy" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    }
    assert taking == {
        "track", "mixing", "track_modes", "_check_endpoints", "_track_members"
    }


def test_one_fold_for_track_statistics():
    # tracking statistics combine in tracking.Tally.fold alone: any other
    # statement that writes a tally field of one object from the same field
    # of another is a second fold, to be kept in step with the first
    names = {f.name for f in dataclasses.fields(Tally)}

    def fields(node):
        return {
            (n.attr, ast.dump(n.value)) for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr in names
        }

    folds = set()
    for path, tree in _trees(sorted(_PACKAGE.glob("*.py"))):
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, func.name) == ("tracking.py", "fold"):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                written = set().union(*map(fields, targets))
                if any(f == g and a != b for f, a in written for g, b in fields(node.value)):
                    folds.add(f"{path.name}:{node.lineno} {func.name}")
    assert sorted(folds) == []
