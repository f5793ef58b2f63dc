"""No dead code in the package: every module-level import is used (or
re-exported through ``__all__``), every module-level private name is read
somewhere in the package, and deleted public names stay deleted.  No
assert statement either: python -O strips them, so a check that matters
raises a typed error."""

import ast
from pathlib import Path

import trinomax

SOURCES = sorted(Path(trinomax.__file__).parent.glob("*.py"))

# public names removed for want of any command, check or module that reads them
DELETED = {
    "constants": ("geometric_progression_bounds",),
    "extremal": ("NoSolution", "SingularConfiguration", "reconstruct_from_two_points"),
    "maxmod": ("localization_interval", "_at_phase"),
    "spectrum": ("is_isometry", "ISOMETRY_TAU_TOL"),
}


def module_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            if isinstance(node.value, ast.List):
                return set(ast.literal_eval(node.value))
    return set()


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports, star and __future__ imports aside."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.append(alias.asname or alias.name.split(".")[0])
    return bound


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assignments named _x (dunders aside)."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in defined if name.startswith("_") and not name.startswith("__")]


def test_no_dead_imports_private_names_or_deleted_names():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    read_anywhere = set().union(*map(read_names, trees.values()))

    dead = []
    for stem, tree in trees.items():
        used = read_names(tree) | module_all(tree)
        dead += [f"{stem}: import {name} is never used" for name in imported_names(tree) if name not in used]
        dead += [f"{stem}: {name} is never read" for name in private_definitions(tree) if name not in read_anywhere]
    assert not dead, "\n".join(dead)

    for stem, names in DELETED.items():
        module = getattr(trinomax, stem)
        for name in names:
            assert not hasattr(trinomax, name), name
            assert not hasattr(module, name), f"{stem}.{name}"


def test_no_assert_statements():
    found = [
        f"{path.stem}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"
