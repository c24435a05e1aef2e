"""`src/distb` holds only what the product runs.

Every public top-level function, class and assigned name in a `src/distb`
module must be read somewhere in the package (outside `__init__.py`, which
re-exports nothing) or in the benchmark (`perfbench/*.py`): as a bare name
or as the attribute of a module or object. A name that only tests, demos,
docstrings or strings mention is code nothing runs; it moves into `tests/`
or goes. A module's top-level imports and private names must be read in
the module itself: an import it no longer uses, or a helper only tests
reach, is dead weight too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "distb"


def defined_names(tree: ast.Module):
    """The names a module's top-level `def`, `class` and assignment statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def imported_names(tree: ast.Module):
    """The names a module's top-level `import` statements bind, bar `from __future__` ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def read_names(paths) -> set[str]:
    """Every name read as a `Name` (not bound by it) or an `Attribute` in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_in_src_is_read_by_the_package_or_the_benchmark():
    modules = sorted(PACKAGE.glob("*.py"))
    readers = [p for p in modules if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    read = read_names(readers)
    unread = [
        f"{path.stem}.{name}"
        for path in modules
        for name in defined_names(ast.parse(path.read_text(), str(path)))
        if not name.startswith("_") and name not in read
    ]
    assert not unread, f"public in src/distb, read by neither the package nor the benchmark: {unread}"


def test_every_import_and_private_name_in_src_is_read_by_its_own_module():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        private = [name for name in defined_names(tree) if name.startswith("_") and not name.startswith("__")]
        # Bare names only: `np.array` reads no `array` the module imports.
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        unread += [f"{path.stem}.{name}" for name in [*imported_names(tree), *private] if name not in read]
    assert not unread, f"imported or private in src/distb, never read by its own module: {unread}"
