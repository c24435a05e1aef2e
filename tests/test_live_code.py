"""`src/distb` holds only what the product runs.

Every public top-level function, class and assigned name in a `src/distb`
module must be read somewhere in the package (outside `__init__.py`, which
re-exports nothing) or in the benchmark (`perfbench/*.py`): as a bare name
or as the attribute of a module or object. A name that only tests, demos,
docstrings or strings mention is code nothing runs; it moves into `tests/`
or goes.
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
