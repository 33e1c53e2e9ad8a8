"""Every name a module of the package imports at module level is used in
that module."""

import ast
from pathlib import Path

from boolpow import errors

SRC = Path(errors.__file__).parent


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level imports that no other part
    of the module reads, as a name or as the base of an attribute."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text()))
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}
