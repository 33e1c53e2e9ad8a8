"""Every typed error of the package is raised somewhere in it."""

import ast
from pathlib import Path

from boolpow import errors

SRC = Path(errors.__file__).parent


def _raised_names() -> set[str]:
    """Names of the classes that a `raise` statement of the package
    instantiates or raises, called directly or through a module."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.BoolpowError)
        and obj is not errors.BoolpowError
    }
    assert classes
    assert classes - _raised_names() == set()
