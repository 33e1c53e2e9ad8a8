"""Every typed error of the package is raised somewhere in it."""

import ast
import random
from pathlib import Path

import pytest

from boolpow import algebra, errors
from boolpow.cantor import PointContext
from boolpow.factorization import bergman_growth
from boolpow.power import make_context
from boolpow.rand import (
    GOOD_TAIL_DRAWS,
    cell_swap,
    random_good_tailclopen,
    random_tailclopen,
)

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


def test_generator_not_acting_is_typed():
    """bergman_growth refuses a generator that carries some depth-d
    element outside the depth-d elements with a BoolpowError, which
    the CLI reports as JSON."""
    ctx = make_context(algebra.gf2_idempotent_reduct(), (0, 1))
    swap = cell_swap(ctx.points, "0010", "0100")
    with pytest.raises(errors.GeneratorNotActing) as e:
        bergman_growth(ctx, [swap], 2, 3)
    assert str(e.value) == "generator does not act on the depth-2 approximation"


def test_good_tail_draws_are_capped():
    """With tails of period 1 no tail word holds both a 0 and a 1, so no
    draw is good: random_good_tailclopen refuses after its cap, naming
    the draws, where it used to draw forever."""
    rng = random.Random(0)
    with pytest.raises(errors.SizeBudgetExceeded) as e:
        random_good_tailclopen(PointContext(1), rng, max_period=1)
    assert str(e.value) == (
        f"no good tail clopen over n = 1 points in {GOOD_TAIL_DRAWS} draws"
    )
    # no draw past the cap: the stream is where that many draws leave it
    again = random.Random(0)
    for _ in range(GOOD_TAIL_DRAWS):
        random_tailclopen(PointContext(1), again, max_period=1)
    assert rng.random() == again.random()
