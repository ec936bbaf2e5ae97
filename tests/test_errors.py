"""Checks over the package's source: failures are typed, with no bare
assert guarding the maths, and every exported name has a consumer."""

import ast
import pathlib
import re

import pytest

import quadtower
from quadtower.arith import factor
from quadtower.errors import InvalidArgument, QuadTowerError
from quadtower.quadforms import AbelianType, QuadForm, prime_form
from quadtower.tower import scan


def test_no_assert_in_package():
    src = pathlib.Path(quadtower.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_has_a_consumer():
    # A name in __all__ is referenced by a module of the package other than
    # __init__, beyond the def or class statement that defines it, or README
    # names it in a code span.
    src = pathlib.Path(quadtower.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {word for span in re.findall(r"`([^`\n]+)`", readme)
                  for word in re.findall(r"\w+", span)}
    orphans = [name for name in quadtower.__all__
               if name not in used and name not in documented]
    assert orphans == []


@pytest.mark.parametrize("call", [
    lambda: factor(0),
    lambda: QuadForm(3, -2, 5).transform(1, 1, 1, 1),
    lambda: AbelianType((6,)),
    lambda: AbelianType((2, 8)),
    lambda: scan(-1, -10),
    lambda: prime_form(-2244, 0),
    lambda: prime_form(-2244, 1),
])
def test_domain_errors_are_typed(call):
    # One typed error that is also a ValueError, so callers that catch
    # ValueError keep working.
    with pytest.raises(InvalidArgument) as exc:
        call()
    assert isinstance(exc.value, QuadTowerError)
    assert isinstance(exc.value, ValueError)
