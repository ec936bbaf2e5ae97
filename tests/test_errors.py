"""Failures are typed: no bare assert guards the maths in the package."""

import ast
import pathlib

import pytest

import quadtower
from quadtower.arith import factor
from quadtower.errors import InvalidArgument, QuadTowerError
from quadtower.quadforms import AbelianType, QuadForm
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


@pytest.mark.parametrize("call", [
    lambda: factor(0),
    lambda: QuadForm(3, -2, 5).transform(1, 1, 1, 1),
    lambda: AbelianType((6,)),
    lambda: AbelianType((2, 8)),
    lambda: scan(-1, -10),
])
def test_domain_errors_are_typed(call):
    # One typed error that is also a ValueError, so callers that catch
    # ValueError keep working.
    with pytest.raises(InvalidArgument) as exc:
        call()
    assert isinstance(exc.value, QuadTowerError)
    assert isinstance(exc.value, ValueError)
