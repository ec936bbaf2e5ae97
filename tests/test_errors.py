"""Failures are typed: no bare assert guards the maths in the package."""

import ast
import pathlib

import quadtower


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
