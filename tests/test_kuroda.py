"""Kuroda's class number formula and prediction tables."""

import pytest

from quadtower.arith import is_fundamental
from quadtower.errors import InvalidParams, NonIntegralResult
from quadtower.kuroda import (
    genus_field_h2,
    kuroda_h2,
    subfield_discriminants,
    table1_predictions,
)
from quadtower.quadforms import class_group, two_part, wide_h2


def test_kuroda_h2_v4_layouts():
    assert kuroda_h2([16, 4, 1], 1) == 32


def test_kuroda_h2_errors():
    with pytest.raises(NonIntegralResult):
        kuroda_h2([16, 3, 1], 1)
    with pytest.raises(InvalidParams):
        kuroda_h2([16, 4, 1, 1], 1)
    # Perturbing one subfield value breaks integrality or the 2-power check.
    with pytest.raises(NonIntegralResult):
        kuroda_h2([16, 4, 3], 1)


def test_table1_predictions():
    rows = table1_predictions(2, 2)
    assert tuple(r.h2 for r in rows) == (32, 32, 16, 16, 16, 16, 16)
    assert tuple(r.kappa_order for r in rows) == (4, 2, 4, 4, 4, 4, 4)
    assert rows[0].kappa_generators == ("[p]", "[q]")
    assert rows[1].kappa_generators == ("[p]",)
    assert rows[4].kappa_generators == ("[2]", "[pq]")
    rows = table1_predictions(3, 2)
    assert tuple(r.h2 for r in rows) == (64, 64, 32, 32, 32, 32, 32)
    rows = table1_predictions(2, 3)
    assert rows[0].h2 == 64 and rows[1].h2 == 32
    with pytest.raises(InvalidParams):
        table1_predictions(1, 2)


def test_genus_field_h2():
    assert genus_field_h2(2, 2) == 16
    assert genus_field_h2(3, 2) == 32
    assert genus_field_h2(2, 3) == 32
    # Lower tower bound: 2^(mu+1) >= 8 for all mu >= 2.
    for mu in range(2, 7):
        assert 2 ** (mu + 1) >= 8


def test_subfield_discriminants_fundamental():
    for p, q, qp in ((17, 3, 11), (41, 3, 11), (17, 3, 107)):
        discs = subfield_discriminants(p, q, qp)
        assert set(discs) == set(range(1, 8))
        for triple in discs.values():
            for dd in triple:
                assert is_fundamental(dd), (p, q, qp, dd)
    with pytest.raises(InvalidParams):
        subfield_discriminants(3, 17, 11)


def test_predictions_match_actual_class_numbers():
    # For (p,q,q') = (17,3,11): the Kuroda value from the true subfield
    # 2-class numbers equals every predicted table entry.
    def h2_of(dd):
        if dd < 0:
            return two_part(class_group(dd))[0]
        return wide_h2(dd)

    rows = table1_predictions(2, 2)
    discs = subfield_discriminants(17, 3, 11)
    for row in rows:
        dk, d2, d3 = discs[row.j]
        actual = kuroda_h2([h2_of(dk), h2_of(d2), h2_of(d3)], 1)
        assert actual == row.h2, row.j
