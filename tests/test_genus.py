"""Genus characters, square 2-torsion, and principality checks."""

import sys
from collections import Counter

import pytest

from quadtower.arith import (
    PrimeDiscriminant,
    is_fundamental,
    is_prime,
    kronecker,
    prime_discriminants,
)
from quadtower.errors import (
    BoundExceeded,
    DiscriminantMismatch,
    NotFundamental,
    NotImaginary,
    PreconditionViolated,
)
from quadtower import arith, quadforms, tower
from quadtower.genus import characters, chi_eval, lemma1_check, square_2torsion
from quadtower.quadforms import (
    QuadForm,
    class_group,
    compose,
    prime_form,
    principal_form,
    reduce_form,
)
from quadtower.tower import scan
from quadtower.verify import FIELD_TABLE, criterion_oracles


def test_chi_trivial_on_principal_class():
    for d in (-2244, -68, -420, 204, 561):
        pf = principal_form(d)
        for d_i in prime_discriminants(d):
            assert chi_eval(d, d_i, pf) == 1, (d, d_i)


def test_chi_on_2p_class():
    d = -2244
    f = reduce_form(compose(prime_form(d, 2), prime_form(d, 17)))
    for d_i in prime_discriminants(d):
        assert chi_eval(d, d_i, f) == 1, d_i


def test_chi_on_2qp_class_real():
    d = 204
    f = reduce_form(
        compose(compose(prime_form(d, 2), prime_form(d, 3)), prime_form(d, 17))
    )
    for value in (-4, -3, 17):
        assert chi_eval(d, PrimeDiscriminant(value), f) == 1, value


def test_chi_constant_on_class():
    # Two different representatives of the same class give equal characters.
    d = -2244
    f = prime_form(d, 3)
    g = f.transform(1, 1, 2, 3)  # another form in the same class
    assert g.disc == d and reduce_form(g) == reduce_form(f)
    for d_i in prime_discriminants(d):
        assert chi_eval(d, d_i, f) == chi_eval(d, d_i, g)


def _narrow_forms(d):
    """The classes of Cl(d), and for d > 0 each wide class's f with -f, so
    that both narrow classes of a wide class are covered."""
    classes = class_group(d).classes
    if d < 0:
        return classes
    return [g for f in classes for g in (f, QuadForm(-f.a, f.b, -f.c))]


def test_chi_product_is_one_on_every_class():
    for d in (-2244, -2580, -68, -420, 204, 561):
        for c in _narrow_forms(d):
            prod = 1
            for d_i in prime_discriminants(d):
                prod *= chi_eval(d, d_i, c)
            assert prod == 1, (d, c)


def test_characters_match_chi_eval_on_the_survey():
    # Every class of every discriminant of criterion 10's genus survey.
    survey = [d for d in range(-3, -2001, -1) if is_fundamental(d)]
    survey += [-2244, -2580, -5412, 204, 561]
    for d in survey:
        d_is = prime_discriminants(d)
        for c in _narrow_forms(d):
            chars = characters(d, c)
            assert set(chars) == d_is, (d, c)
            for d_i in d_is:
                assert chars[d_i] == chi_eval(d, d_i, c), (d, d_i, c)


def test_chi_errors():
    with pytest.raises(DiscriminantMismatch):
        chi_eval(-2244, PrimeDiscriminant(-4), principal_form(-68))


def test_chi_checks_the_prime_discriminant_before_the_value_search():
    # -4 is not a prime discriminant of -3, and the form takes no positive
    # value: the argument error comes first.
    with pytest.raises(NotFundamental):
        chi_eval(-3, PrimeDiscriminant(-4), QuadForm(-1, 1, -1))


def test_chi_search_is_bounded():
    # A negative definite form takes no positive value: the value search
    # stops at its box instead of running forever.
    with pytest.raises(BoundExceeded):
        chi_eval(-3, PrimeDiscriminant(-3), QuadForm(-1, 1, -1))


def test_square_2torsion_examples():
    d = -2244
    two_p = reduce_form(compose(prime_form(d, 2), prime_form(d, 17)))
    expected = sorted([reduce_form(principal_form(d)), two_p])
    assert square_2torsion(class_group(d)) == expected
    assert square_2torsion(class_group(-4)) == [reduce_form(principal_form(-4))]
    # Squares of a cyclic group of order 4 meet the 2-torsion in C2.
    result = square_2torsion(class_group(-68))
    assert len(result) == 2 and QuadForm(2, 2, 9) in result


def _composed_square_2torsion(group):
    """Cl[2] meets Cl^2 by composition: the classes whose square is the
    principal class, among the squares of all classes."""
    one = principal_form(group.disc)
    squared = [compose(f, f) for f in group.classes]
    torsion = {f for f, f2 in zip(group.classes, squared) if f2 == one}
    return sorted(torsion.intersection(squared))


def test_square_2torsion_matches_composition():
    # Every fundamental d to -5000 and every family field to -2*10^5.
    fields = [d for d in range(-3, -5001, -1) if is_fundamental(d)]
    fields += [report.d for report in scan(-2 * 10**5, -1)]
    for d in fields:
        group = class_group(d)
        assert square_2torsion(group) == _composed_square_2torsion(group), d


def test_square_2torsion_composes_nothing(monkeypatch):
    groups = [class_group(row[0]) for row in FIELD_TABLE]
    expected = [_composed_square_2torsion(g) for g in groups]

    def refuse(f, g):
        raise AssertionError(f"compose({f}, {g}) called")

    real = quadforms.compose
    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadtower" and getattr(module, "compose", None) is real:
            monkeypatch.setattr(module, "compose", refuse)
            patched.append(name)
    assert {"quadtower", "quadtower.quadforms", "quadtower.tower"} <= set(patched)
    assert [square_2torsion(g) for g in groups] == expected


def test_each_discriminant_is_factored_once(monkeypatch):
    # square_2torsion and criterion 10's genus survey factor d into its
    # prime discriminants once, not once per class.
    calls = Counter()
    real = arith.prime_discriminants

    def counting(d):
        calls[d] += 1
        return real(d)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadtower" and getattr(module, "prime_discriminants", None) is real:
            monkeypatch.setattr(module, "prime_discriminants", counting)
    groups = [class_group(row[0]) for row in FIELD_TABLE]
    for group in groups:
        assert len(square_2torsion(group)) == 2, group.disc
    assert calls == Counter(group.disc for group in groups)

    calls.clear()
    # Units run in forked children would count out of sight.
    monkeypatch.setattr(tower, "_usable_cpus", lambda: 1)
    assert criterion_oracles(grid=1, disc_limit=800, character_limit=300).passed
    survey = [d for d in range(-3, -301, -1) if is_fundamental(d)]
    assert calls == Counter(survey + [-2244, -2580, -5412, 204, 561])


def test_square_2torsion_refuses_a_real_class_group():
    # For d > 0 the classes are reduced indefinite forms, which the
    # ambiguity rule of reduced definite forms does not describe: d = 136
    # would read [] though the principal class is a square of order 1.
    for d in (136, 204, 5):
        with pytest.raises(NotImaginary):
            square_2torsion(class_group(d))


def test_lemma1_examples():
    r = lemma1_check(1, (3, 17))
    assert r.ok and r.discriminant == 204 and r.h2 == 2
    r = lemma1_check(2, (17, 3, 11))
    assert r.ok and r.discriminant == 561 and r.prime == 17


def test_lemma1_preconditions():
    with pytest.raises(PreconditionViolated):
        lemma1_check(1, (3, 13))  # 13 = 5 mod 8
    with pytest.raises(PreconditionViolated):
        lemma1_check(1, (7, 17))  # 7 = 7 mod 8
    with pytest.raises(PreconditionViolated):
        lemma1_check(2, (13, 3, 7))  # (13/3) = +1
    with pytest.raises(PreconditionViolated):
        lemma1_check(3, (3, 17))


def _primes(limit, residue, modulus):
    return [x for x in range(2, limit) if is_prime(x) and x % modulus == residue]


def test_lemma1_sweep_case1():
    # Every admissible pair with 4qp <= 10^5 passes.
    count = 0
    for q in _primes(200, 3, 8):
        for p in _primes(25000 // q + 1, 1, 8):
            if 4 * q * p > 10**5 or kronecker(p, q) != -1:
                continue
            assert lemma1_check(1, (q, p)).ok, (q, p)
            count += 1
    assert count > 100


def test_lemma1_sweep_case2():
    count = 0
    qs = _primes(120, 3, 4)
    for p in _primes(3000, 1, 4):
        for i, q in enumerate(qs):
            for qp in qs[i + 1:]:
                if p * q * qp > 10**5:
                    continue
                if kronecker(p, q) != -1 or kronecker(p, qp) != -1:
                    continue
                assert lemma1_check(2, (p, q, qp)).ok, (p, q, qp)
                count += 1
    assert count > 100
