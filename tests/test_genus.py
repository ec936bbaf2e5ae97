"""Genus characters, square 2-torsion, and principality checks."""

import pytest

from quadtower.arith import PrimeDiscriminant, is_prime, kronecker, prime_discriminants
from quadtower.errors import BoundExceeded, DiscriminantMismatch, PreconditionViolated
from quadtower.genus import chi_eval, lemma1_check, square_2torsion
from quadtower.quadforms import (
    QuadForm,
    class_group,
    compose,
    prime_form,
    principal_form,
    reduce_form,
)


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


def test_chi_product_is_one_on_every_class():
    for d in (-2244, -2580, -68, -420, 204, 561):
        for c in class_group(d).classes:
            prod = 1
            for d_i in prime_discriminants(d):
                prod *= chi_eval(d, d_i, c)
            assert prod == 1, (d, c)


def test_chi_errors():
    with pytest.raises(DiscriminantMismatch):
        chi_eval(-2244, PrimeDiscriminant(-4), principal_form(-68))


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
