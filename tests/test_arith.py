"""Integer arithmetic primitives, cross-checked against sympy oracles."""

import random

import pytest
import sympy

from quadtower.arith import (
    DEFAULT_FACTOR_BOUND,
    PrimeDiscriminant,
    factor,
    is_fundamental,
    is_prime,
    kronecker,
    odd_prime_discriminant,
    prime_discriminants,
    squarefree,
)
from quadtower.errors import BoundExceeded, NotFundamental


def test_is_prime_against_sympy():
    for n in list(range(-3, 500)) + [10**9 + 7, 10**9 + 9, 2**31 - 1, 561, 41041]:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_strong_pseudoprimes_past_each_witness_range():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to 2, 3, 5 and 7;
    # 2152302898747 = 6763 * 10627 * 29947 to 2, 3, 5, 7 and 11.
    assert not is_prime(3215031751)
    assert not is_prime(2152302898747)


def test_is_prime_against_sympy_below_2_41():
    rng = random.Random(41)
    for n in [rng.randrange(1 << 41) for _ in range(3000)] + [
        rng.randrange(1 << 41) | 1 for _ in range(3000)
    ]:
        assert is_prime(n) == sympy.isprime(n), n


def test_kronecker_against_sympy():
    from sympy.functions.combinatorial.numbers import kronecker_symbol

    for a in range(-30, 31):
        for n in range(-30, 31):
            assert kronecker(a, n) == int(kronecker_symbol(a, n)), (a, n)


def test_kronecker_special_values():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(17, 3) == -1
    assert kronecker(-3, 11) == -1


def test_factor_sorted_with_multiplicity():
    assert factor(1) == []
    assert factor(12) == [2, 2, 3]
    assert factor(2244) == [2, 2, 3, 11, 17]
    assert factor(97) == [97]


def test_factor_bound():
    with pytest.raises(BoundExceeded):
        factor(DEFAULT_FACTOR_BOUND + 1)
    with pytest.raises(ValueError):
        factor(0)


def test_squarefree():
    assert squarefree(561)
    assert not squarefree(12)
    assert squarefree(-561)


def test_is_fundamental():
    for d in (-3, -4, -8, -7, -20, -2244, 5, 8, 12, 13, 204, 561, 1):
        assert is_fundamental(d), d
    for d in (0, -9, -12, -16, 2, 3, 16, 25, -25, -50):
        assert not is_fundamental(d), d


def test_prime_discriminant_validation():
    assert PrimeDiscriminant(-4).prime == 2
    assert PrimeDiscriminant(8).prime == 2
    assert PrimeDiscriminant(-3).prime == 3
    assert PrimeDiscriminant(17).prime == 17
    for bad in (4, -8 * 3, 15, 3, -17):
        with pytest.raises(NotFundamental):
            PrimeDiscriminant(bad)


def test_odd_prime_discriminant():
    assert odd_prime_discriminant(17).value == 17
    assert odd_prime_discriminant(3).value == -3
    assert odd_prime_discriminant(11).value == -11


def test_prime_discriminants_factorization():
    parts = prime_discriminants(-2244)
    assert {p.value for p in parts} == {-4, -3, -11, 17}
    parts = prime_discriminants(561)
    assert {p.value for p in parts} == {-3, -11, 17}
    parts = prime_discriminants(204)
    assert {p.value for p in parts} == {-4, -3, 17}
    assert prime_discriminants(1) == frozenset()
    with pytest.raises(NotFundamental):
        prime_discriminants(-12)


def test_prime_discriminants_product_recovers_d():
    for d in (-2244, -2580, -5412, 204, 561, -4, 8, -8, -20292):
        prod = 1
        for p in prime_discriminants(d):
            prod *= p.value
        assert prod == d, d
