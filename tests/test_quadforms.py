"""Binary quadratic forms: reduction, composition, class groups, units."""

import hashlib
import json
import random
from collections import Counter
from math import gcd, isqrt

import pytest

from quadtower.arith import factor, is_fundamental, kronecker, prime_discriminants
from quadtower.cli import _jsonable
from quadtower.errors import (
    DiscriminantMismatch,
    InertPrime,
    SquareDiscriminant,
    StructureMismatch,
)
from quadtower.quadforms import (
    AbelianType,
    QuadForm,
    _cycle,
    _is_reduced_indef,
    _reduced_definite_forms,
    _reduced_indefinite_forms,
    _roots_mod_4a,
    _sqrt_mod,
    _sylow2_type,
    abelian_type_from_counts,
    abelian_type_from_powers,
    class_group,
    compose,
    form_pow,
    fundamental_unit,
    is_principal,
    prime_form,
    principal_form,
    reduce_form,
    two_part,
    wide_h2,
)
from quadtower.tower import scan


def test_abelian_type_validation():
    t = AbelianType((8, 2, 2))
    assert t.order == 32 and str(t) == "(8,2,2)"
    assert AbelianType.of(2, 8, 1, 2) == t
    with pytest.raises(ValueError):
        AbelianType((2, 8))
    with pytest.raises(ValueError):
        AbelianType((6,))


def test_abelian_type_from_counts():
    # (4, 2): 1 element of order 1, 3 of order <= 2, 8 of order <= 4.
    assert abelian_type_from_counts([1, 4, 8]).parts == (4, 2)
    assert abelian_type_from_counts([1, 8, 8]).parts == (2, 2, 2)
    assert abelian_type_from_counts([1, 2, 4, 8]).parts == (8,)


def test_reduce_definite():
    f = QuadForm(15, 49, 41)
    r = reduce_form(f)
    assert r.disc == f.disc
    assert -r.a < r.b <= r.a <= r.c
    with pytest.raises(SquareDiscriminant):
        reduce_form(QuadForm(1, 3, 0))


def test_class_numbers_classical_values():
    expected = {
        -3: 1, -4: 1, -7: 1, -8: 1, -23: 3, -47: 5,
        -68: 4, -163: 1, -420: 8, -2244: 16,
    }
    for d, h in expected.items():
        assert len(class_group(d).classes) == h, d


def test_two_part_structures():
    assert two_part(class_group(-2244)) == (16, AbelianType((4, 2, 2)))
    assert two_part(class_group(-68)) == (4, AbelianType((4,)))
    assert two_part(class_group(-23)) == (1, AbelianType(()))
    assert two_part(class_group(-5412)) == (16, AbelianType((4, 2, 2)))
    assert two_part(class_group(-4 * 41)) == (8, AbelianType((8,)))


def test_composition_group_structure():
    for d in (-68, -420, -2244):
        g = class_group(d)
        one = reduce_form(principal_form(d))
        classes = set(g.classes)
        assert one in classes
        for f in g.classes:
            inv = reduce_form(QuadForm(f.a, -f.b, f.c))
            assert reduce_form(compose(f, inv)) == one
            for h in g.classes:
                assert reduce_form(compose(f, h)) in classes


def test_compose_discriminant_mismatch():
    with pytest.raises(DiscriminantMismatch):
        compose(principal_form(-4), principal_form(-8))


def test_form_pow():
    d = -68
    f = QuadForm(3, 2, 6)
    assert form_pow(f, 0) == reduce_form(principal_form(d))
    assert form_pow(f, 2) == reduce_form(compose(f, f))
    assert form_pow(f, 4) == reduce_form(principal_form(d))
    assert form_pow(f, 1) is f
    assert form_pow(f, 3) == compose(f, compose(f, f))
    assert form_pow(f, -1) == QuadForm(3, -2, 6) == form_pow(f, 3)
    moved = f.transform(2, 1, 1, 1)
    assert moved != f and form_pow(moved, 1) == f and form_pow(moved, -5) == form_pow(f, 3)


def test_prime_form():
    d = -2244
    for ell in (2, 3, 11, 17, 5, 7):
        try:
            f = prime_form(d, ell)
        except InertPrime:
            assert kronecker(d, ell) == -1
            continue
        assert f.a == ell and f.disc == d
    with pytest.raises(InertPrime):
        prime_form(-4, 3)


def test_is_principal_definite():
    d = -2244
    assert is_principal(d, principal_form(d))
    assert not is_principal(d, prime_form(d, 3))


def test_fundamental_units():
    # (d, t, u, norm) with t^2 - d u^2 = 4 * norm.
    cases = [(5, 1, 1, -1), (8, 2, 1, -1), (12, 4, 1, 1), (17, 8, 2, -1)]
    for d, t, u, norm in cases:
        unit = fundamental_unit(d)
        assert (unit.x, unit.y, unit.norm) == (t, u, norm), d
        assert unit.x**2 - d * unit.y**2 == 4 * norm


def test_wide_h2():
    # Narrow 2-class number halves exactly when the unit norm is +1.
    assert wide_h2(8) == 1
    assert wide_h2(204) == 2
    assert wide_h2(561) == 2
    assert wide_h2(12) == 1
    assert fundamental_unit(204).norm == 1
    assert fundamental_unit(561).norm == 1


def test_is_principal_narrow_vs_wide():
    # d = 12 has unit norm +1: the (-1)-form is wide-principal only.
    d = 12
    f = QuadForm(-1, 2, 2)
    assert f.disc == d
    assert is_principal(d, f, narrow=False)
    assert not is_principal(d, f, narrow=True)


def test_indefinite_narrow_class_count():
    # h+(d) for a few real quadratic fields (narrow class numbers).
    expected = {5: 1, 8: 1, 12: 2, 204: 4, 561: 4, 136: 4}
    for d, h in expected.items():
        assert len(class_group(d).classes) == h, d


# ---------------------------------------------------------------------------
# compose, the 2-Sylow and the reduced-form list against independent references
# ---------------------------------------------------------------------------

def _fundamentals(lo, hi):
    return [d for d in range(lo, hi + 1) if d not in (0, 1) and is_fundamental(d)]


def _unimodular(x, y):
    """Complete a primitive column (x, y) to [[x, p], [y, q]] with x q - y p = 1."""
    if y == 0:
        return x, 0, y, x
    q = pow(x, -1, abs(y))
    return x, (x * q - 1) // y, y, q


def _coprime_equivalent(f, m):
    """A form equivalent to f whose leading coefficient f(x, y) is coprime to m."""
    for box in range(1, 65):
        for x in range(-box, box + 1):
            for y in range(-box, box + 1):
                if gcd(x, y) == 1 and gcd(f.value(x, y), m) == 1:
                    return f.transform(*_unimodular(x, y))
    raise AssertionError(f"no value of {f} coprime to {m}")


def _dirichlet_compose(f, g):
    """Dirichlet composition: move g to a leading coefficient coprime to
    2 f.a, then solve B = f.b mod 2 f.a, B = g.b mod 2 g.a by CRT."""
    d = f.disc
    if gcd(g.a, 2 * f.a) != 1:
        g = _coprime_equivalent(g, 2 * f.a)
    a2 = abs(g.a)
    k = ((g.b - f.b) // 2 * pow(f.a, -1, a2)) % a2
    b = f.b + 2 * f.a * k
    a3 = f.a * g.a
    return reduce_form(QuadForm(a3, b, (b * b - d) // (4 * a3)))


def _is_reduced_definite(f):
    return -f.a < f.b <= f.a <= f.c and not (f.b < 0 and f.a == f.c)


def test_compose_matches_dirichlet_all_pairs():
    for d in _fundamentals(-3000, -3):
        classes = class_group(d).classes
        for f in classes:
            for g in classes:
                assert compose(f, g) == _dirichlet_compose(f, g), (d, f, g)


@pytest.mark.parametrize("d", [-19991, -329988, -1886244])
def test_compose_matches_dirichlet_sampled(d):
    classes = class_group(d).classes
    rng = random.Random(d)
    for _ in range(2000):
        f, g = rng.choice(classes), rng.choice(classes)
        assert compose(f, g) == _dirichlet_compose(f, g), (f, g)


def test_compose_unreduced_prime_forms():
    primes = [ell for ell in range(2, 60) if all(ell % q for q in range(2, isqrt(ell) + 1))]
    for d in (-2244, -2580, -5412, -19991, -329988):
        forms = [prime_form(d, ell) for ell in primes if kronecker(d, ell) != -1]
        # Translates x -> x + y are unreduced, whatever prime_form returns.
        forms += [f.transform(1, 1, 0, 1) for f in forms]
        for f in forms:
            for g in forms:
                h = compose(f, g)
                assert _is_reduced_definite(h) and h.disc == d
                assert h == _dirichlet_compose(f, g), (d, f, g)


def test_compose_real_lands_in_reference_cycle():
    for d in _fundamentals(5, 3000):
        classes = class_group(d).classes
        for f in classes:
            for g in classes:
                h = compose(f, g)
                assert _is_reduced_indef(d, h)
                assert h in _cycle(d, _dirichlet_compose(f, g)), (d, f, g)


def test_cycle_refuses_a_form_that_is_not_reduced():
    # Rho never comes back to (1, 0, -3): unguarded, its cycle would grow
    # until memory runs out.
    with pytest.raises(StructureMismatch):
        _cycle(12, QuadForm(1, 0, -3))


def test_sylow2_matches_genus_theory():
    for d in _fundamentals(-5000, -3):
        g = class_group(d)
        h2 = g.h & -g.h
        assert g.abelian_type.order == h2, d
        assert len(g.abelian_type.parts) == len(prime_discriminants(d)) - 1, d


def _reference_sylow2_type(d):
    """Type of the 2-Sylow by plain composition: counts[j] is the number of
    classes x with x^(odd 2^j) = 1, over odd, where h = odd 2^k.  Each order
    is found by composing x with itself until the identity comes back."""
    classes = class_group(d).classes
    one = reduce_form(principal_form(d))
    h = len(classes)
    odd = h // (h & -h)
    orders = []
    for x in classes:
        y, n = x, 1
        while y != one:
            y, n = compose(y, x), n + 1
        orders.append(n)
    counts = [1]
    while counts[-1] < h // odd:
        e = odd << len(counts)
        counts.append(sum(1 for n in orders if e % n == 0) // odd)
    return abelian_type_from_counts(counts)


# Fundamental d whose 2-Sylow has two or more parts >= 4, the smallest |d|
# of each type (the last two with odd part 3).
SYLOW2_PINNED = {
    -2379: (4, 4),
    -5795: (8, 4),
    -6360: (4, 4, 2),
    -20760: (8, 4, 2),
    -22127: (16, 8),
    -25988: (8, 8),
    -42420: (4, 4, 2, 2),
    -89284: (8, 8, 2),
    -8103: (4, 4),
    -13359: (8, 4),
}


def test_sylow2_type_matches_plain_composition():
    discs = _fundamentals(-3000, -3) + list(SYLOW2_PINNED)
    for d in discs:
        g = class_group(d)
        expected = _reference_sylow2_type(d)
        assert _sylow2_type(list(g.classes), d) == expected == g.abelian_type, d
        if d in SYLOW2_PINNED:
            assert expected.parts == SYLOW2_PINNED[d], d


def test_abelian_type_from_powers_squares_only_kept_generators():
    # A = Z/8 x Z/2 as pairs.  Level 1 squares both generators; (0, 1)^2 is
    # the identity, so the span drops it and later levels square (2, 0) and
    # (4, 0) only.
    squared = []

    def square(x):
        squared.append(x)
        return (2 * x[0] % 8, 2 * x[1] % 2)

    def span(xs):
        elems, used = {(0, 0)}, []
        for x in xs:
            if x not in elems:
                used.append(x)
                elems |= {((e[0] + k * x[0]) % 8, (e[1] + k * x[1]) % 2)
                          for e in elems for k in range(8)}
        return len(elems), used

    assert abelian_type_from_powers(16, [(1, 0), (0, 1)], square, span) == AbelianType.of(8, 2)
    assert squared == [(1, 0), (0, 1), (2, 0), (4, 0)]


@pytest.mark.parametrize("d, k", [(-9748, 12), (-3299, 12)])
def test_sylow2_type_rejects_classes_short_of_the_sylow(d, k):
    # 12 classes ask for a 2-Sylow of order 4, but the cubes of the first 12
    # classes of -9748 (h = 18) span 2 elements, and those of -3299 (h = 27)
    # span 3.
    classes = list(class_group(d).classes[:k])
    with pytest.raises(StructureMismatch):
        _sylow2_type(classes, d)


def _is_ambiguous(f):
    return f.b == 0 or f.b == f.a or f.a == f.c


def test_ambiguous_classes_match_genus_theory():
    # The classes of order <= 2 number 2^(t-1) for t prime discriminants
    # (Gauss's genus theory), and they are the ambiguous reduced forms.
    for d in _fundamentals(-20000, -3):
        ambiguous = sum(1 for f in _reduced_definite_forms(d) if _is_ambiguous(f))
        assert ambiguous == 1 << (len(prime_discriminants(d)) - 1), d


def _spanning_span(gens, ident):
    """The spans that built all of the 2-Sylow: each generator outside the
    span H extends it by x H, x^2 H, ... until a coset's first element
    lies in H."""
    elems = [ident]
    span = {ident}
    used = []
    for x in gens:
        if x in span:
            continue
        used.append(x)
        coset = elems
        while True:
            coset = [compose(x, y) for y in coset]
            if coset[0] in span:
                break
            elems.extend(coset)
        span = set(elems)
    return len(elems), used


def _spanning_sylow2_type(classes, d):
    """The 2-Sylow's type from a span of all of it: the odd-th powers of the
    classes with b >= 0 span A, and abelian_type_from_powers reads A's type
    off the generators the walk kept."""
    h = len(classes)
    h2 = h & -h
    if h2 == 1:
        return AbelianType(())
    ident = reduce_form(principal_form(d))
    size, gens = _spanning_span(
        (form_pow(f, h // h2) for f in classes if f.b >= 0), ident
    )
    assert size == h2, d
    return abelian_type_from_powers(
        h2, gens, lambda x: compose(x, x), lambda xs: _spanning_span(xs, ident)
    )


def test_sylow2_type_matches_spanning_walk_on_scan_fields():
    reports = scan(-10**6, -1)
    assert len(reports) == 1176
    discs = sorted({r.d for r in reports} | {-4 * r.classification.primes[0] for r in reports})
    for d in discs:
        classes = _reduced_definite_forms(d)
        assert _sylow2_type(classes, d) == _spanning_sylow2_type(classes, d), d


@pytest.mark.parametrize("d", [-2580, -6360, -42420, -89284])
def test_sylow2_type_rejects_a_dropped_or_duplicated_form(d):
    # With t >= 3 prime discriminants, h2 / 2^(t-1) is even; one form more
    # or one ambiguous form fewer leaves h odd with 2^(t-1) + 1 or
    # 2^(t-1) - 1 ambiguous forms.
    classes = list(class_group(d).classes)
    for i, f in enumerate(classes):
        with pytest.raises(StructureMismatch):
            _sylow2_type(classes + [f], d)
        if _is_ambiguous(f):
            with pytest.raises(StructureMismatch):
                _sylow2_type(classes[:i] + classes[i + 1:], d)


def test_sylow2_type_rejects_a_2A_of_rank_above_the_2_torsion():
    # Cl(-95) is cyclic of order 8.  Its first 4 classes hold one ambiguous
    # form, so they claim a trivial 2-torsion, yet the square of (2, 1, 12)
    # spans a 2A of order 4.
    classes = list(class_group(-95).classes[:4])
    with pytest.raises(StructureMismatch):
        _sylow2_type(classes, -95)


def test_reduced_definite_forms_match_double_loop():
    for d in _fundamentals(-5000, -3):
        naive = []
        for a in range(1, isqrt(-d // 3) + 1):
            for b in range(-a + 1, a + 1):
                num = b * b - d
                if num % (4 * a) == 0:
                    f = QuadForm(a, b, num // (4 * a))
                    if _is_reduced_definite(f):
                        naive.append(f)
        assert _reduced_definite_forms(d) == naive, d


# ---------------------------------------------------------------------------
# Seeded property tests of compose, and the QuadForm tuple contract
# ---------------------------------------------------------------------------

def _random_unreduced(rng, f):
    """f moved by a random unimodular matrix with entries up to about 30."""
    while True:
        x, y = rng.randrange(1, 30), rng.randrange(-30, 31)
        if gcd(x, y) == 1:
            return f.transform(*_unimodular(x, y))


def test_compose_group_laws_on_random_discriminants():
    rng = random.Random(20261018)
    discs = []
    while len(discs) < 40:
        d = -rng.randrange(3, 300000)
        if is_fundamental(d):
            discs.append(d)
    for d in discs:
        classes = class_group(d).classes
        one = reduce_form(principal_form(d))
        moved = 0
        for _ in range(25):
            f, g, h = (rng.choice(classes) for _ in range(3))
            fi = reduce_form(QuadForm(f.a, -f.b, f.c))
            assert compose(one, f) == f == compose(f, one), (d, f)
            assert compose(f, fi) == one == compose(fi, f), (d, f)
            assert compose(f, g) == compose(g, f), (d, f, g)
            assert compose(compose(f, g), h) == compose(f, compose(g, h)), (d, f, g, h)
            fu, gu = _random_unreduced(rng, f), _random_unreduced(rng, g)
            moved += fu != f
            assert fu.disc == d and compose(fu, gu) == compose(f, g), (d, fu, gu)
            assert reduce_form(fu) == f, (d, fu)
        assert moved > 20, d


def test_quadform_tuple_contract():
    f = QuadForm(3, -2, 5)
    assert repr(f) == "QuadForm(a=3, b=-2, c=5)" == str(f)
    assert (f.a, f.b, f.c) == tuple(f) == (3, -2, 5)
    assert f.disc == -56 and f.value(1, 1) == 6
    assert hash(f) == hash((3, -2, 5))
    forms = [QuadForm(2, 1, 3), QuadForm(1, 1, 5), QuadForm(2, -1, 3), QuadForm(1, 0, 6)]
    assert sorted(forms) == [
        QuadForm(1, 0, 6), QuadForm(1, 1, 5), QuadForm(2, -1, 3), QuadForm(2, 1, 3)
    ]
    assert _jsonable(f) == [3, -2, 5]
    assert _jsonable({"forms": {QuadForm(2, 1, 3), QuadForm(1, 1, 5)}}) == {
        "forms": [[1, 1, 5], [2, 1, 3]]
    }
    with pytest.raises(ValueError):
        f.transform(1, 1, 1, 1)


# ---------------------------------------------------------------------------
# The a-major square-root kernel against double loops
# ---------------------------------------------------------------------------

def _reference_definite_forms(d):
    """Reduced forms of d < 0 by testing every b <= a for every a."""
    out = []
    for a in range(1, isqrt(-d // 3) + 1):
        row = []
        for b in range(d & 1, a + 1, 2):
            num = b * b - d
            if num % (4 * a) == 0 and num // (4 * a) >= a:
                row.append((b, num // (4 * a)))
        out.extend(QuadForm(a, -b, c) for b, c in reversed(row) if 0 < b < a != c)
        out.extend(QuadForm(a, b, c) for b, c in row)
    return out


def _reference_indefinite_forms(d):
    """Reduced forms of d > 0 by trial-dividing (d - b^2) / 4 for every b."""
    out = []
    for b in range(1, isqrt(d) + 1):
        if (b - d) % 2 or b * b == d:
            continue
        prod = (d - b * b) // 4
        divisors = [1]
        for p, e in Counter(factor(prod)).items():
            divisors = [x * p**k for x in divisors for k in range(e + 1)]
        for aa in sorted(divisors):
            if (2 * aa + b) ** 2 > d and (2 * aa - b) ** 2 < d:
                out.append(QuadForm(aa, b, -(prod // aa)))
                out.append(QuadForm(-aa, b, prod // aa))
    return out


def _random_fundamentals(seed, count, lo, hi, sign):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = sign * rng.randrange(lo, hi + 1)
        if is_fundamental(d):
            out.append(d)
    return out


def _random_fundamentals_by_class(seed, per_class, lo, hi, sign):
    """Seeded fundamental d = sign * n with n in [lo, hi], per_class of each
    2-adic class: d = 1, 5 (mod 8) and d = 8, 12 (mod 16)."""
    rng = random.Random(seed)
    need = {1: per_class, 5: per_class, 8: per_class, 12: per_class}
    out = []
    while any(need.values()):
        d = sign * rng.randrange(lo, hi + 1)
        key = d % 8 if d & 1 else d % 16
        if need.get(key) and is_fundamental(d):
            need[key] -= 1
            out.append(d)
    return out


def _assert_reaches_prime_powers(forms_by_d):
    """Some form leads with an odd p^k, k >= 2, and some with 2^k, k >= 3,
    for d = 1 (mod 8): the kernel's Hensel lifts, odd and 2-adic."""
    odd = two = False
    for d, forms in forms_by_d:
        for f in forms:
            ps = factor(abs(f.a))
            if len(ps) >= 2 and len(set(ps)) == 1:
                odd |= ps[0] > 2
                two |= ps[0] == 2 and len(ps) >= 3 and d % 8 == 1
    assert odd and two


def test_roots_mod_4a_against_brute_force():
    discs = _random_fundamentals_by_class(38, 4, 3, 10**6, -1)
    discs += _random_fundamentals_by_class(39, 4, 5, 10**6, 1)
    for d in discs:
        got = {a: sorted(bs) for a, bs in _roots_mod_4a(d, 150)}
        assert list(got) == sorted(got), d
        for a in range(1, 151):
            roots = [b for b in range(2 * a) if (b * b - d) % (4 * a) == 0]
            assert got.get(a, []) == roots, (d, a)


def test_sqrt_mod_against_brute_force():
    for p in range(3, 2000, 2):
        if any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            continue
        squares = {}
        for x in range(p):
            squares.setdefault(x * x % p, set()).add(x)
        for n in range(p):
            r = _sqrt_mod(n, p)
            if n not in squares:
                assert r is None, (p, n)
            else:
                assert 0 <= r < p and {r, -r % p} == squares[n], (p, n, r)


def test_reduced_definite_forms_match_reference():
    discs = _fundamentals(-20000, -3)
    discs += _random_fundamentals(31, 100, 20001, 3 * 10**6, -1)
    classed = _random_fundamentals_by_class(40, 10, 20001, 3 * 10**6, -1)
    for d in discs + classed:
        assert _reduced_definite_forms(d) == _reference_definite_forms(d), d
    _assert_reaches_prime_powers((d, _reduced_definite_forms(d)) for d in classed)


def test_reduced_indefinite_forms_match_reference():
    discs = _fundamentals(5, 20000)
    discs += _random_fundamentals(32, 100, 20001, 3 * 10**6, 1)
    classed = _random_fundamentals_by_class(41, 10, 20001, 3 * 10**6, 1)
    for d in discs + classed:
        assert _reduced_indefinite_forms(d) == _reference_indefinite_forms(d), d
    _assert_reaches_prime_powers((d, _reduced_indefinite_forms(d)) for d in classed)


# sha256 of the JSON list of [d, reduced forms] below, recorded before the
# a-major kernel replaced the sieve over b.  It pins the kernel near the
# default enumeration bound, where the double-loop references are too slow.
FORMS_NEAR_BOUND_SHA256 = "4502074c2b590150b67435cc5f32fd4b2cb66548da5d3bb4f5e2726dd9348735"


def test_reduced_forms_near_the_bound_pinned():
    neg = _random_fundamentals(35, 20, 9_900_000, 10**7, -1)
    pos = _random_fundamentals(36, 20, 9_900_000, 10**7, 1)
    rows = [[d, [list(f) for f in _reduced_definite_forms(d)]] for d in neg]
    rows += [[d, [list(f) for f in _reduced_indefinite_forms(d)]] for d in pos]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == FORMS_NEAR_BOUND_SHA256


# sha256 of the JSON list of [d, classes, abelian type] below, recorded
# before the square-root sieve replaced the double loop.  It pins the order
# of `classes`, which the cycle representatives and the 2-Sylow walk follow.
CLASS_GROUP_SHA256 = "b7e583763593c0864f169b29ade73e79e08d6d699a53e7bf35bde3e79cb914b8"


def test_class_groups_pinned():
    discs = _random_fundamentals(33, 100, 5, 2 * 10**6, -1)
    discs += _random_fundamentals(34, 100, 5, 2 * 10**6, 1)
    rows = []
    for d in discs:
        g = class_group(d)
        parts = None if g.abelian_type is None else list(g.abelian_type.parts)
        rows.append([d, [list(f) for f in g.classes], parts])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CLASS_GROUP_SHA256
