"""Binary quadratic forms: reduction, composition, class groups, units."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from math import fsum, gcd, isqrt, log, pi, sin, sqrt

import pytest

from quadtower import quadforms
from quadtower.arith import factor, is_fundamental, kronecker, prime_discriminants
from quadtower.cli import _jsonable
from quadtower.errors import (
    DiscriminantMismatch,
    InertPrime,
    InvalidArgument,
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
    is_principal,
    prime_form,
    principal_form,
    reduce_form,
    two_part,
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
    assert form_pow(f, 2) == reduce_form(compose(f, f))
    assert form_pow(f, 4) == reduce_form(principal_form(d))
    assert form_pow(f, 1) is f
    assert form_pow(f, 3) == compose(f, compose(f, f)) == QuadForm(3, -2, 6)
    # Only a reduced definite form and k >= 1 are taken.
    moved = f.transform(2, 1, 1, 1)
    assert moved != f and reduce_form(moved) == f
    for form, k in ((f, 0), (f, -1), (moved, 1), (moved, -5), (principal_form(5), 1)):
        with pytest.raises(InvalidArgument):
            form_pow(form, k)


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


def test_principal_form_is_reduced():
    # principal_form builds a reduced form for every non-square
    # discriminant, so callers use it without reduce_form.
    count = 0
    for d in range(-20000, 20001):
        if d % 4 > 1 or (d >= 0 and isqrt(d) ** 2 == d):
            continue
        f = principal_form(d)
        assert f.disc == d and reduce_form(f) == f, d
        count += 1
    assert count == 19859


@dataclass(frozen=True)
class Unit:
    """Fundamental solution of x^2 - d y^2 = 4 * norm."""

    x: int
    y: int
    norm: int


def fundamental_unit(d):
    """Minimal unit > 1 of a discriminant d > 0 as a solution of
    x^2 - d y^2 = +-4, computed from the automorph matrix of the principal
    cycle: the reference the real class number tests read."""
    cycle = _cycle(d, principal_form(d))
    # Accumulate the rho-step matrices [[0, -1], [1, s]], s = (b + b') / (2c).
    m11, m12, m21, m22 = 1, 0, 0, 1
    for (_, b, c), (_, b2, _) in zip(cycle, cycle[1:] + cycle[:1]):
        s = (b + b2) // (2 * c)
        m11, m12, m21, m22 = m12, -m11 + s * m12, m22, -m21 + s * m22
    t = abs(m11 + m22)
    u = abs(m21)
    if t * t - d * u * u != 4:
        raise StructureMismatch(f"automorph trace {t} of discriminant {d} gives no unit")
    x = isqrt(t - 2) if t >= 2 else 0
    if x > 0 and x * x == t - 2 and u % x == 0:
        y = u // x
        if x * x - d * y * y == -4:
            return Unit(x, y, -1)
    return Unit(t, u, 1)


def test_fundamental_units():
    # (d, t, u, norm) with t^2 - d u^2 = 4 * norm.
    cases = [(5, 1, 1, -1), (8, 2, 1, -1), (12, 4, 1, 1), (17, 8, 2, -1)]
    for d, t, u, norm in cases:
        unit = fundamental_unit(d)
        assert (unit.x, unit.y, unit.norm) == (t, u, norm), d
        assert unit.x**2 - d * unit.y**2 == 4 * norm


def test_wide_h2():
    # The wide 2-class number: the narrow one (1, 4, 4, 2, 4) halved where
    # the unit norm is +1.
    for d, h2 in ((8, 1), (204, 2), (561, 2), (12, 1), (136, 2)):
        assert two_part(class_group(d))[0] == h2, d
    assert fundamental_unit(204).norm == 1
    assert fundamental_unit(561).norm == 1


def test_square_discriminant_refused():
    # d = 1 is fundamental but square: its class number would read 0.
    with pytest.raises(SquareDiscriminant):
        class_group(1)


def test_is_principal_narrow_vs_wide():
    # d = 12 has unit norm +1: the (-1)-form is wide-principal only.
    d = 12
    f = QuadForm(-1, 2, 2)
    assert f.disc == d
    assert is_principal(d, f)


def _negated(f):
    return QuadForm(-f.a, f.b, -f.c)


def _narrow_classes(d, classes):
    """One reduced form per narrow class, from class_group's one per wide
    class: f, and -f when it is not on f's cycle."""
    out = []
    for f in classes:
        out.append(f)
        if _negated(f) not in _cycle(d, f):
            out.append(_negated(f))
    return out


def test_indefinite_narrow_class_count():
    # h+(d) for a few real quadratic fields (narrow class numbers).
    expected = {5: 1, 8: 1, 12: 2, 204: 4, 561: 4, 136: 4}
    for d, h in expected.items():
        assert len(_narrow_classes(d, class_group(d).classes)) == h, d


def _reference_cycles(d):
    """The rho cycles that the reduced forms of _reference_indefinite_forms
    fall into, each from its first form in that enumeration, in order of
    those first forms.  Rho on a reduced form (a, b, c) is (c, b', *) with
    b' = -b (mod 2c) and sqrt(d) - 2|c| < b' < sqrt(d)."""
    s = isqrt(d)
    forms = _reference_indefinite_forms(d)
    cycles = []
    seen = set()
    for start in forms:
        if start in seen:
            continue
        cycle = [start]
        f = start
        while True:
            m = 2 * abs(f.c)
            b = s - (s + f.b) % m
            f = QuadForm(f.c, b, (b * b - d) // (4 * f.c))
            if f == start:
                break
            cycle.append(f)
        seen.update(cycle)
        cycles.append(cycle)
    # Rho permutes the reduced forms: the cycles share no form and meet no
    # other.
    assert len(seen) == sum(map(len, cycles)) == len(forms), d
    return cycles


def _reference_narrow_count(d):
    """h+(d): the number of rho cycles of reduced forms."""
    return len(_reference_cycles(d))


def test_real_class_number_is_the_narrow_one_halved_by_a_norm_one_unit():
    halved = 0
    for d in _fundamentals(5, 5000):
        narrow = _reference_narrow_count(d)
        if fundamental_unit(d).norm == 1:
            narrow //= 2
            halved += 1
        assert class_group(d).h == narrow, d
    assert halved, "no d with a unit of norm +1"


def test_real_class_group_starts_walks_below_half_the_root():
    # Rho leads the step after (a, b, c) with c, and 4|a||c| = d - b^2 < d,
    # so every cycle holds a form with 2|a| <= isqrt(d); by Markov, Hurwitz
    # and Lagrange every cycle even holds one with 5a^2 <= d.  class_group
    # walks only from those, and must still keep what the rule over every
    # reduced form keeps: the first form not yet seen, its cycle and the
    # negated cycle marked seen.
    missed = []
    for d in _fundamentals(5, 20000):
        s = isqrt(d)
        cycles = _reference_cycles(d)
        for cycle in cycles:
            assert any(2 * abs(f.a) <= s for f in cycle), (d, cycle)
            assert any(5 * f.a * f.a <= d for f in cycle), (d, cycle)
            if not any(abs(f.a) <= s // 2 - 1 for f in cycle):
                missed.append(d)
        seen = set()
        reps = []
        for cycle in cycles:
            if cycle[0] in seen:
                continue
            reps.append(cycle[0])
            seen.update(cycle)
            seen.update(_negated(f) for f in cycle)
        assert class_group(d).classes == tuple(reps), d
    # The limit isqrt(d) // 2 - 1 would miss 5 cycles here.
    assert missed == [5, 8, 12, 12, 13], missed


def test_real_class_numbers_match_the_analytic_formula():
    # Dirichlet's class number formula for a fundamental d > 0,
    # h log(eps) = -sum over 1 <= a < d/2 of (d/a) log sin(pi a / d),
    # checks class_group's h and fundamental_unit's eps = (x + y sqrt(d)) / 2
    # by a method that uses no form.
    for d in _fundamentals(5, 3000):
        unit = fundamental_unit(d)
        log_eps = log((unit.x + unit.y * sqrt(d)) / 2)
        hlog = -fsum(kronecker(d, a) * log(sin(pi * a / d)) for a in range(1, (d + 1) // 2))
        assert abs(hlog / log_eps - class_group(d).h) < 0.25, d


def test_real_class_group_walks_one_cycle_per_wide_class(monkeypatch):
    walks = []
    real = quadforms._cycle

    def counting(d, f):
        walks.append(f)
        return real(d, f)

    monkeypatch.setattr(quadforms, "_cycle", counting)
    for d, h in ((204, 2), (561, 2), (5, 1), (136, 2)):
        walks.clear()
        assert class_group(d).h == h, d
        assert len(walks) == h, (d, walks)


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
    # f and -f: both narrow classes of each wide class.
    for d in _fundamentals(5, 3000):
        classes = [g for f in class_group(d).classes for g in (f, _negated(f))]
        for f in classes:
            for g in classes:
                h = compose(f, g)
                assert _is_reduced_indef(d, h)
                assert h in _cycle(d, _dirichlet_compose(f, g)), (d, f, g)


def test_is_principal_against_both_cycle_walks():
    # The reference walks the principal cycle and the (-1, b0, *) cycle;
    # is_principal walks the first and looks up each form and its negative.
    verdicts = Counter()
    for d in _fundamentals(5, 3000):
        p = reduce_form(principal_form(d))
        b0 = p.b
        neg = reduce_form(QuadForm(-1, b0, (d - b0 * b0) // 4))
        wide = set(_cycle(d, p)) | set(_cycle(d, neg))
        for f in _reduced_indefinite_forms(d, isqrt(d)):
            assert is_principal(d, QuadForm(*f)) == (f in wide), (d, f)
            verdicts[f in wide] += 1
    assert verdicts[True] and verdicts[False], verdicts


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


def test_compose_is_symmetric_on_every_pair():
    # Criterion 10 composes a pair of classes whose |a| differ in one order
    # only and reads the other order off the transposed table entry; both
    # orders must give the same class on every ordered pair.
    pairs = 0
    for d in range(-3, -3001, -1):
        if not is_fundamental(d):
            continue
        classes = class_group(d).classes
        table = [[compose(f, g) for g in classes] for f in classes]
        assert table == [list(column) for column in zip(*table)], d
        pairs += len(table) ** 2
    assert pairs == 402_948


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


def test_definite_kernels_build_quadforms():
    # The definite kernels build forms with tuple.__new__; a plain tuple
    # would compare equal to the QuadForm but print as (a, b, c) in text.
    d = -2244
    classes = class_group(d).classes
    f, g = classes[1], classes[-1]
    built = [*classes, compose(f, g), compose(g, f), form_pow(f, 5),
             reduce_form(QuadForm(15, 49, 41)), reduce_form(QuadForm(-3, 2, -5))]
    assert [type(x) for x in built] == [QuadForm] * len(built)
    assert repr(reduce_form(QuadForm(15, 49, 41))) == "QuadForm(a=3, b=-1, c=5)"


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
            ps = factor(abs(f[0]))
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
        s = isqrt(d)
        reference = _reference_indefinite_forms(d)
        assert _reduced_indefinite_forms(d, s) == reference, d
        small = [f for f in reference if 2 * abs(f.a) <= s]
        assert _reduced_indefinite_forms(d, s // 2) == small, d
    _assert_reaches_prime_powers((d, _reduced_indefinite_forms(d, isqrt(d))) for d in classed)


# sha256 of the JSON list of [d, reduced forms] below, recorded before the
# a-major kernel replaced the sieve over b.  It pins the kernel near the
# default enumeration bound, where the double-loop references are too slow.
FORMS_NEAR_BOUND_SHA256 = "4502074c2b590150b67435cc5f32fd4b2cb66548da5d3bb4f5e2726dd9348735"


def test_reduced_forms_near_the_bound_pinned():
    neg = _random_fundamentals(35, 20, 9_900_000, 10**7, -1)
    pos = _random_fundamentals(36, 20, 9_900_000, 10**7, 1)
    rows = [[d, [list(f) for f in _reduced_definite_forms(d)]] for d in neg]
    rows += [[d, [list(f) for f in _reduced_indefinite_forms(d, isqrt(d))]] for d in pos]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == FORMS_NEAR_BOUND_SHA256


# sha256 of the JSON list of [d, classes, abelian type] below, recorded
# before the square-root sieve replaced the double loop, when a positive d
# kept one form per narrow class.  It pins the order of `classes`, which the
# cycle representatives and the 2-Sylow walk follow; a positive d's wide
# classes are expanded to the narrow list that was hashed.
CLASS_GROUP_SHA256 = "b7e583763593c0864f169b29ade73e79e08d6d699a53e7bf35bde3e79cb914b8"


# sha256 of the JSON list of [d, classes] below, recorded before class_group
# started its walks only from the forms with 2|a| <= isqrt(d).
REAL_CLASS_GROUPS_NEAR_BOUND_SHA256 = (
    "96ad1e2ba868e27696edfb22b85d832b7ef947ca082270775933e80b521c6343"
)


def test_real_class_groups_near_the_bound_pinned():
    discs = _random_fundamentals(37, 20, 9_900_000, 10**7, 1)
    rows = [[d, [list(f) for f in class_group(d).classes]] for d in discs]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == REAL_CLASS_GROUPS_NEAR_BOUND_SHA256


def test_class_groups_pinned():
    discs = _random_fundamentals(33, 100, 5, 2 * 10**6, -1)
    discs += _random_fundamentals(34, 100, 5, 2 * 10**6, 1)
    rows = []
    for d in discs:
        g = class_group(d)
        parts = None if g.abelian_type is None else list(g.abelian_type.parts)
        classes = g.classes if d < 0 else _narrow_classes(d, g.classes)
        rows.append([d, [list(f) for f in classes], parts])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CLASS_GROUP_SHA256
