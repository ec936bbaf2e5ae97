"""Class groups, principality tests, and fundamental units via binary quadratic forms.

Negative discriminants get the full class group with composition; positive
discriminants get narrow-class counts and principality via cycles of reduced
indefinite forms under the rho operator.  Everything is exact integer
arithmetic on fundamental discriminants.

Reduced forms of either sign come from one kernel that walks a: a reduced
form (a, b, c) has b^2 = d (mod 4a) with a <= sqrt(|d| / 3) (d < 0) or
a < sqrt(d) (d > 0).  The square roots of d modulo each odd prime up to that
bound (Tonelli-Shanks) are lifted to its powers, and those modulo 2^(k+2)
likewise; a prime power with no root rules out its multiples, and the roots
b modulo 2a of every other a come from the prime-power ones by the Chinese
remainder theorem.  Reduction then keeps one b per class modulo 2a: the one
in (-a, a] (d < 0), or the largest b <= sqrt(d) (d > 0).  The primes,
their least nonresidues and the power of each a's largest prime are
module-level tables that do not depend on d.

The 2-Sylow A of a negative class group is never built.  Its 2-torsion A[2]
is read off the reduced forms, since a class is its own inverse exactly when
its reduced form is ambiguous; only 2A is spanned, by the 2*odd-th powers of
a few classes, and its invariants come from the sizes of the spans of the
2^j-th powers of their generators, read by abelian_type_from_powers, the
kernel that pgroup's abelian quotients share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from .arith import is_fundamental
from .errors import (
    BoundExceeded,
    DiscriminantMismatch,
    InertPrime,
    InvalidArgument,
    NotFundamental,
    SquareDiscriminant,
    StructureMismatch,
)
from . import arith

DEFAULT_ENUM_BOUND = 10**7


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


class QuadForm(NamedTuple):
    """Integral binary quadratic form a x^2 + b x y + c y^2.

    A tuple (a, b, c): equality, ordering and hashing are the tuple's.
    """

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, x: int, p: int, y: int, q: int) -> "QuadForm":
        """Act by the unimodular matrix [[x, p], [y, q]] on the right."""
        if x * q - y * p != 1:
            raise InvalidArgument("matrix is not unimodular")
        a, b, c = self.a, self.b, self.c
        a2 = self.value(x, y)
        c2 = self.value(p, q)
        b2 = 2 * a * x * p + b * (x * q + y * p) + 2 * c * y * q
        return QuadForm(a2, b2, c2)


@dataclass(frozen=True)
class AbelianType:
    """Invariant factors of a finite abelian 2-group, nonincreasing 2-powers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.parts):
            if p < 2 or p & (p - 1):
                raise InvalidArgument(f"part {p} is not a 2-power >= 2")
            if i and self.parts[i - 1] < p:
                raise InvalidArgument("parts must be nonincreasing")

    @classmethod
    def of(cls, *parts: int) -> "AbelianType":
        """Build from factors in any order; trivial factors are dropped."""
        return cls(tuple(sorted((p for p in parts if p != 1), reverse=True)))

    @property
    def order(self) -> int:
        n = 1
        for p in self.parts:
            n *= p
        return n

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def abelian_type_from_counts(counts: list[int]) -> AbelianType:
    """Invariant factors of an abelian 2-group from its power-torsion counts.

    counts[j] = number of elements x with x^(2^j) = identity; counts[0] = 1.
    """
    ranks = [c.bit_length() - 1 for c in counts]
    parts: list[int] = []
    for j in range(1, len(ranks)):
        # Number of invariant factors exactly 2^j.
        exactly = (ranks[j] - ranks[j - 1]) - (
            (ranks[j + 1] - ranks[j]) if j + 1 < len(ranks) else 0
        )
        parts.extend([1 << j] * exactly)
    return AbelianType(tuple(sorted(parts, reverse=True)))


def abelian_type_from_powers(order: int, gens, square, span) -> AbelianType:
    """Invariant factors of the abelian 2-group A of that order spanned by
    `gens`, given square(x) = x^2 and span(xs) = (|<xs>|, the xs that
    enlarged it).  The 2^j-th powers of the gens span 2^j A, and |A| / |2^j A|
    elements are killed by 2^j (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4.3).  Each level squares only the gens the last span
    kept: squaring is a homomorphism of A, so the square of a dropped one
    lies in the span of their squares."""
    counts = [1]
    while counts[-1] < order:
        size, gens = span([square(x) for x in gens])
        counts.append(order // size)
    return abelian_type_from_counts(counts)


@dataclass(frozen=True)
class Unit:
    """Fundamental solution of x^2 - d y^2 = 4 * norm."""

    x: int
    y: int
    norm: int


def principal_form(d: int) -> QuadForm:
    """The principal form of discriminant d: (1, d mod 2, ...) for d < 0,
    (1, b0, ...) with the largest b0 <= sqrt(d) of correct parity for d > 0."""
    if d < 0:
        b = d & 1
    else:
        s = isqrt(d)
        b = s if (s - d) % 2 == 0 else s - 1
    return QuadForm(1, b, (b * b - d) // 4)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def _reduce_definite(d: int, a: int, b: int, c: int) -> QuadForm:
    """The reduced form equivalent to (a, b, c) of discriminant d < 0, with
    -a < b <= a <= c and b >= 0 when a = c (Cohen, Alg. 5.4.2)."""
    if a < 0:
        a, c = -a, -c  # positive definite representative
    while True:
        if b > a or b <= -a:
            a2 = 2 * a
            b += a2 * ((a - b) // a2)  # shift b into (-a, a]
            c = (b * b - d) // (2 * a2)
        if a <= c:
            break
        a, b, c = c, -b, a
    if b < 0 and a == c:
        b = -b
    return QuadForm(a, b, c)


def _is_reduced_indef(d: int, f: QuadForm) -> bool:
    a, b = f.a, f.b
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a)
    return (t + b) ** 2 > d and (t - b) ** 2 < d


def _rho(d: int, f: QuadForm) -> QuadForm:
    """One step of the rho operator, normalizing toward/along the cycle."""
    c = f.c
    ac = abs(c)
    s = isqrt(d)
    r = (-f.b) % (2 * ac)
    if ac > s:
        b2 = r if r <= ac else r - 2 * ac
    else:
        b2 = s - ((s - r) % (2 * ac))
    return QuadForm(c, b2, (b2 * b2 - d) // (4 * c))


def reduce_form(f: QuadForm) -> QuadForm:
    """Gauss reduction: unique reduced form (definite) or a reduced form in
    the cycle of f (indefinite)."""
    d = f.disc
    if d == 0 or (d > 0 and _is_square(d)):
        raise SquareDiscriminant(f"discriminant {d} is zero or a square")
    if d < 0:
        return _reduce_definite(d, *f)
    g = f
    while not _is_reduced_indef(d, g):
        g = _rho(d, g)
    return g


def _cycle(d: int, f: QuadForm) -> list[QuadForm]:
    """The rho-cycle of a reduced indefinite form.  Rho never comes back to
    a form that is not reduced, so one is refused."""
    if not _is_reduced_indef(d, f):
        raise StructureMismatch(f"{f} is not a reduced form of discriminant {d}")
    start = f
    out = [start]
    g = _rho(d, start)
    while g != start:
        out.append(g)
        g = _rho(d, g)
    return out


# ---------------------------------------------------------------------------
# Composition (negative and positive discriminants alike)
# ---------------------------------------------------------------------------

def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition; returns a reduced representative of the product class.

    Direct gcd composition (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 5.4.7) with the form of smaller |a| first.  For d > 0 the
    result is the reduced form that rho-reduction reaches, one form of the
    product's cycle.
    """
    a1, b1, c1 = f
    a2, b2, c2 = g
    d = b1 * b1 - 4 * a1 * c1
    if d != b2 * b2 - 4 * a2 * c2:
        raise DiscriminantMismatch(f"{d} != {g.disc}")
    if abs(a1) > abs(a2):
        a1, b1, a2, b2, c2 = a2, b2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    # e = gcd(a1, a2) with y1*a2 = e (mod a1), then d1 = gcd(s, e) = x2*s - y2*e;
    # the Bezout coefficients are modular inverses.  The product's b3 is
    # unique modulo 2*a3, so any valid choice gives the same form.
    e = gcd(a1, a2)
    y1 = pow(a2 // e, -1, a1 // e)
    if s % e == 0:
        x2, y2, d1 = 0, -1, e
    else:
        d1 = gcd(s, e)
        x2 = pow(s // d1, -1, e // d1)
        y2 = (x2 * s - d1) // e
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (b3 * b3 - d) // (4 * a3)
    if d < 0:
        return _reduce_definite(d, a3, b3, c3)
    return reduce_form(QuadForm(a3, b3, c3))


def form_pow(f: QuadForm, k: int) -> QuadForm:
    """A reduced representative of the class of f^k, by binary powering.

    A reduced definite f is used as it is, so f^1 is f itself; any other
    form is reduced once.  k may be negative or zero.
    """
    a, b, c = f
    d = b * b - 4 * a * c
    if not (d < 0 and -a < b <= a <= c and (b >= 0 or a != c)):
        f = reduce_form(f)
    if k < 0:
        f = reduce_form(QuadForm(f.a, -f.b, f.c))
        k = -k
    if k == 0:
        return reduce_form(principal_form(d))
    result = None
    while True:
        if k & 1:
            result = f if result is None else compose(result, f)
        k >>= 1
        if not k:
            return result
        f = compose(f, f)


# ---------------------------------------------------------------------------
# Class groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassGroup:
    """Form class group of a fundamental discriminant.

    Negative disc: `classes` are the unique reduced representatives and
    composition closes on them.  Positive disc: `classes` are one reduced
    form per narrow class (cycle representatives); no group law exposed.
    """

    disc: int
    classes: tuple[QuadForm, ...]
    abelian_type: AbelianType | None = field(default=None)

    @property
    def h(self) -> int:
        return len(self.classes)


# Tables that depend on no discriminant.  They only grow, with the largest a
# that an enumeration has reached, so |d| <= bound keeps them O(sqrt(bound)).
_PRIMES: list[int] = []  # the odd primes up to len(_PPART) - 1
_PPART: list[int] = [0, 1]  # _PPART[a] = the power of a's largest prime dividing a
_NONRESIDUE: dict[int, int] = {}  # least quadratic nonresidue, per prime p = 1 (mod 4)


def _grow_tables(limit: int) -> None:
    """Extend _PRIMES and _PPART to cover every a <= limit, doubling.  The
    length of _PPART tells what is covered, so it is extended last."""
    if limit < len(_PPART):
        return
    n = max(limit, 2 * len(_PPART))
    primes = []
    ppart = [1] * (n + 1)
    for p in range(2, n + 1):
        if ppart[p] == 1:  # no smaller prime divides p
            primes.append(p)
            q = p
            while q <= n:
                ppart[q::q] = [q] * (n // q)
                q *= p
    _PRIMES[:] = primes[1:]
    _PPART[:] = ppart


def _sqrt_mod(n: int, p: int) -> int | None:
    """A root of x^2 = n (mod p) for an odd prime p, or None when n is a
    nonresidue; 0 when p | n (Tonelli-Shanks, Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.5.1)."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        x = pow(n, (p + 1) // 4, p)
        return x if x * x % p == n else None
    half = (p - 1) // 2
    if pow(n, half, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = _NONRESIDUE.get(p)
    if z is None:
        z = 2
        while pow(z, half, p) != p - 1:
            z += 1
        _NONRESIDUE[p] = z
    y, x, t = pow(z, q, p), pow(n, (q + 1) // 2, p), pow(n, q, p)
    while t != 1:
        # t has order 2^m with m < e; y has order 2^e.
        m, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            m += 1
        s = pow(y, 1 << (e - m - 1), p)
        y = s * s % p
        x = x * s % p
        t = t * y % p
        e = m
    return x


def _roots_mod_4a(d: int, limit: int):
    """For each a <= limit, in increasing order, such that b^2 = d (mod 4a)
    has a root, yield a and its roots b modulo 2a, in [0, 2a).

    For an odd prime power a = p^k the roots are b = +-t (mod p^k) with
    b = d (mod 2), t the Hensel lift of one square root of d modulo p; a
    fundamental d has none modulo p^2 when p | d.  Those for a = 2^k are
    lifted the same way.  A prime power with no root zeroes its multiples
    in `alive`.  Any other a that survives is m q, with q the power of its
    largest prime, and its roots come by the Chinese remainder theorem from
    those for m and for q, which agree modulo 2.
    """
    _grow_tables(limit)
    alive = bytearray([1]) * (limit + 1)
    alive[0] = 0
    found: list = [None] * (limit + 1)
    found[1] = [d & 1]
    if d % 8 == 5:
        alive[2::2] = bytes(limit // 2)
    elif d % 8 == 1:
        q, s = 2, 1  # s^2 = d (mod 4q)
        while q <= limit:
            found[q] = [s % (2 * q), -s % (2 * q)]
            if (s * s - d) % (8 * q):
                s += 2 * q
            q *= 2
    else:  # d = 4D with D = 2, 3 (mod 4): b = 2D (mod 4) for a = 2, none for 4 | a
        if limit >= 2:
            found[2] = [d // 2 % 4]
        alive[4::4] = bytes(limit // 4)
    for p in _PRIMES:
        if p > limit:
            break
        r = _sqrt_mod(d, p)
        if r is None:
            alive[p::p] = bytes(limit // p)
        elif r == 0:
            found[p] = [p * (d & 1)]
            alive[p * p :: p * p] = bytes(limit // (p * p))
        else:
            q = p
            while True:
                b = r if (r - d) & 1 == 0 else q - r
                found[q] = [b, 2 * q - b]
                if q > limit // p:
                    break
                r += q * ((d - r * r) // q * pow(2 * r, -1, p) % p)
                q *= p
    ppart = _PPART
    for a in compress(range(limit + 1), alive):
        bs = found[a]
        if bs is None:
            q = ppart[a]
            m = a // q
            inv = pow(m, -1, q)
            bs = found[a] = [
                b + 2 * m * ((c - b) // 2 * inv % q) for b in found[m] for c in found[q]
            ]
        yield a, bs


def _reduced_definite_forms(d: int) -> list[QuadForm]:
    """Reduced forms of discriminant d < 0, sorted by (a, b).

    A reduced (a, b, c) has -a < b <= a <= c, so 3 a^2 <= -d, and b is the
    root of b^2 = d (mod 4a) in its class modulo 2a that lies in (-a, a];
    it is kept when c > a, or c = a and b >= 0.
    """
    out = []
    for a, bs in _roots_mod_4a(d, isqrt(-d // 3)):
        a2, a4 = 2 * a, 4 * a
        bs = [b - a2 if b > a else b for b in bs]
        bs.sort()
        for b in bs:
            c = (b * b - d) // a4
            if c > a or (c == a and b >= 0):
                out.append(QuadForm(a, b, c))
    return out


def _reduced_indefinite_forms(d: int) -> list[QuadForm]:
    """Reduced forms (+-a, b, -+c) of discriminant d > 0 in order of b, then
    a.  They have 0 < b < sqrt(d) and |2a - b| < sqrt(d) < 2a + b, so
    a < sqrt(d) and b lies in (sqrt(d) - 2a, sqrt(d)): of each class of
    roots of b^2 = d (mod 4a) modulo 2a only the largest b <= isqrt(d) can
    be reduced."""
    s = isqrt(d)
    found = []
    for a, bs in _roots_mod_4a(d, s):
        a2 = 2 * a
        for b in bs:
            b = s - (s - b) % a2
            if (a2 + b) ** 2 > d and (a2 - b) ** 2 < d:  # so b > 0
                found.append((b, a))
    found.sort()
    out = []
    for b, a in found:
        c = (d - b * b) // (4 * a)
        out.append(QuadForm(a, b, -c))
        out.append(QuadForm(-a, b, c))
    return out


def _span(gens, ident: QuadForm, order: int = 0) -> tuple[int, list[QuadForm]]:
    """The order of the subgroup spanned by `gens` (definite classes), and
    the generators that enlarged it.

    Each generator x outside the span H so far extends it by the cosets
    x H, x^2 H, ... up to the first power of x that lies in H; that power
    is tested before its coset is built.  With `order`, no generator is
    drawn once the span has that many elements.
    """
    elems = [ident]
    span = {ident}
    used = []
    for x in gens:
        if x in span:
            continue
        used.append(x)
        rest = elems[1:]
        xk = x
        while xk not in span:
            elems.append(xk)
            elems.extend([compose(xk, y) for y in rest])
            xk = compose(xk, x)
        span = set(elems)
        if len(elems) == order:
            break
    return len(elems), used


def _sylow2_type(classes: list[QuadForm], d: int) -> AbelianType:
    """Invariant factors of the 2-Sylow subgroup A of the class group.

    A class is its own inverse exactly when its reduced form is ambiguous
    (b = 0, b = a or a = c), so the ambiguous forms among `classes` count
    A[2], of order 2^r, with no composition.  Only 2A, of order h2 / 2^r,
    is spanned: the 2*odd-th powers of the other classes with b > 0 (an
    inverse (a, -b, c) spans the same cyclic group, and an ambiguous class
    squares to 1) are walked until their span has that order, and
    abelian_type_from_powers reads 2A's type off the generators it kept.
    A has 2A's parts doubled and r - rank(2A) parts 2.  Raises
    StructureMismatch when `classes` cannot be the whole class group: 2^r
    does not divide h2, the walk spans other than h2 / 2^r elements, or 2A
    has rank above r (as it has when r = 0 < log2 h2).
    """
    h = len(classes)
    h2 = h & -h
    torsion = sum(1 for a, b, c in classes if b == 0 or b == a or a == c)
    if not torsion or h2 % torsion:
        raise StructureMismatch(
            f"the classes of discriminant {d} have {torsion} ambiguous forms,"
            f" which is no 2-torsion of a 2-Sylow of order {h2}"
        )
    r = torsion.bit_length() - 1
    order = h2 // torsion
    if order == 1:
        return AbelianType((2,) * r)
    odd = h // h2
    ident = _reduce_definite(d, *principal_form(d))
    powers = (form_pow(f, 2 * odd) for f in classes if 0 < f.b < f.a < f.c)
    size, gens = _span(powers, ident, order)
    if size != order:
        raise StructureMismatch(
            f"the classes of discriminant {d} span {size} elements"
            f" in place of a 2A of order {order}"
        )
    squares = abelian_type_from_powers(
        order, gens, lambda x: compose(x, x), lambda xs: _span(xs, ident)
    )
    if len(squares.parts) > r:
        raise StructureMismatch(
            f"2A of discriminant {d} has type {squares}, of rank above {r}"
        )
    return AbelianType(tuple(2 * p for p in squares) + (2,) * (r - len(squares.parts)))


def class_group(d: int, bound: int = DEFAULT_ENUM_BOUND) -> ClassGroup:
    """Full class group (negative d) or narrow cycle representatives (positive d)."""
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not a fundamental discriminant")
    if abs(d) > bound:
        raise BoundExceeded(f"|{d}| exceeds enumeration bound {bound}")
    if d < 0:
        classes = _reduced_definite_forms(d)
        return ClassGroup(d, tuple(classes), _sylow2_type(classes, d))
    forms = _reduced_indefinite_forms(d)
    seen: set[QuadForm] = set()
    reps: list[QuadForm] = []
    for f in forms:
        if f in seen:
            continue
        cyc = _cycle(d, f)
        seen.update(cyc)
        reps.append(f)
    return ClassGroup(d, tuple(reps), None)


def two_part(g: ClassGroup) -> tuple[int, AbelianType | None]:
    """(2-part of h, invariant factors of the 2-Sylow for negative disc)."""
    h2 = 1
    hh = g.h
    while hh % 2 == 0:
        hh //= 2
        h2 *= 2
    return h2, g.abelian_type


def prime_form(d: int, ell: int) -> QuadForm:
    """A form (ell, b, c) of discriminant d representing a prime ideal above ell."""
    if arith.kronecker(d, ell) == -1:
        raise InertPrime(f"{ell} is inert in discriminant {d}")
    for b in range(0, 2 * ell + 1):
        if (b - d) % 2 == 0 and (b * b - d) % (4 * ell) == 0:
            return QuadForm(ell, b, (b * b - d) // (4 * ell))
    raise InertPrime(f"no form of discriminant {d} with leading coefficient {ell}")


def is_principal(d: int, f: QuadForm, narrow: bool = True) -> bool:
    """Principality of the class of f: reduce-and-compare for d < 0, principal
    cycle membership (narrow) for d > 0; wide sense adds the (-1, b0, *) cycle."""
    if f.disc != d:
        raise DiscriminantMismatch(f"form discriminant {f.disc} != {d}")
    r = reduce_form(f)
    if d < 0:
        return r == reduce_form(principal_form(d))
    p = reduce_form(principal_form(d))
    cyc = set(_cycle(d, p))
    if r in cyc:
        return True
    if narrow:
        return False
    b0 = p.b
    neg = reduce_form(QuadForm(-1, b0, (d - b0 * b0) // 4))
    return r in set(_cycle(d, neg))


def fundamental_unit(d: int) -> Unit:
    """Minimal unit > 1 of discriminant d as a solution of x^2 - d y^2 = +-4,
    computed from the automorph matrix of the principal cycle."""
    p = reduce_form(principal_form(d))
    # Accumulate the rho-step matrices [[0, -1], [1, s]], s = (b + b') / (2c).
    m11, m12, m21, m22 = 1, 0, 0, 1
    g = p
    while True:
        g2 = _rho(d, g)
        s = (g.b + g2.b) // (2 * g.c)
        m11, m12, m21, m22 = m12, -m11 + s * m12, m22, -m21 + s * m22
        g = g2
        if g == p:
            break
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


def wide_h2(d: int, bound: int = DEFAULT_ENUM_BOUND) -> int:
    """2-part of the ordinary (wide) class number of a real quadratic field."""
    g = class_group(d, bound)
    h2, _ = two_part(g)
    if fundamental_unit(d).norm == 1:
        h2 //= 2
    return max(h2, 1)
