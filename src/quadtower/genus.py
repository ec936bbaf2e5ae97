"""Genus characters, square 2-torsion, and principality checks in quadratic fields.

Genus characters attach a sign chi_{d_i}(c) to each form class c and each prime
discriminant d_i dividing the field discriminant; the product of all signs on a
class is always +1 (for d > 0 on narrow classes: f and -f may differ).  The
square 2-torsion Cl[2] meets Cl^2 in the ambiguous classes of the principal
genus: a class is its own inverse exactly when its reduced form is ambiguous,
and the classes on which every genus character is +1 are exactly the squares
(Gauss's principal genus theorem; Cox, Primes of the Form x^2 + ny^2, sec. 3),
so no class is composed.  A discriminant is factored into its prime
discriminants once, and each class then costs one value search and one
Kronecker symbol per prime discriminant (_characters), in characters,
chi_eval, square_2torsion and criterion 10's survey alike.  Lemma 1 reads a
real field's wide 2-class number off class_group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import PrimeDiscriminant, kronecker, prime_discriminants
from .errors import (
    BoundExceeded,
    DiscriminantMismatch,
    NotFundamental,
    NotImaginary,
    PreconditionViolated,
)
from .quadforms import (
    DEFAULT_ENUM_BOUND,
    ClassGroup,
    QuadForm,
    _is_ambiguous,
    class_group,
    is_principal,
    prime_form,
    two_part,
)


# Largest |x|, |y| searched for a value coprime to the discriminant.  Class
# representatives with |d| <= 20000 need at most 8.
_VALUE_BOX = 64


def _coprime_positive_value(f: QuadForm, modulus: int) -> int:
    """A positive value of f at coprime (x, y), itself coprime to modulus."""
    box = 2
    while box <= _VALUE_BOX:
        for x in range(-box, box + 1):
            for y in range(-box, box + 1):
                if gcd(x, y) != 1:
                    continue
                v = f.value(x, y)
                if v > 0 and gcd(v, modulus) == 1:
                    return v
        box *= 2
    raise BoundExceeded(
        f"{f} has no positive value coprime to {modulus} for |x|, |y| <= {_VALUE_BOX}"
    )


def _characters(
    d: int, parts: frozenset[PrimeDiscriminant], f: QuadForm
) -> dict[PrimeDiscriminant, int]:
    """The genus characters on the class of f, a form of discriminant d,
    keyed by parts, the prime discriminants of d: kronecker(d_i, v) for one
    represented value v > 0 coprime to d."""
    v = _coprime_positive_value(f, d)
    return {d_i: kronecker(d_i.value, v) for d_i in parts}


def chi_eval(d: int, d_i: PrimeDiscriminant, f: QuadForm) -> int:
    """Genus character chi_{d_i} evaluated on the class of f.

    characters(d, f)[d_i], after refusing a form of another discriminant
    and a d_i that is not a prime discriminant of d, in that order and
    before any value search.
    """
    if f.disc != d:
        raise DiscriminantMismatch(f"form of discriminant {f.disc}, field {d}")
    parts = prime_discriminants(d)
    if d_i not in parts:
        raise NotFundamental(f"{d_i.value} is not a prime discriminant of {d}")
    return _characters(d, parts, f)[d_i]


def characters(d: int, f: QuadForm) -> dict[PrimeDiscriminant, int]:
    """The genus characters chi_{d_i} on the class of f, keyed by each prime
    discriminant d_i of d: kronecker(d_i, v) for one represented value
    v > 0 coprime to d, found by one search; the result does not depend on
    the choice of v.  d is factored on every call; a loop over the classes
    of one d factors it once and calls _characters."""
    if f.disc != d:
        raise DiscriminantMismatch(f"form of discriminant {f.disc}, field {d}")
    return _characters(d, prime_discriminants(d), f)


def square_2torsion(group: ClassGroup) -> list[QuadForm]:
    """Representatives of Cl(d)^2 intersected with Cl(d)[2], for d < 0, in
    the order of group.classes.

    These are the ambiguous classes (Cl[2]) on which every genus character
    is +1 (the principal genus, Cl^2), so no class is composed; d is
    factored into its prime discriminants once for all of them.  A positive
    d raises NotImaginary: its classes are reduced indefinite forms, one
    per wide class, which the ambiguity rule of reduced definite forms does
    not describe.
    """
    d = group.disc
    if d > 0:
        raise NotImaginary(f"square_2torsion needs a negative discriminant, not {d}")
    parts = prime_discriminants(d)
    return [
        f for f in group.classes
        if _is_ambiguous(f) and all(v == 1 for v in _characters(d, parts, f).values())
    ]


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of a principality check in a real quadratic field.

    `ok` is the headline verdict; the remaining fields record what was
    computed so a failure is diagnosable.
    """

    case: int
    discriminant: int
    h2: int
    prime: int
    prime_principal: bool

    @property
    def ok(self) -> bool:
        return self.h2 == 2 and self.prime_principal


def lemma1_check(
    case: int, primes: tuple[int, ...], bound: int = DEFAULT_ENUM_BOUND
) -> Lemma1Report:
    """Check that a designated prime ideal is principal in a real quadratic field.

    Case 1: primes = (q, p) with q = 3 mod 8, p = 1 mod 8, (p/q) = -1;
    the field has discriminant 4qp, h2 = 2, and the prime above 2 is principal.

    Case 2: primes = (p, q, q') with p = 1 mod 4, q, q' = 3 mod 4,
    (p/q) = (p/q') = -1; the field has discriminant pqq', h2 = 2, and the
    prime above p is principal.
    """
    failures: list[str] = []
    if case == 1:
        if len(primes) != 2:
            raise PreconditionViolated("case 1 expects primes (q, p)")
        q, p = primes
        if q % 8 != 3:
            failures.append(f"q = {q} is not 3 mod 8")
        if p % 8 != 1:
            failures.append(f"p = {p} is not 1 mod 8")
        if not failures and kronecker(p, q) != -1:
            failures.append(f"({p}/{q}) is not -1")
        if failures:
            raise PreconditionViolated("; ".join(failures))
        disc = 4 * q * p
        ell = 2
    elif case == 2:
        if len(primes) != 3:
            raise PreconditionViolated("case 2 expects primes (p, q, q')")
        p, q, qp = primes
        if p % 4 != 1:
            failures.append(f"p = {p} is not 1 mod 4")
        for name, val in (("q", q), ("q'", qp)):
            if val % 4 != 3:
                failures.append(f"{name} = {val} is not 3 mod 4")
        if not failures:
            for name, val in (("q", q), ("q'", qp)):
                if kronecker(p, val) != -1:
                    failures.append(f"({p}/{name}={val}) is not -1")
        if failures:
            raise PreconditionViolated("; ".join(failures))
        disc = p * q * qp
        ell = p
    else:
        raise PreconditionViolated(f"case must be 1 or 2, got {case}")
    h2 = two_part(class_group(disc, bound))[0]
    form = prime_form(disc, ell)
    principal = is_principal(disc, form)
    return Lemma1Report(
        case=case,
        discriminant=disc,
        h2=h2,
        prime=ell,
        prime_principal=principal,
    )
