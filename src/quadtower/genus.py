"""Genus characters, square 2-torsion, and principality checks in quadratic fields.

Genus characters attach a sign chi_{d_i}(c) to each form class c and each prime
discriminant d_i dividing the field discriminant; the product of all signs on a
class is always +1.  The square-torsion computation identifies the unique
2-torsion class that is a square, directly from the explicit class group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import PrimeDiscriminant, kronecker, prime_discriminants
from .errors import (
    BoundExceeded,
    DiscriminantMismatch,
    NotFundamental,
    PreconditionViolated,
)
from .quadforms import (
    DEFAULT_ENUM_BOUND,
    ClassGroup,
    QuadForm,
    compose,
    is_principal,
    prime_form,
    principal_form,
    reduce_form,
    wide_h2,
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


def chi_eval(d: int, d_i: PrimeDiscriminant, f: QuadForm) -> int:
    """Genus character chi_{d_i} evaluated on the class of f.

    Returns kronecker(d_i, v) for a represented value v > 0 coprime to d;
    the result does not depend on the choice of v.
    """
    if f.disc != d:
        raise DiscriminantMismatch(f"form of discriminant {f.disc}, field {d}")
    if d_i not in prime_discriminants(d):
        raise NotFundamental(f"{d_i.value} is not a prime discriminant of {d}")
    v = _coprime_positive_value(f, d)
    return kronecker(d_i.value, v)


def characters(d: int, f: QuadForm) -> dict[PrimeDiscriminant, int]:
    """chi_eval(d, d_i, f) for every prime discriminant d_i of d, keyed by
    d_i, from one value search."""
    if f.disc != d:
        raise DiscriminantMismatch(f"form of discriminant {f.disc}, field {d}")
    v = _coprime_positive_value(f, d)
    return {d_i: kronecker(d_i.value, v) for d_i in prime_discriminants(d)}


def square_2torsion(group: ClassGroup) -> list[QuadForm]:
    """Representatives of Cl(d)^2 intersected with Cl(d)[2], for d < 0.

    Computed directly from the explicit class group: the set of squares of all
    classes intersected with the set of classes of order dividing 2.
    """
    one = reduce_form(principal_form(group.disc))
    squared = [compose(f, f) for f in group.classes]
    torsion = {f for f, f2 in zip(group.classes, squared) if f2 == one}
    return sorted(torsion.intersection(squared))


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
    h2 = wide_h2(disc, bound)
    form = prime_form(disc, ell)
    principal = is_principal(disc, form)
    return Lemma1Report(
        case=case,
        discriminant=disc,
        h2=h2,
        prime=ell,
        prime_principal=principal,
    )
