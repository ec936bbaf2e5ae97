"""Exact integer utilities: Kronecker symbols, factorization, prime discriminants."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundExceeded, InvalidArgument, NotFundamental

DEFAULT_FACTOR_BOUND = 1 << 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first k primes as witnesses is deterministic below
# the least strong pseudoprime to all of them (Jaeschke, Math. Comp. 61,
# 1993): 3,215,031,751 for k = 4, 2,152,302,898,747 for k = 5, which lies
# above DEFAULT_FACTOR_BOUND, and about 3.3 * 10^24 for all 13 (Sorenson
# and Webster, Math. Comp. 86, 2017).
_MR_RANGES = ((3_215_031_751, 4), (2_152_302_898_747, 5))


def is_prime(n: int) -> bool:
    """Deterministic primality test for n within the toolkit's working range."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    witnesses = _SMALL_PRIMES
    for limit, k in _MR_RANGES:
        if n < limit:
            witnesses = _SMALL_PRIMES[:k]
            break
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers by the standard extension."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # Factor out powers of 2 from n.
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a/n) for odd n > 0 by quadratic reciprocity.
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def check_factorable(n: int) -> None:
    """Raise what factor(n) raises for an n outside [1, DEFAULT_FACTOR_BOUND]."""
    if n < 1:
        raise InvalidArgument(f"factor requires n >= 1, got {n}")
    if n > DEFAULT_FACTOR_BOUND:
        raise BoundExceeded(f"{n} exceeds factoring bound {DEFAULT_FACTOR_BOUND}")


def factor(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, sorted; trial division."""
    check_factorable(n)
    out: list[int] = []
    for p in (2, 3):
        while n % p == 0:
            out.append(p)
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out.append(p)
                n //= p
        f += 6
    if n > 1:
        out.append(n)
    return out


def squarefree(n: int) -> bool:
    if n < 0:
        n = -n
    fs = factor(n)
    return len(set(fs)) == len(fs)


def is_fundamental(d: int) -> bool:
    """True iff d is a fundamental discriminant (including d = 1)."""
    if d == 0:
        return False
    if d % 4 == 1 or d % 4 == -3:
        return squarefree(d)
    if d % 16 in (8, 12):
        return squarefree(d // 4)
    return False


@dataclass(frozen=True, order=True)
class PrimeDiscriminant:
    """A fundamental discriminant divisible by exactly one prime."""

    value: int

    def __post_init__(self) -> None:
        v = self.value
        ok = v in (-4, 8, -8) or (
            is_fundamental(v) and abs(v) % 2 == 1 and is_prime(abs(v))
        )
        if not ok:
            raise NotFundamental(f"{v} is not a prime discriminant")

    @property
    def prime(self) -> int:
        return 2 if self.value in (-4, 8, -8) else abs(self.value)


def odd_prime_discriminant(p: int) -> PrimeDiscriminant:
    """p* = (-1)^((p-1)/2) p for an odd prime p."""
    return PrimeDiscriminant(p if p % 4 == 1 else -p)


def prime_discriminants(d: int) -> frozenset[PrimeDiscriminant]:
    """Unique factorization of a fundamental discriminant into prime discriminants."""
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not a fundamental discriminant")
    if d == 1:
        return frozenset()
    parts: list[PrimeDiscriminant] = []
    rest = d
    for p in sorted(set(factor(abs(d)))):
        if p == 2:
            continue
        pd = odd_prime_discriminant(p)
        parts.append(pd)
        rest //= pd.value
    if rest != 1:
        parts.append(PrimeDiscriminant(rest))
    return frozenset(parts)
