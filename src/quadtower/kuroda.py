"""Kuroda's class number formula and the seven-extension prediction table.

The formula expresses the 2-class number of a multiquadratic field through the
2-class numbers of its quadratic subfields and a unit index q.  The pipeline
needs one instance: a V4 field over Q containing an imaginary quadratic field,
with three quadratic subfields.  The unit indices are pinned inputs, not
computed from unit groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InvalidParams, NonIntegralResult


def _is_2power(x: int) -> bool:
    return x >= 1 and x & (x - 1) == 0


def kuroda_h2(subfield_h2: list[int] | tuple[int, ...], q_index: int) -> int:
    """Kuroda's formula for a complex V4 field over Q: q_index times the
    product of the three quadratic-subfield 2-class numbers, over 2.

    All inputs must be powers of 2 and the result must again be a positive
    power of 2; anything else signals inconsistent wiring.
    """
    if len(subfield_h2) != 3:
        raise InvalidParams(f"need 3 subfield values, got {len(subfield_h2)}")
    for x in (*subfield_h2, q_index):
        if not _is_2power(x):
            raise NonIntegralResult(f"input {x} is not a positive 2-power")
    num = q_index * prod(subfield_h2)
    if num % 2 != 0:
        raise NonIntegralResult(f"{num}/2 is not integral")
    result = num // 2
    if not _is_2power(result):
        raise NonIntegralResult(f"result {result} is not a positive 2-power")
    return result


@dataclass(frozen=True)
class Table1Row:
    """Predicted data for one of the seven quadratic extensions k_j of k."""

    j: int
    kappa_order: int
    h2: int
    kappa_generators: tuple[str, ...]


# Per extension j: the capitulation kernel order and its generators as
# ideal-class labels such as "[2]" and "[p]".  The k_j are k(sqrt(-p)),
# k(sqrt(p)), k(sqrt(-1)), k(sqrt(-q)), k(sqrt(-q')), k(sqrt(q)) and
# k(sqrt(q')).
_TABLE1_STATIC = (
    (1, 4, ("[p]", "[q]")),
    (2, 2, ("[p]",)),
    (3, 4, ("[2]", "[p]")),
    (4, 4, ("[2]", "[q]")),
    (5, 4, ("[2]", "[pq]")),
    (6, 4, ("[2]", "[q]")),
    (7, 4, ("[2]", "[pq]")),
)


def table1_predictions(n: int, mu: int) -> tuple[Table1Row, ...]:
    """The seven-row prediction table for the quadratic extensions of k.

    Each h2 value is produced by Kuroda's formula on the V4 field k_j/Q with
    unit index q = 1 (k_j/k is unramified over a complex quadratic base) and
    genus-theoretic subfield class numbers; h2(k) itself is 2^(n+2).
    """
    if n < 2 or mu < 2:
        raise InvalidParams(f"need n, mu >= 2, got ({n}, {mu})")
    h2_k = 1 << (n + 2)
    # 2-class numbers of the other two quadratic subfields of each k_j, in
    # the order of subfield_discriminants, by genus theory: h2(-4p) = 2^mu
    # (the one value not forced), h2(-4qq') = 4, 2 for the five
    # discriminants divisible by p and by q or q', and 1 for -4, p, qq' and
    # the discriminants of Q(sqrt(+-q)) and Q(sqrt(+-q')).
    subfield_h2 = [(1 << mu, 1), (1, 4)] + [(1, 2)] * 5
    return tuple(
        Table1Row(
            j=j,
            kappa_order=kappa_n,
            h2=kuroda_h2([h2_k, h2_a, h2_b], q_index=1),
            kappa_generators=kappa_gens,
        )
        for (j, kappa_n, kappa_gens), (h2_a, h2_b) in zip(_TABLE1_STATIC, subfield_h2)
    )


def subfield_discriminants(p: int, q: int, qprime: int) -> dict[int, tuple[int, int, int]]:
    """Fundamental discriminants of the three quadratic subfields of each k_j/Q.

    Requires p = 1 mod 4 and q, q' = 3 mod 4 (so each listed product lands in
    the right residue class for the stated discriminant).
    """
    if p % 4 != 1 or q % 4 != 3 or qprime % 4 != 3:
        raise InvalidParams("need p = 1 mod 4 and q, q' = 3 mod 4")
    d_k = -4 * p * q * qprime
    return {
        1: (d_k, -4 * p, q * qprime),
        2: (d_k, p, -4 * q * qprime),
        3: (d_k, -4, p * q * qprime),
        4: (d_k, -q, 4 * p * qprime),
        5: (d_k, -qprime, 4 * p * q),
        6: (d_k, 4 * q, -p * qprime),
        7: (d_k, 4 * qprime, -p * q),
    }


def genus_field_h2(n: int, mu: int) -> int:
    """Order of the 2-class group of the genus field: 2^(n+mu).

    Equals (1/4) * h2(k) * h2(-p) = (1/4) * 2^(n+2) * 2^mu.
    """
    if n < 2 or mu < 2:
        raise InvalidParams(f"need n, mu >= 2, got ({n}, {mu})")
    return (1 << (n + 2)) * (1 << mu) // 4
