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
    label: str
    kappa_order: int
    h2: int
    kappa_generators: tuple[str, ...]


# Per extension j: (label, capitulation kernel order, and the generators of
# the capitulation kernel as ideal-class labels such as "[2]" and "[p]").
_TABLE1_STATIC = (
    (1, "k(sqrt(-p))", 4, ("[p]", "[q]")),
    (2, "k(sqrt(p))", 2, ("[p]",)),
    (3, "k(sqrt(-1))", 4, ("[2]", "[p]")),
    (4, "k(sqrt(-q))", 4, ("[2]", "[q]")),
    (5, "k(sqrt(-q'))", 4, ("[2]", "[pq]")),
    (6, "k(sqrt(q))", 4, ("[2]", "[q]")),
    (7, "k(sqrt(q'))", 4, ("[2]", "[pq]")),
)

# 2-class numbers of the quadratic subfields of the k_j over Q, by genus
# theory for the discriminant shapes at hand: m = 1 mod 8 prime gives
# h2(-4m) = 2^mu (the one non-forced value); products of two primes from
# {p} x {q, q'} give 2; -qq' gives 4; qq', q, q', p, pqq' variants as below.
def _subfield_h2_symbols(j: int) -> tuple[str, str]:
    return {
        1: ("h2(-p)", "h2(qq')"),
        2: ("h2(p)", "h2(-qq')"),
        3: ("h2(-1)", "h2(pqq')"),
        4: ("h2(-q)", "h2(pq')"),
        5: ("h2(-q')", "h2(pq)"),
        6: ("h2(q)", "h2(-pq')"),
        7: ("h2(q')", "h2(-pq)"),
    }[j]


def _pinned_h2(symbol: str, mu: int) -> int:
    """Genus-theoretic 2-class numbers for the subfield discriminant shapes."""
    return {
        "h2(-p)": 1 << mu,
        "h2(qq')": 1,
        "h2(p)": 1,
        "h2(-qq')": 4,
        "h2(-1)": 1,
        "h2(pqq')": 2,
        "h2(-q)": 1,
        "h2(pq')": 2,
        "h2(-q')": 1,
        "h2(pq)": 2,
        "h2(q)": 1,
        "h2(-pq')": 2,
        "h2(q')": 1,
        "h2(-pq)": 2,
    }[symbol]


def table1_predictions(n: int, mu: int) -> tuple[Table1Row, ...]:
    """The seven-row prediction table for the quadratic extensions of k.

    Each h2 value is produced by Kuroda's formula on the V4 field k_j/Q with
    unit index q = 1 (k_j/k is unramified over a complex quadratic base) and
    genus-theoretic subfield class numbers; h2(k) itself is 2^(n+2).
    """
    if n < 2 or mu < 2:
        raise InvalidParams(f"need n, mu >= 2, got ({n}, {mu})")
    h2_k = 1 << (n + 2)
    rows = []
    for j, label, kappa_n, kappa_gens in _TABLE1_STATIC:
        s1, s2 = _subfield_h2_symbols(j)
        h2 = kuroda_h2([h2_k, _pinned_h2(s1, mu), _pinned_h2(s2, mu)], q_index=1)
        rows.append(
            Table1Row(
                j=j,
                label=label,
                kappa_order=kappa_n,
                h2=h2,
                kappa_generators=kappa_gens,
            )
        )
    return tuple(rows)


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
    num = (1 << (n + 2)) * (1 << mu)
    if num % 4 != 0:
        raise NonIntegralResult(f"{num}/4 is not integral")
    return num // 4
