"""Acceptance gate: the ten verification criteria, one test per criterion.

Each test prints a single ``criterion N (anchor): PASS|FAIL`` line and fails
with the list of mismatching checks if the criterion does not hold.  A final
strictly-xfailing test records the one claim that is genuinely unattainable:
separating the two order-64 quotients at m = 3 (they are isomorphic).
"""

import hashlib
import json
import random
import types

import pytest

from quadtower import pgroup, verify
from quadtower.arith import is_fundamental
from quadtower.quadforms import QuadForm
from quadtower.pgroup import (
    distinguish,
    gamma,
    lower_central_series,
    quotient_group,
    whole_group,
)
from quadtower.verify import (
    criterion_capitulation,
    criterion_crosschecks,
    criterion_field_tables,
    criterion_intermediate_fields,
    criterion_lower_central,
    criterion_oracles,
    criterion_real_family,
    criterion_realization,
    criterion_separation,
    criterion_tables,
)


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number} ({result.anchor}): {status}")
    failures = [
        f"{c.name}: expected {c.expected!r}, computed {c.computed!r}"
        for c in result.failures
    ]
    assert result.passed, failures


def test_criterion_1_realization():
    _report(criterion_realization())


def test_criterion_2_lower_central():
    _report(criterion_lower_central())


def test_criterion_3_tables():
    _report(criterion_tables())


def test_criterion_4_capitulation():
    _report(criterion_capitulation())


def test_criterion_5_intermediate_fields():
    _report(criterion_intermediate_fields())


def test_criterion_6_separation():
    _report(criterion_separation())


def test_criterion_7_real_family():
    _report(criterion_real_family())


def test_criterion_8_field_tables():
    _report(criterion_field_tables(bound=2 * 10**6))


def test_criterion_9_crosschecks():
    _report(criterion_crosschecks())


def test_criterion_10_oracles():
    _report(criterion_oracles())


# sha256 of the JSON list of [name, passed] over every check of criteria 1-9,
# in order: verify's JSON output shows only counts and failures, so this pins
# which checks run.
CRITERIA_1_TO_9_SHA256 = "60c99795b84e67d18c3c2ca3ac3fcb633314ba3e21c53b06d1a5cd7c0fc21d6b"


def test_criteria_1_to_9_check_lists_pinned():
    results = [
        criterion_realization(),
        criterion_lower_central(),
        criterion_tables(),
        criterion_capitulation(),
        criterion_intermediate_fields(),
        criterion_separation(),
        criterion_real_family(),
        criterion_field_tables(bound=2 * 10**6),
        criterion_crosschecks(),
    ]
    pairs = [(c.name, c.passed) for r in results for c in r.checks]
    assert len(pairs) == 614
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == CRITERIA_1_TO_9_SHA256


def test_criterion_tables_derived_subgroup_calls(monkeypatch):
    # Per group: G' and H_1'..H_7' once, which the transfer-kernel pass
    # reads off the same Subgroups; 8 over each of the four groups.
    calls = []
    real = pgroup.derived_subgroup

    def counting(h):
        calls.append(h.elements)
        return real(h)

    monkeypatch.setattr(pgroup, "derived_subgroup", counting)
    assert criterion_tables().passed
    assert len(calls) <= 32


def test_criterion_oracles_builds_each_class_group_once(monkeypatch):
    # The genus survey reads the class groups the axioms loop has built; only
    # its extra discriminants outside [-800, -3] are built for it.
    built = []
    real = verify.class_group

    def recording(d, *args, **kwargs):
        built.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(verify, "class_group", recording)
    result = criterion_oracles(grid=1, disc_limit=800, character_limit=300)
    assert result.passed
    fundamental = [d for d in range(-3, -801, -1) if is_fundamental(d)]
    assert sorted(built) == sorted(fundamental + [-2244, -2580, -5412, 204, 561])


# sha256 of the JSON of [checks, draws] for the bench-size call
# criterion_oracles(grid=1, disc_limit=800, character_limit=300, seed=s):
# every check as [name, computed, passed], then every value that rng.choice
# (the associativity triples of the class groups) and rng.choices (the
# presentation samples) returned, in call order.  Taken with the per-product
# compose and g.mul loops, before the checks read index tables.
ORACLE_BENCH_SHA256 = {
    0: "8c6a6e1eff9df6cc0c6336b2857f91488c6fd027703a092b9f332e3c1fde4e64",
    1: "b09fa72fcae4812542f2cc5eca636cd1e058139153e4f7005b9c14ea8491d16b",
    2: "8af368d12629577745b855b81703ecf83fb71a938f97b60377ffbfa62d559aa5",
    3: "864e0edea80ae11d64ca59d9d74be66054a8b554d080b2a0f921d9a0ee9fd845",
    4: "59abdafdc7914ac36fe48ce8cfac002557a1c64626d2c5f460f2dd637bc315ed",
}


@pytest.mark.parametrize("seed", sorted(ORACLE_BENCH_SHA256))
def test_criterion_oracles_bench_call_draws_pinned(monkeypatch, seed):
    draws = []

    class Recording(random.Random):
        def choice(self, seq):
            draws.append(super().choice(seq))
            return draws[-1]

        def choices(self, population, weights=None, *, cum_weights=None, k=1):
            draws.append(super().choices(population, weights, cum_weights=cum_weights, k=k))
            return draws[-1]

    for module in (pgroup, verify):
        monkeypatch.setattr(module, "random", types.SimpleNamespace(Random=Recording))
    result = criterion_oracles(grid=1, disc_limit=800, character_limit=300, seed=seed)
    assert [c.name for c in result.checks] == [
        "presentation-4r(2)", "presentation-4r(3)", "presentation-4r(4)",
        "composition-group-axioms", "genus-character-product",
    ]
    assert result.passed
    checks = [[c.name, c.computed, c.passed] for c in result.checks]
    digest = hashlib.sha256(json.dumps([checks, draws]).encode()).hexdigest()
    assert digest == ORACLE_BENCH_SHA256[seed]


def _axiom_failures(monkeypatch, fault):
    """The composition-group-axioms failures at disc_limit=300 with
    verify.compose replaced by fault(real, f, g)."""
    real = verify.compose
    monkeypatch.setattr(verify, "compose", lambda f, g: fault(real, f, g))
    result = criterion_oracles(grid=1, disc_limit=300, character_limit=100)
    (check,) = [c for c in result.checks if c.name == "composition-group-axioms"]
    assert not check.passed and [c.name for c in result.failures] == [check.name]
    return check.computed


def test_criterion_oracles_sees_a_product_outside_the_classes(monkeypatch):
    # The square of a class, when it is not principal, becomes an unreduced
    # form; the inverse check, whose products are principal, is untouched.
    # On a d that is not closed the drawn triples go through the same
    # compose, so they can fail too.
    def leak(real, f, g):
        p = real(f, g)
        if f == g and p.a != 1:
            a, b, c = p
            return QuadForm(a, b + 2 * a, a + b + c)
        return p

    failures = _axiom_failures(monkeypatch, leak)
    assert failures[0] == (
        "-23: not closed at QuadForm(a=2, b=-1, c=3)*QuadForm(a=2, b=-1, c=3)"
    )
    assert all(" not closed at " in x or x.endswith(": associativity fails")
               for x in failures)


def test_criterion_oracles_sees_a_product_in_the_wrong_class(monkeypatch):
    # A product that is not principal is composed once more with its right
    # factor: every product is still a class and every inverse still
    # principal, but the table is no longer a group law.
    def skew(real, f, g):
        p = real(f, g)
        return p if p.a == 1 else real(p, g)

    failures = _axiom_failures(monkeypatch, skew)
    assert failures[0] == "-15: associativity fails"
    assert all(x.endswith(": associativity fails") for x in failures)


def test_criterion_oracles_sees_a_corrupted_compose(monkeypatch):
    # compose returns its left factor unless that is principal: no class
    # but the principal one has an inverse.
    failures = _axiom_failures(
        monkeypatch, lambda real, f, g: real(f, g) if f.a == 1 else f
    )
    assert failures[0] == "-15: QuadForm(a=2, b=1, c=2) has no inverse"
    assert all(x.endswith(" has no inverse") for x in failures)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The order-64 quotients of Gamma_{1,3,0} and Gamma_{1,3,1} by the "
        "fourth lower-central term are isomorphic: the eps-dependent relation "
        "a2^2 = c13^(4 eps) dies modulo <c13^4>, so no invariant can "
        "separate them and the claimed distinctness is unattainable."
    ),
)
def test_m3_quotient_separation_unattainable():
    quotients = []
    for eps in (0, 1):
        g = gamma(1, 3, eps)
        q = quotient_group(g, lower_central_series(whole_group(g))[3])
        assert q.order == 64
        quotients.append(q)
    assert distinguish(*quotients) == "Distinct"
