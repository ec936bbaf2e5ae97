"""Acceptance gate: the ten verification criteria, one test per criterion.

Each test prints a single ``criterion N (anchor): PASS|FAIL`` line and fails
with the list of mismatching checks if the criterion does not hold.  A final
strictly-xfailing test records the one claim that is genuinely unattainable:
separating the two order-64 quotients at m = 3 (they are isomorphic).
"""

import hashlib
import json
import os
import random
import threading
import time
import types

import pytest

from quadtower import pgroup, tower, verify
from quadtower.arith import is_fundamental
from quadtower.errors import StructureMismatch
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
# every check as [name, computed, passed], then every value that rng.choices
# (the presentation samples) returned, then every value that rng.choice (the
# associativity triples of the class groups) returned, each in call order.
# Taken with the per-product compose and g.mul loops, before the checks read
# index tables, when the presentations ran before any triple was drawn.
ORACLE_BENCH_SHA256 = {
    0: "8c6a6e1eff9df6cc0c6336b2857f91488c6fd027703a092b9f332e3c1fde4e64",
    1: "b09fa72fcae4812542f2cc5eca636cd1e058139153e4f7005b9c14ea8491d16b",
    2: "8af368d12629577745b855b81703ecf83fb71a938f97b60377ffbfa62d559aa5",
    3: "864e0edea80ae11d64ca59d9d74be66054a8b554d080b2a0f921d9a0ee9fd845",
    4: "59abdafdc7914ac36fe48ce8cfac002557a1c64626d2c5f460f2dd637bc315ed",
}


@pytest.mark.parametrize("seed", sorted(ORACLE_BENCH_SHA256))
def test_criterion_oracles_bench_call_draws_pinned(monkeypatch, seed):
    # A draw made in a forked child never reaches this process's recorder,
    # so the call runs on one CPU.  The triples are drawn before the
    # presentations run, so each kind of draw is recorded in its own list.
    samples, triples = [], []

    class Recording(random.Random):
        def choice(self, seq):
            triples.append(super().choice(seq))
            return triples[-1]

        def choices(self, population, weights=None, *, cum_weights=None, k=1):
            samples.append(super().choices(population, weights, cum_weights=cum_weights, k=k))
            return samples[-1]

    for module in (pgroup, verify):
        monkeypatch.setattr(module, "random", types.SimpleNamespace(Random=Recording))
    monkeypatch.setattr(tower, "_usable_cpus", lambda: 1)
    result = criterion_oracles(grid=1, disc_limit=800, character_limit=300, seed=seed)
    assert [c.name for c in result.checks] == [
        "presentation-4r(2)", "presentation-4r(3)", "presentation-4r(4)",
        "composition-group-axioms", "genus-character-product",
    ]
    assert result.passed
    checks = [[c.name, c.computed, c.passed] for c in result.checks]
    digest = hashlib.sha256(json.dumps([checks, samples + triples]).encode()).hexdigest()
    assert digest == ORACLE_BENCH_SHA256[seed]


def _on_cpus(monkeypatch, cpus, expected_forks=None, **limits):
    """criterion_oracles(**limits) as it runs with `cpus` usable CPUs, having
    forked cpus - 1 children (or expected_forks) and left none behind."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with monkeypatch.context() as patch:
        patch.setattr(tower, "_usable_cpus", lambda: cpus)
        patch.setattr(os, "fork", counting_fork)
        result = criterion_oracles(**limits)
    assert len(forks) == (cpus - 1 if expected_forks is None else expected_forks)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result


BENCH_LIMITS = {"grid": 1, "disc_limit": 800, "character_limit": 300}


@pytest.mark.parametrize(
    "limits",
    [dict(BENCH_LIMITS, seed=seed) for seed in range(5)] + [{"grid": 2, "disc_limit": 3000}],
)
def test_criterion_oracles_forked_equals_inline(monkeypatch, limits):
    inline = _on_cpus(monkeypatch, 1, **limits)
    assert inline.passed
    assert _on_cpus(monkeypatch, 3, **limits).checks == inline.checks


def test_criterion_oracles_does_not_fork_beside_another_thread(monkeypatch):
    inline = _on_cpus(monkeypatch, 1, **BENCH_LIMITS)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        alone = _on_cpus(monkeypatch, 3, expected_forks=0, **BENCH_LIMITS)
    finally:
        stop.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert alone.checks == inline.checks


def test_criterion_oracles_runs_a_dead_childs_units_again(monkeypatch, tmp_path):
    # Each presentation unit also reports its own arguments, so a unit lost
    # with its child would show.  The first child to run one exits with
    # status 3 before it reports any result; this process holds its own first
    # presentation until that has happened, then runs the lost units itself.
    parent, died = os.getpid(), tmp_path / "died"
    real = verify._presentation_failures

    def tagged(build, *args, seed):
        return real(build, *args, seed=seed) + [f"{build.__name__}{args}"]

    def dying(build, *args, seed):
        if os.getpid() != parent:
            try:
                died.touch(exist_ok=False)
            except FileExistsError:
                pass
            else:
                os._exit(3)
        deadline = time.monotonic() + 30
        while not died.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return tagged(build, *args, seed=seed)

    monkeypatch.setattr(verify, "_presentation_failures", tagged)
    inline = _on_cpus(monkeypatch, 1, **BENCH_LIMITS)
    assert [c.computed for c in inline.checks[:3]] == [
        ["gamma4r(2,)"], ["gamma4r(3,)"], ["gamma4r(4,)"],
    ]
    monkeypatch.setattr(verify, "_presentation_failures", dying)
    forked = _on_cpus(monkeypatch, 3, **BENCH_LIMITS)
    assert died.exists()
    assert forked.checks == inline.checks


def test_criterion_oracles_forked_raises_the_inline_error(monkeypatch):
    # Two class-group units raise; the error is the one first in list order
    # (-23 before -47, though h(-47) = 5 is scheduled before h(-23) = 3),
    # whichever process first ran each.
    real = verify.compose

    def raising(f, g):
        if f.disc in (-23, -47):
            raise StructureMismatch(f"{f.disc} stub")
        return real(f, g)

    monkeypatch.setattr(verify, "compose", raising)
    for cpus in (1, 3):
        monkeypatch.setattr(tower, "_usable_cpus", lambda: cpus)
        with pytest.raises(StructureMismatch, match="^-23 stub$"):
            criterion_oracles(**BENCH_LIMITS)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_criterion_oracles_reaps_its_children_when_interrupted(monkeypatch):
    # The first unit this process takes is interrupted; the children then
    # find no ticket left, and no reader for their results.
    parent = os.getpid()

    def interruptible(real):
        def unit(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args, **kwargs)
        return unit

    for name in ("_presentation_failures", "_group_law_failures"):
        monkeypatch.setattr(verify, name, interruptible(getattr(verify, name)))
    monkeypatch.setattr(tower, "_usable_cpus", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        criterion_oracles(**BENCH_LIMITS)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _axiom_failures(monkeypatch, fault):
    """The composition-group-axioms failures at disc_limit=300 with
    verify.compose replaced by fault(real, f, g)."""
    real = verify.compose
    monkeypatch.setattr(verify, "compose", lambda f, g: fault(real, f, g))
    result = criterion_oracles(grid=1, disc_limit=300, character_limit=100)
    (check,) = [c for c in result.checks if c.name == "composition-group-axioms"]
    assert not check.passed and [c.name for c in result.failures] == [check.name]
    return check.computed


def _leak(real, f, g):
    # The square of a class, when it is not principal, becomes an unreduced
    # form; the inverse check, whose products are principal, is untouched.
    # On a d that is not closed the drawn triples go through the same
    # compose, so they can fail too.
    p = real(f, g)
    if f == g and p.a != 1:
        a, b, c = p
        return QuadForm(a, b + 2 * a, a + b + c)
    return p


LEAK_FIRST_FAILURE = "-23: not closed at QuadForm(a=2, b=-1, c=3)*QuadForm(a=2, b=-1, c=3)"


def test_criterion_oracles_sees_a_product_outside_the_classes(monkeypatch):
    failures = _axiom_failures(monkeypatch, _leak)
    assert failures[0] == LEAK_FIRST_FAILURE
    assert all(" not closed at " in x or x.endswith(": associativity fails")
               for x in failures)


def test_criterion_oracles_forked_sees_the_same_leak(monkeypatch):
    # The children inherit the patched compose with the rest of the process.
    real = verify.compose
    monkeypatch.setattr(verify, "compose", lambda f, g: _leak(real, f, g))
    limits = {"grid": 1, "disc_limit": 300, "character_limit": 100}
    inline = _on_cpus(monkeypatch, 1, **limits).checks
    assert _on_cpus(monkeypatch, 3, **limits).checks == inline
    (axioms,) = [c for c in inline if not c.passed]
    assert axioms.name == "composition-group-axioms"
    assert axioms.computed[0] == LEAK_FIRST_FAILURE


def test_criterion_oracles_sees_a_product_in_the_wrong_class(monkeypatch):
    # A product that is not principal is composed once more with its right
    # factor: every product is still a class and every inverse still
    # principal, but the table is no longer a group law.  The fault depends
    # on argument order; at -15 its wrong product lies in the half of the
    # table read off the transpose, where
    # test_quadforms.py::test_compose_is_symmetric_on_every_pair sees it.
    def skew(real, f, g):
        p = real(f, g)
        return p if p.a == 1 else real(p, g)

    failures = _axiom_failures(monkeypatch, skew)
    assert failures[0] == "-23: associativity fails"
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
