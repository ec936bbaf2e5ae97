"""Field classification, invariants, predictions, cross-checks, scans."""

import concurrent.futures
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
import sympy

from quadtower import pgroup, quadforms, tower
from quadtower.arith import is_fundamental
from quadtower.errors import (
    BoundExceeded,
    NotFundamental,
    NotImaginary,
    UnsupportedKind,
)
from quadtower.quadforms import AbelianType
from quadtower.tower import (
    classify,
    corollary2_closed_forms,
    corollary2_engine,
    crosscheck,
    invariants,
    predict,
    scan,
)


def test_classify_type4p():
    cls = classify(-2244)
    assert cls.kind == "Type4p"
    assert cls.primes == (17, 3, 11)
    assert all(c.passed for c in cls.witness)


def test_classify_type4r():
    cls = classify(-2580)
    assert cls.kind == "Type4r"
    assert cls.primes == (5, 43, 3)


def test_classification_witness_records_the_computed_symbols(monkeypatch):
    # With (-q/q') read as +1 for both orderings, the matcher still takes
    # -2244, and the witness shows the symbol it recomputed after the swap.
    real = tower.kronecker
    monkeypatch.setattr(tower, "kronecker", lambda a, n: 1 if a < 0 else real(a, n))
    failed = [c for c in classify(-2244).witness if not c.passed]
    assert [(c.name, c.expected, c.computed) for c in failed] == [("(-11/3)", -1, 1)]


def test_classify_other():
    assert classify(-84).kind == "Other"
    assert classify(-3).kind == "Other"
    assert classify(-420).kind == "Other"


def test_classify_ps1():
    # d = -4 * -3 * -11 * 17 has four prime discriminants; it is classified
    # by the paper's family as -4pqq' with p = 17, q = 3, q' = 11.
    assert classify(-2244).kind == "Type4p"


def test_classify_errors():
    with pytest.raises(NotImaginary):
        classify(5)
    with pytest.raises(NotFundamental):
        classify(-16)


def test_invariants_table_rows():
    assert invariants(-2244)[:2] == (2, 2)
    assert invariants(-5412)[:2] == (2, 3)
    assert invariants(-37092)[:2] == (4, 2)
    n, m, mu = invariants(-2244)
    assert m == mu


def test_invariants_unsupported():
    with pytest.raises(UnsupportedKind):
        invariants(-84)


def test_corollary2_branch():
    # m >= n-1 branch vs m < n-1 branch.
    assert corollary2_closed_forms(2, 2)["H1"] == AbelianType((8, 2, 2))
    assert corollary2_closed_forms(4, 2)["H1"] == AbelianType((16, 4, 2))
    assert corollary2_closed_forms(2, 3)["H1"] == AbelianType((16, 2, 2))


def test_corollary2_engine_agrees():
    for n, m in ((2, 2), (3, 2), (2, 3)):
        assert corollary2_closed_forms(n, m) == corollary2_engine(n, m)


def test_predict():
    r = predict(-2244)
    assert (r.predicted_group.n, r.predicted_group.m) == (2, 2)
    assert r.predicted_group.family == "Gamma"
    assert r.all_passed
    r = predict(-2580)
    assert r.predicted_group.family == "Gamma4r"
    assert r.all_passed


def test_crosscheck_type4p():
    r = crosscheck(-2244)
    assert r.all_passed
    names = {c.name for c in r.checks}
    assert "square-2torsion" in names
    assert "kappa-order-2" in names
    assert "genus-field-h2" in names
    assert "capitulation-order-4" in names
    by_name = {c.name: c for c in r.checks}
    assert by_name["kappa-order-2"].computed == 2
    assert by_name["genus-field-h2"].computed == 16


def test_crosscheck_type4r():
    r = crosscheck(-2580)
    assert r.all_passed


def test_scan_small_range():
    reports = scan(-6000, -1)
    ds_4p = [r.d for r in reports if r.classification.kind == "Type4p"]
    assert ds_4p == [-2244, -5412]
    ds = [r.d for r in reports]
    assert ds == sorted(ds, reverse=True)


def test_scan_empty():
    assert scan(-10, -1) == []
    with pytest.raises(ValueError):
        scan(-1, -10)


def test_scan_parallel_deterministic():
    serial = scan(-8000, -1)
    parallel = scan(-8000, -1, workers=3)
    assert [(r.d, r.n, r.m) for r in serial] == [(r.d, r.n, r.m) for r in parallel]


def test_crosscheck_builds_each_class_group_once(monkeypatch):
    built = Counter()
    real = quadforms.class_group

    def counting(d, *args, **kwargs):
        built[d] += 1
        return real(d, *args, **kwargs)

    for module in (tower, quadforms):
        monkeypatch.setattr(module, "class_group", counting)
    d, p, q, qp = -329988, 257, 3, 107
    assert tower.crosscheck(d).all_passed
    assert set(built) == {
        d, -4 * p, q * qp, p, -4 * q * qp, -4, p * q * qp, -q, 4 * p * qp,
        -qp, 4 * p * q, 4 * q, -p * qp, 4 * qp, -p * q,
    }
    assert set(built.values()) == {1}


def test_crosscheck_derives_and_builds_each_subgroup_once(monkeypatch):
    # One labelling pass over Gamma gives H_1..H_7 and Phi(G), whose only span
    # is the pass's own normal closure; H_1 cap H_2 is one coset step over it.
    # One transfer-kernel pass from Gamma over H_1..H_7 and one from H_2 to
    # H_1 cap H_2 derive G', H_1'..H_7' and (H_1 cap H_2)': each Subgroup
    # keeps its derived subgroup, so H_2' is derived once for both passes.
    derived = Counter()
    spans = Counter()
    labelled = []
    real_derived, real_subgroup = pgroup.derived_subgroup, pgroup.subgroup
    real_labelling = pgroup._frattini_labelling

    def counting_derived(h):
        derived[h.elements] += 1
        return real_derived(h)

    def counting_subgroup(*args, **kwargs):
        sub = real_subgroup(*args, **kwargs)
        spans[sub.elements] += 1
        return sub

    def counting_labelling(h):
        labelled.append(h.order)
        return real_labelling(h)

    for module in (pgroup, tower):
        monkeypatch.setattr(module, "derived_subgroup", counting_derived)
    monkeypatch.setattr(pgroup, "subgroup", counting_subgroup)
    monkeypatch.setattr(pgroup, "_frattini_labelling", counting_labelling)
    assert tower.crosscheck(-329988).all_passed
    assert sum(derived.values()) <= 9
    g = pgroup.gamma(4, 4, 1)
    assert labelled == [g.order]
    h1 = real_subgroup(g, [g.a1, g.a2, g.mul(g.a3, g.a3), g.c12, g.c13])
    h2 = real_subgroup(g, [g.a2, g.a3, g.c12, g.c13])
    phi = real_subgroup(g, [g.mul(g.a3, g.a3), g.c12, g.c13])
    inter = real_subgroup(g, [g.a2, g.mul(g.a3, g.a3), g.c12, g.c13])
    assert spans[h1.elements] == spans[h2.elements] == spans[inter.elements] == 0
    assert spans[phi.elements] == 1


@pytest.fixture(scope="module")
def family_below_1e5():
    """Exhaustive classification: every fundamental d in [-100000, -1]."""
    return [
        (cls.d, cls.kind, cls.primes, cls.witness)
        for d in range(-1, -100001, -1)
        if is_fundamental(d)
        for cls in [classify(d)]
        if cls.kind in ("Type4p", "Type4r")
    ]


@pytest.fixture
def serial_pool(monkeypatch):
    """A 3-CPU machine whose process pool maps in-process; the list records
    the max_workers of every pool made."""
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(tower.os, "cpu_count", lambda: 3)
    return requested


def _rows(reports):
    return [
        (r.d, r.classification.kind, r.classification.primes, r.classification.witness)
        for r in reports
    ]


def test_scan_matches_exhaustive_classification(family_below_1e5):
    assert len(family_below_1e5) == 107
    assert _rows(scan(-100000, -1)) == family_below_1e5


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-2245, -2244), (-2244, -2243), (-2243, -2242), (-2260, -2245),
        (-2260, -2229), (-2581, -2580), (-2580, -2579), (-2596, -2581),
        (-2600, -2230), (-2596, -2565),
    ],
)
def test_scan_boundary_windows(family_below_1e5, serial_pool, lo, hi):
    expected = [row for row in family_below_1e5 if lo <= row[0] <= hi]
    assert _rows(scan(lo, hi)) == expected
    # Three chunks whose own bounds are not 12 mod 16.
    assert _rows(scan(lo, hi, workers=3)) == expected
    assert serial_pool == [3]


def test_scan_visits_only_12_mod_16(monkeypatch):
    visited = []
    real = tower._try_4pqr

    def recording(d):
        visited.append(d)
        return real(d)

    monkeypatch.setattr(tower, "_try_4pqr", recording)
    assert [r.d for r in scan(-2600, -2230)] == [-2244, -2580]
    assert visited == [d for d in range(-2230, -2601, -1) if d % 16 == 12]


def test_scan_workers_capped_at_cpu_count(serial_pool):
    serial = scan(-8000, -1)
    assert serial_pool == []
    assert _rows(scan(-8000, -1, workers=100000)) == _rows(serial)
    assert serial_pool == [3]


def test_import_does_not_load_the_process_pool():
    # The pool module is imported only by a scan with more than one worker.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tower.__file__)))
    code = "import sys, quadtower; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert proc.stdout.decode().strip() == "False"


def _reference_4pqr(d):
    """The family matcher from its definition, on sympy's full factorization:
    (kind, primes, witness as (name, expected, computed) triples) or None."""
    if d % 4 or (-d // 4) % 2 == 0:
        return None
    exponents = sympy.factorint(-d // 4)
    primes = sorted(exponents)
    if len(primes) != 3 or set(exponents.values()) != {1}:
        return None
    ones = [x for x in primes if x % 4 == 1]
    threes = [x for x in primes if x % 8 == 3]
    if len(ones) != 1 or len(threes) != 2:
        return None
    p = ones[0]
    kind = "Type4p" if p % 8 == 1 else "Type4r"
    for q, qp in (threes, threes[::-1]):
        witness = (
            (f"{p} mod 8", 1 if kind == "Type4p" else 5, p % 8),
            (f"{q} mod 8", 3, q % 8),
            (f"{qp} mod 8", 3, qp % 8),
            (f"({p}/{q})", -1, sympy.jacobi_symbol(p, q)),
            (f"({p}/{qp})", -1, sympy.jacobi_symbol(p, qp)),
            (f"(-{q}/{qp})", -1, sympy.jacobi_symbol(-q, qp)),
        )
        if all(expected == computed for _, expected, computed in witness):
            return kind, (p, q, qp), witness
    return None


def _matcher_view(d):
    cls = tower._try_4pqr(d)
    if cls is None:
        return None
    assert cls.d == d
    return cls.kind, cls.primes, tuple((c.name, c.expected, c.computed) for c in cls.witness)


# Named cores -d/4: 1; primes; two primes above the cube root; p^2 q and
# p q^2; 3 as q (-2244) and as q' (-2580); and a prime r = 7 (mod 8) as the
# smallest, middle and largest factor of p q r with (p/q) = (p/r) = -1, so
# only r's residue keeps each from matching.
NAMED_CORES = [
    1, 13, 1000003, 101 * 103, 3 * 1000003,
    17**2 * 3, 17 * 3**2, 5**2 * 43, 5 * 43**2, 17 * 11**2,
    3 * 11 * 17, 5 * 43 * 3,
    7 * 11 * 13, 5 * 7 * 43, 3 * 5 * 7,
]


def test_try_4pqr_matches_reference_on_named_cores():
    matched = {-4 * core: _matcher_view(-4 * core) for core in NAMED_CORES}
    for d, view in matched.items():
        assert view == _reference_4pqr(d), d
    assert matched[-2244][:2] == ("Type4p", (17, 3, 11))
    assert matched[-2580][:2] == ("Type4r", (5, 43, 3))
    assert sum(view is not None for view in matched.values()) == 2


def test_try_4pqr_matches_reference_to_300000():
    hits = 0
    for d in range(-4, -300001, -16):
        view = _matcher_view(d)
        assert view == _reference_4pqr(d), d
        hits += view is not None
    assert hits > 0


def test_try_4pqr_matches_reference_near_1e7():
    rng = random.Random(17)
    ds = [-4 - 16 * rng.randrange(562_500, 625_000) for _ in range(2000)]
    assert all(-10**7 <= d <= -9 * 10**6 for d in ds)
    hits = 0
    for d in ds:
        view = _matcher_view(d)
        assert view == _reference_4pqr(d), d
        hits += view is not None
    assert hits > 0


def test_scan_above_factor_bound_raises():
    # The matcher refuses a core above arith.DEFAULT_FACTOR_BOUND, as factor does.
    with pytest.raises(BoundExceeded):
        scan(-4 * 2**40 - 64, -4 * 2**40 - 4)


def test_scan_above_enumeration_bound_raises_before_any_class_group(monkeypatch):
    # The walk runs from hi downward: a window past the bound that is refused
    # late has done the whole scan below the bound first.
    calls = []
    real = tower.class_group

    def counting(d, bound):
        calls.append(d)
        return real(d, bound)

    monkeypatch.setattr(tower, "class_group", counting)
    with pytest.raises(BoundExceeded, match=r"\|-1100000\| exceeds enumeration bound 1000000"):
        scan(-1100000, -1, bound=10**6)
    assert calls == []
    # A window whose lo sits exactly at the bound is allowed.
    scan(-10**6, -10**6 + 2000, bound=10**6)
    assert calls
