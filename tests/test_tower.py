"""Field classification, invariants, predictions, cross-checks, scans."""

import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
import sympy

from quadtower import genus, pgroup, quadforms, tower
from quadtower.arith import is_fundamental
from quadtower.errors import (
    BoundExceeded,
    InvalidArgument,
    NotFundamental,
    NotImaginary,
    StructureMismatch,
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


def test_scan_refuses_a_worker_count_below_1():
    for workers in (0, -3):
        with pytest.raises(InvalidArgument, match=f"^need workers >= 1, got {workers}$"):
            scan(-3000, -1, workers=workers)


def test_crosscheck_builds_each_class_group_once(monkeypatch):
    built = Counter()
    real = quadforms.class_group

    def counting(d, *args, **kwargs):
        built[d] += 1
        return real(d, *args, **kwargs)

    for module in (tower, genus):
        monkeypatch.setattr(module, "class_group", counting)
    d, p, q, qp = -329988, 257, 3, 107
    assert tower.crosscheck(d).all_passed
    assert set(built) == {
        d, -4 * p, q * qp, p, -4 * q * qp, -4, p * q * qp, -q, 4 * p * qp,
        -qp, 4 * p * q, 4 * q, -p * qp, 4 * qp, -p * q,
    }
    assert set(built.values()) == {1}


def test_crosscheck_derives_and_builds_each_subgroup_once(monkeypatch):
    # One labelling pass over Gamma gives H_1..H_7 and Phi(G), which is G'
    # (derived once and kept) extended by one square without a span of its
    # own; H_1 cap H_2 is one coset step over it.
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

    monkeypatch.setattr(pgroup, "derived_subgroup", counting_derived)
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
    assert spans[phi.elements] == 0


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
def forks(monkeypatch):
    """3 usable CPUs and a counted os.fork; the list records the pid of every
    child forked, and no child may be left when the test ends."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(tower, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rows(reports):
    return [
        (r.d, r.classification.kind, r.classification.primes, r.classification.witness)
        for r in reports
    ]


def test_scan_matches_exhaustive_classification(family_below_1e5):
    assert len(family_below_1e5) == 107
    assert _rows(scan(-100000, -1)) == family_below_1e5
    # Two workers on the CPUs this process may really use: under taskset -c 0
    # the windows run in a plain loop here.
    assert _rows(scan(-100000, -1, workers=2)) == family_below_1e5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-2245, -2244), (-2244, -2243), (-2243, -2242), (-2260, -2245),
        (-2260, -2229), (-2581, -2580), (-2580, -2579), (-2596, -2581),
        (-2600, -2230), (-2596, -2565),
    ],
)
def test_scan_boundary_windows(family_below_1e5, forks, lo, hi):
    expected = [row for row in family_below_1e5 if lo <= row[0] <= hi]
    assert _rows(scan(lo, hi)) == expected
    # One window: there is nothing to fork.
    assert _rows(scan(lo, hi, workers=3)) == expected
    assert forks == []


def test_scan_parallel_deterministic(family_below_1e5, forks, monkeypatch):
    # Seven windows, none of whose own bounds is 12 mod 16, on 3 processes.
    bounds = []
    real = tower._forked_results

    def recording(units, schedule, workers):
        bounds.extend(unit.args[:2] for unit in units)
        return real(units, schedule, workers)

    monkeypatch.setattr(tower, "_forked_results", recording)
    # One worker: the same seven windows, in a plain loop here.
    assert _rows(scan(-100000, -1)) == family_below_1e5
    assert forks == [] and len(bounds) == 7
    bounds.clear()
    assert _rows(scan(-100000, -1, workers=3)) == family_below_1e5
    assert len(forks) == 2
    assert bounds[:2] == [(-16384, -1), (-32768, -16385)]
    assert bounds[-1] == (-100000, -98305) and len(bounds) == 7
    assert all(b % 16 != 12 for pair in bounds for b in pair)


def test_scan_forked_raises_the_error_of_a_childs_window(forks, monkeypatch, tmp_path):
    # The first d a child examines raises there, and again wherever it is
    # examined; this process holds its own first d until a child has raised,
    # so the error it raises is that of a window a child ran.
    parent, first = os.getpid(), tmp_path / "first"
    real = tower._try_4pqr

    def raising(d):
        if os.getpid() != parent:
            try:
                with open(first, "x") as fh:
                    fh.write(str(d))
            except FileExistsError:
                pass
        deadline = time.monotonic() + 30
        while not first.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        if first.read_text() == str(d):
            raise StructureMismatch(f"{d} stub")
        return real(d)

    monkeypatch.setattr(tower, "_try_4pqr", raising)
    with pytest.raises(StructureMismatch) as excinfo:
        scan(-100000, -1, workers=3)
    assert len(forks) == 2
    assert str(excinfo.value) == f"{first.read_text()} stub"


def test_m_matches_the_barrucand_cohn_residue_symbol():
    # An oracle that counts no forms: for a prime p = 1 (mod 8), 8 | h(-4p)
    # exactly when (-4)^((p - 1) / 8) = 1 (mod p) (Barrucand-Cohn, J. reine
    # angew. Math. 238, 1969), and a Type4p field has 2^m = h2(-4p).
    rows = [r for r in scan(-10**6, -1) if r.classification.kind == "Type4p"]
    deep = 0
    for r in rows:
        p = r.classification.primes[0]
        assert p % 8 == 1, r.d
        symbol = pow(-4, (p - 1) // 8, p) == 1
        assert (r.m >= 3) == symbol, (r.d, p, r.m)
        deep += symbol
    assert (len(rows), deep) == (437, 178)
    assert len({r.classification.primes[0] for r in rows}) == 93


def test_scan_visits_only_12_mod_16(monkeypatch):
    visited = []
    real = tower._try_4pqr

    def recording(d):
        visited.append(d)
        return real(d)

    monkeypatch.setattr(tower, "_try_4pqr", recording)
    assert [r.d for r in scan(-2600, -2230)] == [-2244, -2580]
    assert visited == [d for d in range(-2230, -2601, -1) if d % 16 == 12]


def test_scan_workers_capped_at_cpu_count(forks):
    # Four windows, on at most `workers` of the 3 usable CPUs.
    serial = _rows(scan(-50000, -1, workers=1))
    assert forks == []
    assert _rows(scan(-50000, -1, workers=2)) == serial
    assert len(forks) == 1
    assert _rows(scan(-50000, -1, workers=100000)) == serial
    assert len(forks) == 3


def test_scan_workers_capped_at_usable_cpus(forks, monkeypatch):
    # os.cpu_count() counts CPUs this process may not run on (taskset).
    monkeypatch.setattr(tower, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(tower.os, "cpu_count", lambda: 4)
    assert _rows(scan(-50000, -1, workers=4)) == _rows(scan(-50000, -1))
    assert forks == []


@pytest.mark.skipif(not os.path.exists(tower._PROC_STAT), reason="no /proc/self/stat")
def test_scan_does_not_fork_beside_a_thread_threading_cannot_see(forks):
    # A thread started through _thread, as native code would start one, is
    # not in threading.active_count(); /proc/self/stat counts it.
    import _thread
    import threading

    serial = _rows(scan(-50000, -1))
    before = threading.active_count(), tower._thread_count()
    started, hold = _thread.allocate_lock(), _thread.allocate_lock()
    started.acquire()
    hold.acquire()

    def waiting():
        started.release()
        hold.acquire()

    _thread.start_new_thread(waiting, ())
    started.acquire()
    try:
        assert threading.active_count() == before[0]
        assert tower._thread_count() == before[1] + 1
        assert _rows(scan(-50000, -1, workers=2)) == serial
        assert forks == []
    finally:
        hold.release()
        # Later tests fork: wait until the thread has ended.
        deadline = time.monotonic() + 30
        while tower._thread_count() > before[1] and time.monotonic() < deadline:
            time.sleep(0.01)
    assert _rows(scan(-50000, -1, workers=2)) == serial
    assert len(forks) == 1


def test_thread_count_without_proc_is_threadings(monkeypatch):
    import threading

    monkeypatch.setattr(tower, "_PROC_STAT", os.path.join(os.sep, "no", "such", "stat"))
    assert tower._thread_count() == threading.active_count()


def test_import_does_not_load_the_process_pool():
    # pickle is imported only by the fork runner when it forks, and no
    # process pool is imported at all, not even by a forked scan.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tower.__file__)))
    code = (
        "import importlib, pkgutil, sys, quadtower\n"
        "names = [m.name for m in pkgutil.iter_modules(quadtower.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('quadtower.' + name)\n"
        "heavy = ('concurrent.futures.process', 'multiprocessing', 'pickle')\n"
        "print(len(names), [m for m in heavy if m in sys.modules])\n"
        "from quadtower import tower\n"
        "tower._usable_cpus = lambda: 2\n"
        "assert tower.scan(-100000, -1, workers=2) == tower.scan(-100000, -1)\n"
        "print([m for m in heavy + ('concurrent.futures',) if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert proc.stdout.decode().split("\n") == ["9 []", "['pickle']", ""]


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
