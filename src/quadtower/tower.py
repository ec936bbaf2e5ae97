"""Classification of discriminants, tower invariants (n, m), group predictions,
and the two-sided cross-checks between class-field data and the group engine.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from math import isqrt

from .arith import (
    DEFAULT_FACTOR_BOUND,
    check_factorable,
    is_fundamental,
    is_prime,
    kronecker,
)
from .errors import (
    BoundExceeded,
    InvalidArgument,
    NotFundamental,
    NotImaginary,
    StructureMismatch,
    UnsupportedKind,
)
from .genus import lemma1_check, square_2torsion
from .kuroda import (
    genus_field_h2,
    kuroda_h2,
    subfield_discriminants,
    table1_predictions,
)
from .pgroup import (
    GroupParams,
    abelian_type_of,
    abelianization,
    capitulation_subgroups,
    gamma,
    gamma4r,
    standard_maximal_subgroups,
    transfer_kernel,
    whole_group,
)
from .quadforms import (
    DEFAULT_ENUM_BOUND,
    AbelianType,
    ClassGroup,
    class_group,
    compose,
    prime_form,
    principal_form,
    reduce_form,
    two_part,
)

TYPE_4P = "Type4p"
TYPE_4R = "Type4r"
OTHER = "Other"


@dataclass(frozen=True)
class Check:
    """One named comparison; expected and computed are exact values."""

    name: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass(frozen=True)
class FieldClassification:
    d: int
    kind: str
    primes: tuple[int, ...]
    witness: tuple[Check, ...]


@dataclass(frozen=True)
class TowerReport:
    classification: FieldClassification
    n: int
    m: int
    mu: int
    predicted_group: GroupParams
    checks: tuple[Check, ...] = ()
    h2_k: int = 0
    h2_minus4p: int = 0

    @property
    def d(self) -> int:
        return self.classification.d

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _try_4pqr(d: int) -> FieldClassification | None:
    """Match d = -4pqq' with the congruence and symbol conditions.

    The core -d/4 is trial-divided only as far as the family needs.  The
    smallest of three primes, p1, lies at or below the cube root of the core
    and the next, p2, at or below the square root of core/p1; the cofactor
    p3 = core/(p1 p2) must be prime.  A repeated prime, a prime = 7 (mod 8)
    or a cofactor residue the family rules out ends the match at once.  Both
    (p/q) and (p/q') are read before p3 is tested and before any Check is
    built, and the witness is built for the one ordering (q, q') with
    (-q/q') = -1: q and q' are distinct primes = 3 (mod 4), so by
    reciprocity exactly one ordering has it.  The witness holds the symbols
    as computed, (-q/q') after that choice, so a wrong symbol shows as a
    failed check.  A core above arith.DEFAULT_FACTOR_BOUND raises
    BoundExceeded, as `factor` does.
    """
    if d % 4 != 0:
        return None
    core = -d // 4
    if core % 2 == 0:
        return None
    check_factorable(core)
    # One past the float cube root, which can fall just below an exact cube.
    for p1 in range(3, int(core ** (1 / 3)) + 2, 2):
        if core % p1 == 0:
            break
    else:
        return None
    rest = core // p1
    if p1 % 8 == 7 or rest % p1 == 0:
        return None
    # p1 = p leaves rest = qq' = 1 (mod 8); p1 = q leaves rest = pq' = 3 (mod 4).
    if rest % (8 if p1 % 4 == 1 else 4) != p1 % 4:
        return None
    for p2 in range(p1 + 2, isqrt(rest) + 1, 2):
        if rest % p2 == 0:
            break
    else:
        return None
    p3 = rest // p2
    if p2 % 8 == 7 or p3 % 8 == 7 or p3 % p2 == 0:
        return None
    ones = [x for x in (p1, p2, p3) if x % 4 == 1]
    if len(ones) != 1:
        return None
    p = ones[0]
    q, qp = [x for x in (p1, p2, p3) if x != p]
    # The primality test is the dearest step, so the symbols come first.
    if ((p_q := kronecker(p, q)) != -1 or (p_qp := kronecker(p, qp)) != -1
            or not is_prime(p3)):
        return None
    if kronecker(-q, qp) != -1:
        q, qp, p_q, p_qp = qp, q, p_qp, p_q
    kind = TYPE_4P if p % 8 == 1 else TYPE_4R
    witness = (
        Check(f"{p} mod 8", 1 if kind == TYPE_4P else 5, p % 8),
        Check(f"{q} mod 8", 3, q % 8),
        Check(f"{qp} mod 8", 3, qp % 8),
        Check(f"({p}/{q})", -1, p_q),
        Check(f"({p}/{qp})", -1, p_qp),
        Check(f"(-{q}/{qp})", -1, kronecker(-q, qp)),
    )
    return FieldClassification(d, kind, (p, q, qp), witness)


def classify(d: int) -> FieldClassification:
    """Classify a negative fundamental discriminant into the supported kinds."""
    if d >= 0:
        raise NotImaginary(f"{d} is not negative")
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not a fundamental discriminant")
    result = _try_4pqr(d)
    if result is not None:
        return result
    return FieldClassification(d, OTHER, (), ())


def invariants(
    d: int, bound: int = DEFAULT_ENUM_BOUND
) -> tuple[int, int, int]:
    """(n, m, mu) with 2^n = h2(k)/4 and 2^m = 2^mu = h2 of Q(sqrt(-p))."""
    report, _ = _invariants_for(classify(d), bound)
    return report.n, report.m, report.mu


def _invariants_for(
    cls: FieldClassification, bound: int
) -> tuple[TowerReport, ClassGroup]:
    """The report without checks of an already-classified field, with its
    predicted group (Gamma_{n,m,1} for Type4p, Gamma_n^(4r) for Type4r),
    and Cl(k)."""
    if cls.kind not in (TYPE_4P, TYPE_4R):
        raise UnsupportedKind(f"{cls.d} is {cls.kind}")
    p = cls.primes[0]
    group = class_group(cls.d, bound)
    h2_k, typ = two_part(group)
    expected_shape = typ.parts == (h2_k // 4, 2, 2) and h2_k >= 16
    if not expected_shape:
        raise StructureMismatch(
            f"Cl_2({cls.d}) has type {typ}, expected (2, 2, 2^n) with n >= 2"
        )
    n = (h2_k // 4).bit_length() - 1
    h2_p, typ_p = two_part(class_group(-4 * p, bound))
    if typ_p.parts != (h2_p,):
        raise StructureMismatch(
            f"Cl_2({-4 * p}) has type {typ_p}, expected cyclic"
        )
    m = h2_p.bit_length() - 1
    if cls.kind == TYPE_4P:
        predicted = GroupParams(n=n, m=m, eps=1, family="Gamma")
    else:
        predicted = GroupParams(n=n, m=1, eps=1, family="Gamma4r")
    report = TowerReport(classification=cls, n=n, m=m, mu=m, predicted_group=predicted,
                         h2_k=h2_k, h2_minus4p=h2_p)
    return report, group


def corollary2_closed_forms(n: int, m: int) -> dict[str, AbelianType]:
    """Closed-form 2-class group types of the intermediate fields.

    Keys H1..H7 are the seven quadratic extensions in the standard labeling;
    Hgen is the genus field, Gprime the first Hilbert 2-class field.
    """
    if m >= n - 1:
        h1 = AbelianType.of(1 << (m + 1), 1 << (n - 1), 2)
    else:
        h1 = AbelianType.of(1 << n, 1 << m, 2)
    out = {
        "H1": h1,
        "H2": AbelianType.of(1 << (n + 1), 2, 2),
        "H3": AbelianType.of(1 << n, 2, 2),
        "Hgen": AbelianType.of(1 << n, 1 << m),
        "Gprime": AbelianType.of(1 << m, 2),
    }
    for j in range(4, 8):
        out[f"H{j}"] = AbelianType.of(1 << (n + 1), 2)
    return out


def corollary2_engine(n: int, m: int) -> dict[str, AbelianType]:
    """The same table computed from the group engine's subgroups of Gamma_{n,m,1}."""
    g = gamma(n, m, 1)
    top = whole_group(g)
    subs, phi = standard_maximal_subgroups(top)
    out = {f"H{j}": abelianization(sub) for j, sub in enumerate(subs, start=1)}
    out["Hgen"] = abelianization(phi)
    out["Gprime"] = abelian_type_of(top.derived)
    return out


def predict(d: int, bound: int = DEFAULT_ENUM_BOUND) -> TowerReport:
    """Predicted Galois group of the 2-class field tower, with the
    intermediate-field table computed two ways (closed form vs engine)."""
    report, _ = _invariants_for(classify(d), bound)
    n, m = report.n, report.m
    checks: list[Check] = []
    if report.classification.kind == TYPE_4P:
        closed = corollary2_closed_forms(n, m)
        engine = corollary2_engine(n, m)
        for key in sorted(closed):
            checks.append(Check(f"corollary2-{key}", closed[key], engine[key]))
    else:
        top = whole_group(gamma4r(n))
        checks.append(Check("abelianization", AbelianType.of(1 << n, 2, 2), abelianization(top)))
        checks.append(Check("derived-type", AbelianType.of(2, 2), abelian_type_of(top.derived)))
    return replace(report, checks=tuple(checks))


def crosscheck(d: int, bound: int = DEFAULT_ENUM_BOUND) -> TowerReport:
    """Cross-check the class-field side against the group engine for one field."""
    cls = classify(d)
    report, group = _invariants_for(cls, bound)
    n, m, mu = report.n, report.m, report.mu
    h2_k, h2_p = report.h2_k, report.h2_minus4p
    p, q, qp = cls.primes
    checks: list[Check] = []

    # Square torsion: exactly one nontrivial 2-torsion class is a square;
    # for p = 1 mod 8 it is the class [2][p].
    torsion = square_2torsion(group)
    if cls.kind == TYPE_4P:
        two_p = compose(prime_form(d, 2), prime_form(d, p))
        expected_st = sorted({reduce_form(principal_form(d)), two_p})
        checks.append(Check("square-2torsion", expected_st, torsion))
    else:
        checks.append(Check("square-2torsion-size", 2, len(torsion)))

    # Principality in the two real quadratic fields.  Every 2-class number
    # found on the way goes into h2s, so each class group is built once.
    h2s = {d: h2_k, -4 * p: h2_p}
    lemma_cases = [(1, (q, p))] if cls.kind == TYPE_4P else []
    for case, primes in lemma_cases + [(2, (p, q, qp))]:
        lemma = lemma1_check(case, primes, bound)
        h2s[lemma.discriminant] = lemma.h2
        checks.append(Check(f"lemma1-case{case}", True, lemma.ok))

    if cls.kind == TYPE_4P:
        # Seven-extension class numbers: Kuroda's formula on the actual
        # quadratic-subfield class numbers vs the predicted table.
        rows = table1_predictions(n, mu)
        discs = subfield_discriminants(p, q, qp)
        for row in rows:
            for dd in discs[row.j]:
                if dd not in h2s:
                    h2s[dd] = two_part(class_group(dd, bound))[0]
            actual = kuroda_h2([h2s[dd] for dd in discs[row.j]], q_index=1)
            checks.append(Check(f"table1-h2-{row.j}", row.h2, actual))

        # Genus field order: (1/4) h2(k) h2(-p), closed form, and the order
        # of Phi(G), the engine subgroup that fixes the genus field.
        g = gamma(n, m, 1)
        top = whole_group(g)
        subs, phi = standard_maximal_subgroups(top)
        checks.append(
            Check("genus-field-h2", genus_field_h2(n, mu), (h2_k * h2_p) // 4)
        )
        checks.append(Check("genus-field-engine", genus_field_h2(n, mu), phi.order))

        # Capitulation kernel orders vs engine transfer kernels, and
        # membership of the dictionary classes [2] and [p].
        dictionary = {
            "[2]": g.a2,
            "[p]": g.mul(g.a2, g.pow(g.a3, 1 << (n - 1))),
        }
        kernels = transfer_kernel(top, subs)
        for row, (order, ker) in zip(rows, kernels):
            checks.append(Check(f"kappa-order-{row.j}", row.kappa_order, order))
            for label in row.kappa_generators:
                if label in dictionary:
                    checks.append(
                        Check(f"kappa-member-{row.j}-{label}", True, dictionary[label] in ker)
                    )

        # Capitulation of order 4 in K/k(sqrt(p)) forces eps = 1.
        h2, inter = capitulation_subgroups(subs, phi)
        ((order, _),) = transfer_kernel(h2, [inter])
        checks.append(Check("capitulation-order-4", 4, order))

    return replace(report, checks=tuple(checks))


def _scan_chunk(lo: int, hi: int, bound: int) -> list[TowerReport]:
    """The Type4p/Type4r fields with lo <= d <= hi, in descending d order.

    A field of the family has d = -4pqq' with three distinct odd primes,
    p = 1 (mod 4) and q = q' = 3 (mod 8), so d/4 = -pqq' = 3 (mod 4) and
    d = 12 (mod 16).  A squarefree d/4 = 3 (mod 4) also makes d fundamental,
    so the walk visits only that residue class and hands each d to the
    family matcher, which factors -d/4 only until it can reject it.
    """
    out = []
    for d in range(hi - (hi - 12) % 16, lo - 1, -16):
        cls = _try_4pqr(d)
        if cls is not None:
            out.append(_invariants_for(cls, bound)[0])
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


_PROC_STAT = "/proc/self/stat"


def _thread_count() -> int:
    """The threads of this process.  On Linux, the num_threads field of
    /proc/self/stat counts all of them, those started by _thread or by
    native code too; it is the 18th field after the command name, which is
    in parentheses and may hold spaces or parentheses of its own.  Where
    that file is missing, threading counts the threads started through it,
    and none were if it is not imported."""
    try:
        with open(_PROC_STAT, "rb") as stat:
            fields = stat.read()
    except OSError:
        threads = sys.modules.get("threading")
        return threads.active_count() if threads else 1
    return int(fields[fields.rindex(b")") + 1:].split()[17])


# The schedule is cut into at most this many tickets of 2 bytes each, so that
# all of them fit the smallest pipe Linux makes (one 4 KiB page, PIPE_BUF) and
# one write fills the ticket pipe before any fork without blocking.
_MAX_TICKETS = 2048


def _forked_results(units: list, schedule: list[int],
                    workers: int = _MAX_TICKETS) -> Callable[[int], object]:
    """The function i -> units[i](), with the units of the schedule run
    ahead on the usable CPUs, at most `workers` of them.

    With one such CPU or one ticket, or with another thread running, by
    _thread_count (a child forked from a threaded process can block on a
    lock that thread held), nothing runs ahead and each unit runs here
    when it is asked for.
    Otherwise the schedule is cut into tickets, the tickets are written to a
    pipe, and one child fewer than the CPUs is forked; this process and
    every child take the next ticket until none is left.  Each child pickles
    its (index, result) pairs back over its own pipe and leaves by os._exit.
    A unit that raised, or whose child died, runs again here when it is
    asked for, so that it raises here.  Every child is reaped before this
    returns or raises."""
    step = -(-len(schedule) // _MAX_TICKETS)
    slices = [schedule[k : k + step] for k in range(0, len(schedule), step)]
    workers = min(_usable_cpus(), len(slices), workers)
    if workers < 2 or _thread_count() > 1:
        return lambda i: units[i]()
    import pickle

    tickets, fill = os.pipe()
    os.write(fill, b"".join(k.to_bytes(2, "little") for k in range(len(slices))))
    os.close(fill)

    def work() -> dict[int, object]:
        done = {}
        while ticket := os.read(tickets, 2):
            for i in slices[int.from_bytes(ticket, "little")]:
                try:
                    done[i] = units[i]()
                except Exception:
                    pass
        return done

    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    for fd in (r, *children.values()):
                        os.close(fd)
                    with os.fdopen(w, "wb") as out:
                        pickle.dump(list(work().items()), out)
                finally:
                    os._exit(0)
            os.close(w)
            children[pid] = r
        done = work()
        for r in children.values():
            with os.fdopen(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                done.update(pickle.loads(data))
            except Exception:
                pass  # the child died before it wrote all its results
        return lambda i: done[i] if i in done else units[i]()
    finally:
        # On the way out by an exception: no ticket is left to take, and a
        # child writing its results finds its pipe closed.
        while os.read(tickets, 4096):
            pass
        os.close(tickets)
        for pid, r in children.items():
            os.close(r)
            os.waitpid(pid, 0)


_SCAN_WINDOW = 16384  # a multiple of 16: 1024 d = 12 (mod 16) in each full window


def scan(
    lo: int,
    hi: int,
    bound: int = DEFAULT_ENUM_BOUND,
    workers: int = 1,
) -> list[TowerReport]:
    """All Type4p/Type4r fields with lo <= d <= hi, in descending d order.

    Only d = 12 (mod 16) are examined; `_scan_chunk` gives the reason, and
    `_try_4pqr` how far each -d/4 is factored.  A window whose |lo| / 4 is
    above arith.DEFAULT_FACTOR_BOUND raises BoundExceeded before any d is
    examined, and so does one whose |lo| is above the enumeration bound
    `bound`; workers < 1 raises InvalidArgument.  [lo, hi] is cut into
    _SCAN_WINDOW-wide windows, run as units by criterion 10's runner
    (_forked_results) on at most `workers` usable CPUs and joined in window
    order, so the rows do not depend on the worker or CPU count; a window
    that raised runs again here, and raises here.  The runner only forks
    with two CPUs or more: with one worker, without sched_getaffinity
    (macOS, Windows), or beside another running thread, the windows run in
    a plain loop here.
    """
    if not (lo < hi <= -1):
        raise InvalidArgument(f"need lo < hi <= -1, got [{lo}, {hi}]")
    if workers < 1:
        raise InvalidArgument(f"need workers >= 1, got {workers}")
    if -lo // 4 > DEFAULT_FACTOR_BOUND:
        raise BoundExceeded(
            f"|{lo}| / 4 exceeds factoring bound {DEFAULT_FACTOR_BOUND}"
        )
    if -lo > bound:
        raise BoundExceeded(f"|{lo}| exceeds enumeration bound {bound}")
    units = [partial(_scan_chunk, max(lo, top - _SCAN_WINDOW + 1), top, bound)
             for top in range(hi, lo - 1, -_SCAN_WINDOW)]
    result = _forked_results(units, list(range(len(units))), workers)
    return [r for i in range(len(units)) for r in result(i)]
