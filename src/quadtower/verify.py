"""One-shot verification matrix: every headline fact the toolkit models,
checked by exact computation and keyed by a stable anchor name.

Each criterion returns a CriterionResult whose checks must all pass.  A
criterion may also carry "deviations": named sub-checks that are documented
as unattainable (the two order-64 quotients at m = 3 are isomorphic, so no
invariant can separate them); these are reported but not counted as failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .arith import is_fundamental, prime_discriminants
from .errors import InvalidArgument, QuadTowerError
from .genus import chi_eval
from .pgroup import (
    MAX_ORDER_LOG2,
    PGroup,
    abelian_type_of,
    abelianization,
    capitulation_subgroups,
    cosets,
    derived_subgroup,
    distinguish,
    gamma,
    gamma4r,
    lower_central_series,
    quotient_group,
    standard_maximal_subgroups,
    subgroup,
    subgroups_of_index4,
    transfer_kernel,
    transfer_values,
    verify_presentation,
    whole_group,
)
from .quadforms import (
    DEFAULT_ENUM_BOUND,
    AbelianType,
    QuadForm,
    class_group,
    compose,
    principal_form,
    reduce_form,
)
from .tower import (
    Check,
    classify,
    corollary2_closed_forms,
    crosscheck,
    invariants,
    scan,
)

DEFAULT_GRID_SUM = 8
# Largest --grid: Gamma_(g,g,eps) has order 2^(2g+3).
MAX_GRID = (MAX_ORDER_LOG2 - 3) // 2


@dataclass
class CriterionResult:
    number: int
    anchor: str
    checks: list[Check] = field(default_factory=list)
    deviations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def grid_points(grid: int | None = None) -> list[tuple[int, int]]:
    """(n, m) pairs with n, m >= 2: n + m <= 8 by default, or n, m <= grid."""
    if grid is None:
        return [
            (n, m)
            for n in range(2, DEFAULT_GRID_SUM - 1)
            for m in range(2, DEFAULT_GRID_SUM - 1)
            if n + m <= DEFAULT_GRID_SUM
        ]
    return [(n, m) for n in range(2, grid + 1) for m in range(2, grid + 1)]


def criterion_realization(grid: int | None = None) -> CriterionResult:
    """Order, abelianization, and derived type of every Gamma_{n,m,eps}."""
    res = CriterionResult(1, "group-realization")
    for n, m in grid_points(grid):
        for eps in (0, 1):
            g = gamma(n, m, eps)
            top = whole_group(g)
            der = derived_subgroup(top)
            tag = f"({n},{m},{eps})"
            res.checks.append(Check(f"order{tag}", 1 << (n + m + 3), g.order))
            res.checks.append(Check(
                f"abelianization{tag}", AbelianType.of(1 << n, 2, 2), abelian_type_of(top, der)
            ))
            res.checks.append(
                Check(f"derived{tag}", AbelianType.of(1 << m, 2), abelian_type_of(der))
            )
    return res


def criterion_lower_central(grid: int | None = None) -> CriterionResult:
    """G_3 = <c13^2> and G_j = <c13^(2^(j-2))> down the lower central series."""
    res = CriterionResult(2, "lower-central-series")
    for n, m in grid_points(grid):
        for eps in (0, 1):
            g = gamma(n, m, eps)
            series = lower_central_series(g)
            tag = f"({n},{m},{eps})"
            for j, term in enumerate(series, start=1):
                if j < 3:
                    continue
                expected = subgroup(g, [g.pow(g.c13, 1 << (j - 2))]).elements
                res.checks.append(
                    Check(f"G_{j}{tag}", sorted(expected), sorted(term.elements))
                )
    return res


# Expected derived subgroups of the seven maximal subgroups, as generator
# recipes evaluated in the group (mu = m inside the engine, so c13^(2^mu) = 1).
def _expected_derived_gens(g: PGroup) -> list[list]:
    c12, c13 = g.c12, g.c13
    c13sq = g.mul(c13, c13)
    c12c13 = g.mul(c12, c13)
    return [
        [c12],
        [c13sq],
        [c12, c13sq],
        [c13],
        [c13],
        [c12c13, c13sq],
        [c12c13, c13sq],
    ]


# Expected transfer values t_j(a1), t_j(a2), t_j(a3^(2^(n-1))) modulo H_j'
# for j = 2..7; the j = 1 row is parametric and not checked here.
def _expected_transfer_values(g: PGroup) -> dict[int, tuple]:
    e, c12, c13 = g.identity, g.c12, g.c13
    return {
        2: (c13, c12, c12),
        3: (c13, e, e),
        4: (c12, e, c12),
        5: (e, e, c12),
        6: (e, e, c12),
        7: (c13, e, c12),
    }


# Expected transfer-kernel generators (as elements, read modulo G').
def _expected_kernel_gens(g: PGroup, n: int) -> dict[int, list]:
    a1, a2 = g.a1, g.a2
    t = g.pow(g.a3, 1 << (n - 1))
    return {
        2: [g.mul(a2, t)],
        3: [a2, t],
        4: [a2, g.mul(a1, t)],
        5: [a1, a2],
        6: [a1, a2],
        7: [a2, g.mul(a1, t)],
    }


def criterion_tables() -> CriterionResult:
    """Derived subgroups, transfer values, and transfer kernels of H_1..H_7."""
    res = CriterionResult(3, "subgroup-tables")
    for n, m in ((2, 2), (3, 2)):
        for eps in (0, 1):
            g = gamma(n, m, eps)
            tag = f"({n},{m},{eps})"
            top = whole_group(g)
            subs, _ = standard_maximal_subgroups(g, top)
            gprime = top.derived
            hprimes = [sub.derived.elements for sub in subs]
            for j, (hprime, dgens) in enumerate(
                zip(hprimes, _expected_derived_gens(g)), start=1
            ):
                res.checks.append(
                    Check(f"H{j}'{tag}", sorted(subgroup(g, dgens).elements), sorted(hprime))
                )
            values = _expected_transfer_values(g)
            kernels = _expected_kernel_gens(g, n)
            arguments = [g.a1, g.a2, g.pow(g.a3, 1 << (n - 1))]
            for j, (order, ker) in enumerate(transfer_kernel(top, subs[1:]), start=2):
                hprime = hprimes[j - 1]
                computed = transfer_values(top, subs[j - 1], arguments)
                for expected, actual in zip(values[j], computed):
                    # Both values read as their cosets of the one H_j'.
                    (want,) = cosets(g, [expected], hprime).values()
                    (got,) = cosets(g, [actual], hprime).values()
                    res.checks.append(Check(f"t{j}{tag}", sorted(want), sorted(got)))
                expected_ker = subgroup(g, kernels[j] + list(gprime.generators))
                res.checks.append(
                    Check(f"ker-t{j}-order{tag}", expected_ker.order // gprime.order, order)
                )
                res.checks.append(Check(f"ker-t{j}{tag}", expected_ker.elements, ker.elements))
    return res


def criterion_capitulation(grid: int | None = None) -> CriterionResult:
    """Transfer kernel from H_2 to H_1 cap H_2: order 8 (eps=0) or 4 (eps=1)."""
    res = CriterionResult(4, "capitulation-kernel")
    for n, m in grid_points(grid):
        for eps in (0, 1):
            h2, inter = capitulation_subgroups(*standard_maximal_subgroups(gamma(n, m, eps)))
            ((order, _),) = transfer_kernel(h2, [inter])
            res.checks.append(
                Check(f"kernel-order({n},{m},{eps})", 8 if eps == 0 else 4, order)
            )
    return res


def criterion_intermediate_fields(grid: int | None = None) -> CriterionResult:
    """Closed-form intermediate 2-class groups vs engine abelianizations."""
    from .tower import corollary2_engine

    res = CriterionResult(5, "intermediate-fields")
    for n, m in grid_points(grid):
        closed = corollary2_closed_forms(n, m)
        engine = corollary2_engine(n, m)
        for key in sorted(closed):
            res.checks.append(Check(f"{key}({n},{m})", closed[key], engine[key]))
    return res


# Nonnormal index-4 abelianization multisets for (n,m) = (2,2).
_SEPARATION_EPS0 = sorted(
    [(8, 2, 2)] * 2 + [(8, 2)] * 4 + [(4, 4)] * 2
)
_SEPARATION_EPS1 = sorted(
    [(4, 2, 2)] * 2 + [(8, 2)] * 4 + [(8, 4)] * 2
)


def _nonnormal_index4_multiset(g: PGroup) -> list[tuple[int, ...]]:
    out = []
    for sub, normal in subgroups_of_index4(g):
        if not normal:
            out.append(abelianization(sub).parts)
    return sorted(out)


def criterion_separation() -> CriterionResult:
    """The eps = 0 and eps = 1 groups are distinct, with the predicted
    nonnormal index-4 abelianization multisets at (n,m) = (2,2)."""
    res = CriterionResult(6, "separation")
    g0, g1 = gamma(2, 2, 0), gamma(2, 2, 1)
    res.checks.append(
        Check("multiset(2,2,0)", _SEPARATION_EPS0, _nonnormal_index4_multiset(g0))
    )
    res.checks.append(
        Check("multiset(2,2,1)", _SEPARATION_EPS1, _nonnormal_index4_multiset(g1))
    )
    res.checks.append(Check("distinct(2,2)", "Distinct", distinguish(g0, g1)))
    h0, h1 = gamma(1, 1, 0), gamma(1, 1, 1)
    res.checks.append(Check("order(1,1,0)", 32, h0.order))
    res.checks.append(Check("order(1,1,1)", 32, h1.order))
    res.checks.append(Check("distinct(1,1)", "Distinct", distinguish(h0, h1)))
    for m in (2, 3):
        quotients = []
        for eps in (0, 1):
            g = gamma(1, m, eps)
            series = lower_central_series(g)
            g4 = series[3] if len(series) > 3 else subgroup(g, [])
            q = quotient_group(g, g4)
            res.checks.append(Check(f"quotient-order(1,{m},{eps})", 64, q.order))
            quotients.append(q)
        verdict = distinguish(*quotients)
        if m == 2:
            res.checks.append(Check(f"quotient-distinct(m={m})", "Distinct", verdict))
        else:
            # The two m = 3 quotients are isomorphic (the eps-dependent
            # relation a2^2 = c13^(4 eps) dies modulo <c13^4>), so
            # distinctness is unattainable; record it as a known deviation.
            res.deviations.append(
                (
                    f"quotient-distinct(m={m})",
                    f"verdict {verdict}: the two order-64 quotients are "
                    "isomorphic, so no invariant separates them",
                )
            )
    return res


def criterion_real_family() -> CriterionResult:
    """In Gamma_{n,1,0}, the designated maximal subgroup H_6 has transfer
    kernel of order 8, for n = 2..5."""
    res = CriterionResult(7, "real-family-kernel")
    for n in range(2, 6):
        g = gamma(n, 1, 0)
        top = whole_group(g)
        subs, _ = standard_maximal_subgroups(g, top)
        ((order, _),) = transfer_kernel(top, [subs[5]])
        res.checks.append(Check(f"kernel-order(n={n})", 8, order))
    return res


# The (d, p, q, q', m, n) table of fields with n + m <= 8.
FIELD_TABLE = (
    (-2244, 17, 3, 11, 2, 2),
    (-21828, 17, 3, 107, 2, 3),
    (-5412, 41, 3, 11, 3, 2),
    (-37092, 281, 3, 11, 2, 4),
    (-9348, 41, 19, 3, 3, 3),
    (-255972, 257, 3, 83, 4, 2),
    (-101796, 17, 499, 3, 2, 5),
    (-25764, 113, 19, 3, 3, 4),
    (-132612, 257, 43, 3, 4, 3),
    (-75108, 569, 3, 11, 5, 2),
    (-169796, 17, 11, 227, 2, 6),
    (-78276, 593, 3, 11, 3, 5),
    (-329988, 257, 3, 107, 4, 4),
    (-106788, 809, 3, 11, 5, 3),
    (-1886244, 8273, 19, 3, 6, 2),
)

SIX_FIELDS = (-2244, -20292, -26724, -30756, -33252, -46308)
FOUR_FIELDS = (-21828, -28356, -91428, -97988)

# 2-parts of the published class groups of k(sqrt(-p)) for three fields
# with m < n - 1.
CLOSING_TABLE = (
    (-37092, (16, 4, 2)),
    (-101796, (32, 4, 2)),
    (-169796, (64, 4, 2)),
)


def criterion_field_tables(bound: int = DEFAULT_ENUM_BOUND) -> CriterionResult:
    """Classification and invariants of all published example fields."""
    res = CriterionResult(8, "field-tables")
    for d, p, q, qp, m, n in FIELD_TABLE:
        cls = classify(d)
        res.checks.append(Check(f"kind({d})", "Type4p", cls.kind))
        res.checks.append(Check(f"p({d})", p, cls.primes[0] if cls.primes else None))
        res.checks.append(
            Check(f"qq'({d})", {q, qp}, set(cls.primes[1:]) if cls.primes else None)
        )
        res.checks.append(Check(f"(n,m)({d})", (n, m), invariants(d, bound)[:2]))
    reports = [r for r in scan(-100000, -1, bound=bound) if r.classification.kind == "Type4p"]
    found = tuple(r.d for r in reports if r.d >= -50000 and (r.n, r.m) == (2, 2))
    res.checks.append(Check("six-fields", SIX_FIELDS, found))
    found = tuple(r.d for r in reports if (r.n, r.m) == (3, 2))
    res.checks.append(Check("four-fields", FOUR_FIELDS, found))
    for d, parts in CLOSING_TABLE:
        n, m, _ = invariants(d, bound)
        res.checks.append(
            Check(f"k(sqrt(-p))({d})", AbelianType(parts), corollary2_closed_forms(n, m)["H1"])
        )
    return res


def criterion_crosschecks() -> CriterionResult:
    """Number-theoretic vs group-theoretic cross-checks on the field -2244."""
    res = CriterionResult(9, "number-theory-crosschecks")
    report = crosscheck(-2244)
    res.checks.extend(report.checks)
    by_name = {c.name: c for c in report.checks}
    res.checks.append(
        Check(
            "table1-h2-row",
            (32, 32, 16, 16, 16, 16, 16),
            tuple(by_name[f"table1-h2-{j}"].computed for j in range(1, 8)),
        )
    )
    res.checks.append(
        Check(
            "kappa-orders",
            (4, 2, 4, 4, 4, 4, 4),
            tuple(by_name[f"kappa-order-{j}"].computed for j in range(1, 8)),
        )
    )
    res.checks.append(Check("genus-field-16", 16, by_name["genus-field-h2"].computed))
    return res


def criterion_oracles(
    grid: int | None = None,
    seed: int = 0,
    disc_limit: int = 20000,
    character_limit: int = 2000,
) -> CriterionResult:
    """Presentation verification, composition-table group axioms, and the
    genus-character product rule."""
    res = CriterionResult(10, "oracle-suite")
    for n, m in grid_points(grid):
        for eps in (0, 1):
            report = verify_presentation(gamma(n, m, eps), seed=seed)
            res.checks.append(
                Check(f"presentation({n},{m},{eps})", [], report["failures"])
            )
    for n in (2, 3, 4):
        report = verify_presentation(gamma4r(n), seed=seed)
        res.checks.append(Check(f"presentation-4r({n})", [], report["failures"]))

    survey = [d for d in range(-3, -character_limit - 1, -1) if is_fundamental(d)]
    survey += [-2244, -2580, -5412, 204, 561]
    # The class groups of the survey that the axioms loop builds on its way.
    survey_groups = dict.fromkeys(survey)
    rng = random.Random(seed)
    axiom_failures: list[str] = []
    for d in range(-3, -disc_limit - 1, -1):
        if not is_fundamental(d):
            continue
        group = class_group(d)
        if d in survey_groups:
            survey_groups[d] = group
        cls = group.classes
        clset = set(cls)
        one = reduce_form(principal_form(d))
        if one not in clset:
            axiom_failures.append(f"{d}: principal class missing")
            continue
        for f in cls:
            # The inverse of the class of (a, b, c) is the class of (a, -b, c).
            fi = reduce_form(QuadForm(f.a, -f.b, f.c))
            if compose(f, fi) != one:
                axiom_failures.append(f"{d}: {f} has no inverse")
            for h in cls:
                if compose(f, h) not in clset:
                    axiom_failures.append(f"{d}: not closed at {f}*{h}")
        for _ in range(10):
            x, y, z = (rng.choice(cls) for _ in range(3))
            lhs = compose(compose(x, y), z)
            rhs = compose(x, compose(y, z))
            if lhs != rhs:
                axiom_failures.append(f"{d}: associativity fails")
        if len(axiom_failures) > 10:
            break
    res.checks.append(Check("composition-group-axioms", [], axiom_failures))

    character_failures: list[str] = []
    for d in survey:
        group = survey_groups[d] or class_group(d)
        d_is = prime_discriminants(d)
        for c in group.classes:
            prod = 1
            for d_i in d_is:
                prod *= chi_eval(d, d_i, c)
            if prod != 1:
                character_failures.append(f"{d}: product != +1 on {c}")
    res.checks.append(Check("genus-character-product", [], character_failures))
    return res


def run_all(
    grid: int | None = None,
    seed: int = 0,
    bound: int = DEFAULT_ENUM_BOUND,
) -> list[CriterionResult]:
    """Run the full verification matrix in order.  A grid below 2 holds no
    (n, m) point, so it is refused rather than passed with no checks; one
    above MAX_GRID reaches groups of order above 2^MAX_ORDER_LOG2, so it is
    refused before grid_points lists its (grid - 1)^2 points.  A criterion
    that raises a QuadTowerError is reported as one failed check, named
    "raised", and the criteria after it still run."""
    if grid is not None and not 2 <= grid <= MAX_GRID:
        raise InvalidArgument(f"verify needs 2 <= grid <= {MAX_GRID}, got {grid}")
    criteria = [
        ("group-realization", criterion_realization, (grid,)),
        ("lower-central-series", criterion_lower_central, (grid,)),
        ("subgroup-tables", criterion_tables, ()),
        ("capitulation-kernel", criterion_capitulation, (grid,)),
        ("intermediate-fields", criterion_intermediate_fields, (grid,)),
        ("separation", criterion_separation, ()),
        ("real-family-kernel", criterion_real_family, ()),
        ("field-tables", criterion_field_tables, (bound,)),
        ("number-theory-crosschecks", criterion_crosschecks, ()),
        ("oracle-suite", criterion_oracles, (grid, seed)),
    ]
    results = []
    for number, (anchor, criterion, args) in enumerate(criteria, start=1):
        try:
            results.append(criterion(*args))
        except QuadTowerError as exc:
            raised = Check("raised", None, f"{type(exc).__name__}: {exc}")
            results.append(CriterionResult(number, anchor, [raised]))
    return results
