"""The finite 2-group engine: collection, subgroups, transfers, invariants."""

import itertools
import random

import pytest

from quadtower import pgroup
from quadtower.errors import (
    BoundExceeded,
    ElementOutsideK,
    GroupMismatch,
    IndexNotTwo,
    InvalidParams,
    NonAbelianQuotient,
    NotNormal,
)
from quadtower.pgroup import (
    GroupParams,
    PGroup,
    _element_orders,
    abelian_type_of,
    abelianization,
    capitulation_subgroups,
    centre,
    cosets,
    derived_subgroup,
    distinguish,
    fingerprint,
    frattini_subgroup,
    gamma,
    gamma4r,
    lower_central_series,
    maximal_subgroups,
    quotient_group,
    standard_maximal_subgroups,
    subgroup,
    subgroups_of_index4,
    transfer_kernel,
    transfer_values,
    verify_presentation,
    whole_group,
)
from quadtower.quadforms import AbelianType, abelian_type_from_counts
from test_pins import PINS, check


def _reference_closure(group, gens) -> frozenset:
    """The span of gens by breadth-first search from the identity: the
    reference the package's coset-step spans are checked against."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def _element_order(group, x) -> int:
    """The order of x by multiplying by x until the identity comes back: the
    reference the package's square-chain orders are checked against."""
    k = 1
    y = x
    while y != group.identity:
        y = group.mul(y, x)
        k += 1
    return k


def _reference_abelian_type(h, modulo):
    """Invariant factors of the abelian h/modulo from the number of cosets
    x modulo whose 2^j-th power lies in modulo, squaring one representative
    of every coset once per level: the reference for abelian_type_of."""
    g = h.group
    nset = modulo.elements
    cur = list(cosets(g, h.elements, nset))
    total = len(cur)
    counts = [1]
    while counts[-1] < total:
        cur = [g.mul(x, x) for x in cur]
        counts.append(sum(1 for x in cur if x in nset))
    return abelian_type_from_counts(counts)


def test_params_validation():
    with pytest.raises(InvalidParams):
        GroupParams(0, 1, 0)
    with pytest.raises(InvalidParams):
        GroupParams(2, 2, 2)
    with pytest.raises(InvalidParams):
        GroupParams(2, 2, 1, family="Gamma5")
    with pytest.raises(InvalidParams):
        GroupParams(2, 2, 1, family="Gamma4r")


def test_order_limit():
    assert gamma(12, 1, 0).order == 1 << 16
    assert gamma4r(12).order == 1 << 16
    with pytest.raises(BoundExceeded):
        gamma(14, 2, 0)
    with pytest.raises(BoundExceeded):
        gamma4r(13)


def test_orders():
    assert gamma(2, 2, 1).order == 128
    assert gamma(1, 1, 0).order == 32
    assert gamma(3, 2, 0).order == 256
    assert gamma4r(2).order == 64
    assert gamma4r(3).order == 128


def test_defining_relations():
    for n, m, eps in ((2, 2, 0), (2, 2, 1), (3, 2, 1), (2, 3, 0)):
        g = gamma(n, m, eps)
        a1, a2, a3 = g.a1, g.a2, g.a3
        assert g.comm(a1, a2) == g.c12
        assert g.comm(a1, a3) == g.c13
        assert g.comm(a2, a3) == g.identity
        assert g.pow(a1, 2) == g.inv(g.c13)
        assert g.pow(a2, 2) == g.pow(g.c13, (1 << (m - 1)) * eps)
        assert g.pow(a3, 1 << n) == g.mul(g.c12, g.pow(g.c13, 1 << (m - 1)))
        assert g.pow(g.c12, 2) == g.identity
        assert g.pow(g.c13, 1 << m) == g.identity


def test_gamma4r_relations():
    for n in (2, 3):
        g = gamma4r(n)
        assert g.pow(g.a1, 2) == g.c12
        assert g.pow(g.a2, 2) == g.c12
        assert g.pow(g.a3, 1 << n) == g.c13
        assert g.pow(g.c12, 2) == g.identity
        assert g.pow(g.c13, 2) == g.identity


def test_mul_range_guard():
    g = gamma(2, 2, 1)
    with pytest.raises(GroupMismatch):
        g.mul((0, 0, 7, 0, 0), g.identity)


@pytest.mark.parametrize("x", [(3, 0, 0, 5, -2), (0, 0, -1, 0, 0), (0, 2, 0, 0, 0),
                               (0, 0, 0, 2, 0), (0, 0, 0, 0, -1), (0, 0, 4, 0, 0)])
def test_inv_rejects_exponents_outside_normal_form(x):
    g = gamma(2, 2, 1)
    g.inv(g.a3)
    with pytest.raises(GroupMismatch):
        g.inv(x)
    assert len(g._inverses) == 1


def test_element_orders_and_centre():
    g = gamma(2, 2, 1)
    assert _element_order(g, g.identity) == 1
    assert _element_order(g, g.c12) == 2
    assert _element_order(g, g.a3) == 8
    z = centre(g)
    for x in z.elements:
        assert all(g.mul(x, y) == g.mul(y, x) for y in g.gens())


def test_abelianization_and_derived():
    for n, m, eps in ((2, 2, 0), (2, 2, 1), (3, 3, 1)):
        g = gamma(n, m, eps)
        assert abelianization(whole_group(g)) == AbelianType.of(1 << n, 2, 2)
        der = derived_subgroup(whole_group(g))
        assert abelian_type_of(der) == AbelianType.of(1 << m, 2)
        assert der.elements == _reference_closure(g, [g.c12, g.c13])


def test_frattini_index_is_8():
    g = gamma(2, 2, 1)
    assert whole_group(g).order // frattini_subgroup(whole_group(g)).order == 8


def test_lower_central_series_terms():
    g = gamma(2, 3, 0)
    series = lower_central_series(g)
    assert series[0].order == g.order
    assert series[1].elements == _reference_closure(g, [g.c12, g.c13])
    assert series[2].elements == _reference_closure(g, [g.pow(g.c13, 2)])
    assert series[3].elements == _reference_closure(g, [g.pow(g.c13, 4)])
    assert series[-1].order == 1


def test_abelian_type_errors():
    g = gamma(2, 2, 1)
    with pytest.raises(NonAbelianQuotient):
        abelian_type_of(whole_group(g))
    h = subgroup(g, [g.a1])  # not normal in G
    with pytest.raises(NotNormal):
        quotient_group(g, h)


def test_abelian_check_over_generators_matches_all_pairs():
    # h/N is abelian iff every pair of elements of h commutes modulo N.
    for n, m, eps in ((1, 1, 0), (1, 2, 1), (2, 1, 0)):
        g = gamma(n, m, eps)
        whole = whole_group(g)
        normals = [subgroup(g, [])] + lower_central_series(g)
        for h in [whole] + maximal_subgroups(whole):
            for nrm in normals:
                if not nrm.elements <= h.elements:
                    continue
                abelian = all(
                    g.comm(x, y) in nrm.elements
                    for x, y in itertools.combinations(sorted(h.elements), 2)
                )
                if abelian:
                    assert abelian_type_of(h, nrm).order == h.order // nrm.order
                else:
                    with pytest.raises(NonAbelianQuotient):
                        abelian_type_of(h, nrm)


def _standard_recipes(g):
    """The paper's named subgroups of g as generator recipes: H_1..H_7,
    Phi(G) (fixing the genus field) and H_1 cap H_2.  The reference the
    subgroups read off the Frattini labelling are checked against."""
    a1, a2, a3 = g.a1, g.a2, g.a3
    sq = g.mul(a3, a3)
    tail = [g.c12, g.c13]
    maximal = [
        [a1, a2, sq] + tail,
        [a2, a3] + tail,
        [g.mul(a1, a3), a2] + tail,
        [a1, a3] + tail,
        [g.mul(a1, a2), a3] + tail,
        [g.mul(a2, a3), a1] + tail,
        [g.mul(a1, a2), g.mul(a2, a3)] + tail,
    ]
    return maximal, [sq, g.c13, g.c12], [a2, sq, g.c12, g.c13]


def test_standard_subgroups_match_generator_recipes():
    groups = [gamma(n, m, eps) for n in range(1, 6) for m in range(1, 7 - n) for eps in (0, 1)]
    for g in groups:
        maximal, genus, inter = _standard_recipes(g)
        subs, phi = standard_maximal_subgroups(g)
        assert [s.elements for s in subs] == [_reference_closure(g, r) for r in maximal]
        assert phi.elements == _reference_closure(g, genus)
        h2, capitulation = capitulation_subgroups(subs, phi)
        assert h2 is subs[1]
        assert capitulation.elements == _reference_closure(g, inter)
    # Criterion 7's subgroup of Gamma_{n,1,0} is H_6.
    for n in range(2, 6):
        g = gamma(n, 1, 0)
        h6 = _reference_closure(g, [g.mul(g.a2, g.a3), g.a1, g.c12, g.c13])
        assert standard_maximal_subgroups(g)[0][5].elements == h6


def test_subgroups_of_index4_counts():
    g = gamma(2, 2, 1)
    subs = subgroups_of_index4(g)
    assert all(4 * s.order == g.order for s, _ in subs)
    nonnormal = [s for s, normal in subs if not normal]
    assert len(nonnormal) == 8


def test_transfer_errors():
    g = gamma(2, 2, 1)
    top = whole_group(g)
    h = standard_maximal_subgroups(g)[0][0]
    quarter = subgroup(g, [g.a2, g.c12, g.c13])
    with pytest.raises(IndexNotTwo):
        transfer_values(top, quarter, [g.a2])
    with pytest.raises(ElementOutsideK):
        transfer_values(h, subgroup(g, [g.a2, g.pow(g.a3, 2), g.c12, g.c13]), [g.a3])


def test_transfer_kernel_orders():
    g = gamma(2, 2, 1)
    top = whole_group(g)
    subs, _ = standard_maximal_subgroups(g)
    orders = [order for order, _ in transfer_kernel(top, subs)]
    assert orders == [4, 2, 4, 4, 4, 4, 4]


def _transfer_by_definition(K, H, x):
    """V(x) = prod over t in T of h_t, where t x = h_t t' with h_t in H and
    t' in T, for the right transversal T = {1, z} of H in K."""
    g = K.group
    z = next(y for y in K.elements if y not in H)
    transversal = (g.identity, z)
    value = g.identity
    for t in transversal:
        tx = g.mul(t, x)
        (h,) = {g.mul(tx, g.inv(u)) for u in transversal} & H.elements
        value = g.mul(value, h)
    return value


def test_transfer_kernel_against_definition():
    for g in _small_groups():
        top = whole_group(g)
        for K in [top] + maximal_subgroups(top):
            targets = maximal_subgroups(K)
            kprime = derived_subgroup(K)
            for H, (order, ker) in zip(targets, transfer_kernel(K, targets)):
                hprime = derived_subgroup(H).elements
                expected = {
                    x for x in K.elements
                    if _transfer_by_definition(K, H, x) in hprime
                }
                assert ker.elements == expected
                assert order == ker.order // kprime.order
                _assert_small_generating_set(ker)


def test_quotient_group():
    g = gamma(1, 2, 0)
    series = lower_central_series(g)
    q = quotient_group(g, series[3])
    assert q.order == 64
    der = derived_subgroup(whole_group(g))
    qab = quotient_group(g, der)
    assert qab.order == 8


def test_distinguish_small_groups():
    assert distinguish(gamma(1, 1, 0), gamma(1, 1, 1)) == "Distinct"
    assert distinguish(gamma(2, 2, 0), gamma(2, 2, 1)) == "Distinct"
    # The real-family group coincides with Gamma_{n,1,1}.
    for n in (2, 3):
        assert distinguish(gamma4r(n), gamma(n, 1, 1)) == "NotDistinguished"
        assert fingerprint(gamma4r(n)) == fingerprint(gamma(n, 1, 1))


def test_verify_presentation_clean():
    for g in (gamma(2, 2, 0), gamma(2, 2, 1), gamma4r(2)):
        report = verify_presentation(g, seed=1)
        assert report["failures"] == [], report
        assert report["seed"] == 1


class _CorruptedC12(PGroup):
    """An engine with one wrong product family: the c12 bit flips when both
    a3-exponents are 3 and the left factor has c12.  The relations, the
    identity and inverse laws and the commutator identities on generators
    still hold, so only a sampled check can see it."""

    def mul(self, x, y):
        p = super().mul(x, y)
        if x[2] == y[2] == 3 and x[3] == 1:
            p = p[:3] + (p[3] ^ 1,) + p[4:]
        return p


def _count_products(monkeypatch):
    products = []
    real_mul = PGroup.mul

    def counting(self, x, y):
        products.append(None)
        return real_mul(self, x, y)

    monkeypatch.setattr(PGroup, "mul", counting)
    return products


def test_verify_presentation_catches_corrupted_products():
    # Gamma4r(4) (order 256) reads the Cayley table; Gamma(3,3,1) (order
    # 512) samples the engine directly.
    for params in (GroupParams(4, 1, 1, "Gamma4r"), GroupParams(3, 3, 1)):
        report = verify_presentation(_CorruptedC12(params), seed=0)
        assert report["failures"] == ["associativity-sample"], params
        assert not report["ok"]


def test_verify_presentation_reports_failures_in_check_order():
    params = GroupParams(2, 1, 1, "Gamma4r")
    for seed in (0, 1):
        report = verify_presentation(_CorruptedC12(params), seed=seed)
        assert report["failures"] == [
            "associativity-sample", "product-commutator-identities"
        ]


def test_verify_presentation_table_and_engine_paths_agree(monkeypatch):
    params = GroupParams(4, 1, 1, "Gamma4r")
    products = _count_products(monkeypatch)
    table = verify_presentation(_CorruptedC12(params), seed=3)
    table_products = len(products)
    monkeypatch.setattr(pgroup, "_cayley_table", lambda g, els: None)
    products.clear()
    engine = verify_presentation(_CorruptedC12(params), seed=3)
    assert table_products <= 70_000 < len(products)
    assert table["failures"] == engine["failures"] == ["associativity-sample"]


def test_verify_presentation_reports_a_product_outside_the_elements():
    # One product of Gamma4r(4) (order 256, table path) leaves the group.
    # The sampled checks see it on some seeds only; "closure" reads the
    # whole table, so every seed fails, and the samples then run on g.mul.
    params = GroupParams(4, 1, 1, "Gamma4r")
    els = gamma4r(4).elements()
    x0, y0 = els[100], els[200]

    class Leaky(PGroup):
        def mul(self, x, y):
            if x == x0 and y == y0:
                return (2, 0, 0, 0, 0)
            return super().mul(x, y)

    for seed in range(5):
        report = verify_presentation(Leaky(params), seed=seed)
        assert report["failures"][0] == "closure", seed
        assert not report["ok"]
    assert verify_presentation(Leaky(params), seed=3)["failures"] == ["closure"]


def test_sampled_checks_draw_the_same_triples_on_both_paths():
    # One seed feeds the same products, in the same order, to the check
    # body over element tuples and over Cayley-table indices.
    g = gamma4r(3)
    els = g.elements()
    rows, tinv, tident = pgroup._cayley_table(g, els)
    assert els[tident] == g.identity

    direct_calls = []

    def direct_mul(x, y):
        direct_calls.append((x, y))
        return g.mul(x, y)

    # The table samplers make each product as t[i][j]: rows that record
    # every such lookup see the same products the direct body passes to mul.
    table_calls = []

    class Row:
        def __init__(self, i):
            self.i = i

        def __getitem__(self, j):
            table_calls.append((els[self.i], els[j]))
            return rows[self.i][j]

    class Rows:
        def __len__(self):
            return len(rows)

        def __getitem__(self, i):
            return Row(i)

    assert pgroup._associativity_sample(random.Random(5), els, direct_mul, 40)
    assert pgroup._associativity_table_sample(random.Random(5), Rows(), 40)
    assert pgroup._witt_sample(random.Random(5), els, direct_mul, g.inv, g.identity, 40)
    assert pgroup._witt_table_sample(random.Random(5), Rows(), tinv, tident, 40)
    assert len(direct_calls) == 40 * (4 + 46)
    assert direct_calls == table_calls


def test_verify_presentation_reads_each_product_once_up_to_order_256(monkeypatch):
    products = _count_products(monkeypatch)
    report = verify_presentation(gamma4r(4))
    assert report["failures"] == []
    # 65,536 table entries plus the unsampled checks; sampling the engine
    # takes 134,081.
    assert len(products) <= 70_000


def _small_groups():
    """Gamma_{n,m,eps} for n + m <= 4, Gamma_2^(4r), and the two order-64
    quotients Gamma_{1,2,eps}/G_4 that criterion 6 separates."""
    groups = [
        gamma(n, m, eps)
        for n in range(1, 4)
        for m in range(1, 5 - n)
        for eps in (0, 1)
    ]
    for eps in (0, 1):
        g = gamma(1, 2, eps)
        groups.append(quotient_group(g, lower_central_series(g)[3]))
    return groups + [gamma4r(2)]


def _commutators_of_all_pairs(sub):
    g = sub.group
    return {g.comm(x, y) for x, y in itertools.combinations(sub.elements, 2)}


def _assert_small_generating_set(sub):
    assert _reference_closure(sub.group, sub.generators) == sub.elements
    assert 1 << len(sub.generators) <= sub.order


def test_subgroups_against_definitions():
    for g in _small_groups():
        top = whole_group(g)
        index4 = subgroups_of_index4(g)
        for sub, normal in index4:
            conjugates = {
                g.mul(g.mul(g.inv(y), x), y) for x in sub.elements for y in top.elements
            }
            assert normal == (conjugates <= sub.elements)
        subs = maximal_subgroups(top) + [s for s, _ in index4]
        for sub in subs:
            _assert_small_generating_set(sub)
            der = derived_subgroup(sub)
            _assert_small_generating_set(der)
            assert der.elements == _reference_closure(g, _commutators_of_all_pairs(sub))
        phi = frattini_subgroup(top)
        _assert_small_generating_set(phi)
        assert phi.elements == _reference_closure(g, {g.mul(x, x) for x in top.elements})
        _assert_small_generating_set(centre(g))
        series = lower_central_series(g)
        for cur, nxt in zip(series, series[1:]):
            _assert_small_generating_set(nxt)
            expected = {g.comm(x, y) for x in cur.elements for y in top.elements}
            assert nxt.elements == _reference_closure(g, expected)


def test_named_subgroups_are_spans_of_their_generators():
    # test_subgroups_against_definitions checks the maximal, index-4,
    # derived, Frattini, lower central and central subgroups the same way;
    # these are the paper's named subgroups and plain spans of two elements.
    for g in _small_groups():
        if isinstance(g, PGroup):
            subs, phi = standard_maximal_subgroups(g)
            for sub in subs + [phi, capitulation_subgroups(subs, phi)[1]]:
                _assert_small_generating_set(sub)
                _assert_small_generating_set(derived_subgroup(sub))
        for seeds in itertools.combinations(g.elements()[1::9], 2):
            assert subgroup(g, seeds).elements == _reference_closure(g, seeds)


def test_cosets_partition_into_equal_disjoint_cosets():
    for g in _small_groups():
        top = whole_group(g)
        for sub, _ in subgroups_of_index4(g):
            for h in (top, sub):
                for nrm in [subgroup(g, [])] + lower_central_series(g) + [sub]:
                    if not nrm.elements <= h.elements:
                        continue
                    parts = cosets(g, h.elements, nrm.elements)
                    assert len(parts) * nrm.order == h.order
                    assert all(len(cs) == nrm.order for cs in parts.values())
                    assert set().union(*parts.values()) == h.elements
                    for x, cs in parts.items():
                        assert x in cs and cs == {g.mul(x, w) for w in nrm.elements}


def test_maximal_subgroups_by_definition():
    # The maximal subgroups of a 2-group h are exactly its index-2 subgroups;
    # each contains Phi(h), the subgroup generated by all squares, and there
    # are 2^r - 1 of them for |h/Phi(h)| = 2^r.
    for g in _small_groups():
        top = whole_group(g)
        phi = _reference_closure(g, {g.mul(x, x) for x in top.elements})
        subs = maximal_subgroups(top)
        for sub in subs:
            assert phi <= sub.elements
            assert 2 * sub.order == top.order
        assert len({s.elements for s in subs}) == len(subs)
        rank = (top.order // len(phi)).bit_length() - 1
        assert len(subs) == (1 << rank) - 1


def _reference_maximal_subgroups(h):
    """The index-2 subgroups of h, one breadth-first span per hyperplane of
    h/Phi(h): Phi(h) spanned by the squares of all of h's elements, a
    Burnside basis b_1..b_r read off h's generators, and for each nonzero w
    in F_2^r the span of Phi(h), the b_j with w_j = 0 and the b_i0 b_j with
    w_j = 1, j != i0 (i0 the first index with w_i = 1).  The reference for
    the labelled cosets of maximal_subgroups."""
    g = h.group
    phi = _reference_closure(g, {g.mul(x, x) for x in h.elements})

    def span_over_phi(gens):
        # Phi(h) is normal in h, so <Phi(h), gens> = Phi(h) <gens>.
        seen = set(phi)
        frontier = list(phi)
        while frontier:
            x = frontier.pop()
            for y in gens:
                xy = g.mul(x, y)
                if xy not in seen:
                    seen.add(xy)
                    frontier.append(xy)
        return frozenset(seen)

    basis = []
    for x in h.generators:
        if x not in span_over_phi(basis):
            basis.append(x)
    out = []
    for w in range(1, 1 << len(basis)):
        i0 = (w & -w).bit_length() - 1
        seeds = [b if not w >> j & 1 else g.mul(basis[i0], b)
                 for j, b in enumerate(basis) if j != i0]
        out.append(span_over_phi(seeds))
    return out


def test_maximal_subgroups_match_span_per_hyperplane():
    groups = [gamma(n, m, eps) for n in range(1, 6) for m in range(1, 7 - n) for eps in (0, 1)]
    for g in groups + [gamma4r(n) for n in (2, 3, 4)]:
        top = whole_group(g)
        for h in [top] + maximal_subgroups(top):
            subs = maximal_subgroups(h)
            assert [s.elements for s in subs] == _reference_maximal_subgroups(h)
            for sub in subs:
                assert subgroup(g, sub.generators).elements == sub.elements
                assert 1 << len(sub.generators) <= sub.order


def test_fingerprint_builds_the_maximal_subgroups_once(monkeypatch):
    g = gamma(2, 3, 1)
    whole = []
    real_maximal = pgroup.maximal_subgroups

    def recording(h):
        if h.order == g.order:
            whole.append(h)
        return real_maximal(h)

    monkeypatch.setattr(pgroup, "maximal_subgroups", recording)
    products = _count_products(monkeypatch)
    fingerprint(g)
    assert len(whole) == 1
    assert len(products) <= 8000


def test_quotient_rejects_foreign_cosets():
    g = gamma(1, 2, 0)
    q = quotient_group(g, lower_central_series(g)[3])
    with pytest.raises(GroupMismatch):
        q.mul(frozenset(), q.identity)
    with pytest.raises(GroupMismatch):
        q.mul(q.identity, g.identity)
    with pytest.raises(GroupMismatch):
        q.inv(g.identity)


def test_cached_inverses_match_fresh_groups():
    # Every group warms its inverse cache twice over; a freshly built copy
    # answers each element on its first call, before anything is cached.
    warmed = _small_groups()
    for g in warmed:
        for _ in range(2):
            for x in g.elements():
                g.inv(x)
    for g, fresh in zip(warmed, _small_groups()):
        for x in g.elements():
            assert g.inv(x) == fresh.inv(x)
            assert g.inv(g.inv(x)) == x
            assert g.mul(x, g.inv(x)) == g.identity


def test_warmed_inverse_cache_still_rejects_foreign_elements():
    g = gamma(2, 2, 1)
    for x in g.elements():
        g.inv(x)
    big = gamma(3, 3, 1)
    for x in (big.pow(big.a3, 5), big.pow(big.c13, 5), big.mul(big.a1, big.pow(big.a3, 6))):
        with pytest.raises(GroupMismatch):
            g.inv(x)
    assert len(g._inverses) == g.order


def test_element_orders_from_squares():
    for g in _small_groups():
        assert _element_orders(g) == {x: _element_order(g, x) for x in g.elements()}


def test_abelian_type_of_matches_coset_squaring():
    for g in _small_groups():
        top = whole_group(g)
        der = derived_subgroup(top)
        trivial = subgroup(g, [])
        subs = maximal_subgroups(top) + [s for s, _ in subgroups_of_index4(g)]
        cases = [(sub, derived_subgroup(sub)) for sub in subs]
        cases += [(top, der), (der, trivial), (centre(g), trivial)]
        for h, nrm in cases:
            assert abelian_type_of(h, nrm) == _reference_abelian_type(h, nrm)


# The digests of `quadtower --format json group n m eps --report r` are rows
# of PINS in tests/test_pins.py, keyed here by (r, n, m, eps); these tests
# check the rows of their inputs with its checker.
GROUP_PINS = {}
for _pin in PINS:
    _words = _pin[0].split()
    if _words[2] == "group":
        GROUP_PINS[_words[-1], *map(int, _words[3:6])] = _pin


@pytest.mark.parametrize("n,m,eps", sorted(k[1:] for k in GROUP_PINS if k[0] == "fingerprint"))
def test_fingerprint_json_unchanged(n, m, eps):
    assert check([GROUP_PINS["fingerprint", n, m, eps]]) == []


@pytest.mark.parametrize(
    "n,m,eps", sorted(k[1:] for k in GROUP_PINS if k[0] == "subgroups" and k[1] + k[2] <= 5)
)
@pytest.mark.parametrize("report", ["subgroups", "transfers"])
def test_subgroup_and_transfer_json_unchanged(report, n, m, eps):
    assert check([GROUP_PINS[report, n, m, eps]]) == []


def test_subgroups_json_unchanged_at_order_512():
    assert check([GROUP_PINS["subgroups", 3, 3, 0]]) == []
