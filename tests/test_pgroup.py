"""The finite 2-group engine: collection, subgroups, transfers, invariants."""

import hashlib
import itertools

import pytest

from quadtower.cli import main
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
    _element_orders,
    abelian_type_of,
    abelianization,
    centre,
    closure,
    derived_subgroup,
    distinguish,
    element_order,
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
    transfer,
    transfer_kernel,
    verify_presentation,
    whole_group,
)
from quadtower.quadforms import AbelianType


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


def test_element_orders_and_centre():
    g = gamma(2, 2, 1)
    assert element_order(g, g.identity) == 1
    assert element_order(g, g.c12) == 2
    assert element_order(g, g.a3) == 8
    z = centre(g)
    for x in z.elements:
        assert all(g.mul(x, y) == g.mul(y, x) for y in g.gens())


def test_abelianization_and_derived():
    for n, m, eps in ((2, 2, 0), (2, 2, 1), (3, 3, 1)):
        g = gamma(n, m, eps)
        assert abelianization(g) == AbelianType.of(1 << n, 2, 2)
        der = derived_subgroup(whole_group(g))
        assert abelian_type_of(der) == AbelianType.of(1 << m, 2)
        assert der.elements == closure(g, [g.c12, g.c13])


def test_frattini_index_is_8():
    g = gamma(2, 2, 1)
    assert whole_group(g).order // frattini_subgroup(whole_group(g)).order == 8


def test_lower_central_series_terms():
    g = gamma(2, 3, 0)
    series = lower_central_series(g)
    assert series[0].order == g.order
    assert series[1].elements == closure(g, [g.c12, g.c13])
    assert series[2].elements == closure(g, [g.pow(g.c13, 2)])
    assert series[3].elements == closure(g, [g.pow(g.c13, 4)])
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


def test_generic_vs_standard_maximal_subgroups():
    for n, m, eps in ((2, 2, 0), (2, 2, 1)):
        g = gamma(n, m, eps)
        generic = {s.elements for s in maximal_subgroups(whole_group(g))}
        labeled = {s.elements for s in standard_maximal_subgroups(g)}
        assert generic == labeled
        assert len(generic) == 7


def test_subgroups_of_index4_counts():
    g = gamma(2, 2, 1)
    subs = subgroups_of_index4(g)
    assert all(4 * s.order == g.order for s, _ in subs)
    nonnormal = [s for s, normal in subs if not normal]
    assert len(nonnormal) == 8


def test_transfer_errors():
    g = gamma(2, 2, 1)
    top = whole_group(g)
    h = subgroup(g, standard_maximal_subgroups(g)[0].generators)
    quarter = subgroup(g, [g.a2, g.c12, g.c13])
    with pytest.raises(IndexNotTwo):
        transfer(top, quarter, g.a2)
    with pytest.raises(ElementOutsideK):
        transfer(h, subgroup(g, [g.a2, g.pow(g.a3, 2), g.c12, g.c13]), g.a3)


def test_transfer_kernel_orders():
    g = gamma(2, 2, 1)
    top = whole_group(g)
    subs = standard_maximal_subgroups(g)
    orders = [transfer_kernel(top, s)[0] for s in subs]
    assert orders == [4, 2, 4, 4, 4, 4, 4]


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
    assert closure(sub.group, sub.generators) == sub.elements
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
            assert der.elements == closure(g, _commutators_of_all_pairs(sub))
        phi = frattini_subgroup(top)
        _assert_small_generating_set(phi)
        assert phi.elements == closure(g, {g.mul(x, x) for x in top.elements})
        _assert_small_generating_set(centre(g))
        series = lower_central_series(g)
        for cur, nxt in zip(series, series[1:]):
            _assert_small_generating_set(nxt)
            expected = {g.comm(x, y) for x in cur.elements for y in top.elements}
            assert nxt.elements == closure(g, expected)


def test_maximal_subgroups_by_definition():
    # The maximal subgroups of a 2-group h are exactly its index-2 subgroups;
    # each contains Phi(h), the subgroup generated by all squares, and there
    # are 2^r - 1 of them for |h/Phi(h)| = 2^r.
    for g in _small_groups():
        top = whole_group(g)
        phi = closure(g, {g.mul(x, x) for x in top.elements})
        subs = maximal_subgroups(top)
        for sub in subs:
            assert phi <= sub.elements
            assert 2 * sub.order == top.order
        assert len({s.elements for s in subs}) == len(subs)
        rank = (top.order // len(phi)).bit_length() - 1
        assert len(subs) == (1 << rank) - 1


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
        assert _element_orders(g) == {x: element_order(g, x) for x in g.elements()}


# sha256 of `quadtower --format json group n m eps --report fingerprint` for
# the 14 inputs of the fingerprint-groups benchmark workload: a change to the
# subgroup machinery must leave these outputs byte-identical.
FINGERPRINT_SHA256 = {
    (1, 3, 0): "7406ecfa4d85d5bd2325a812c720db9b40d48f160cbd2545a81b9af9526a376a",
    (1, 3, 1): "2cff42c314087d8c36263146cffb8f670c9d3c07ce4894da4f013fc98cae8909",
    (2, 2, 0): "24523a2ad58883d120ee09076267a2213e8a279fd69caa6943471bac1fa61e1d",
    (2, 2, 1): "bf4a6e661862e6ad6fac7d28db1228285cfeed78da9810753ea778da92ee46ee",
    (3, 1, 0): "c25e113b4fd816d656a939cb82bd38f3dbb07f7c98a214c9d70bf6800994f13d",
    (3, 1, 1): "8eca1226eb0bc5ba8d2e6fceeaeab0ab9ce5ac3fc8222ed5bffc33a10542dad4",
    (1, 4, 0): "ce74e39be0826d4c4ce996f43ced78dcae48fc17e553e423a8519e8a691e2d49",
    (1, 4, 1): "b325df0389250e552a05fb4eecf2f6660e46ebc02c0a370cab62d7d01e2e3527",
    (2, 3, 0): "b1160399a1b2fddff44b60a82cb5041c11c57d7370e7c8db2df1bbb9ed1dd588",
    (2, 3, 1): "8ac4bda0ca676d1bab0b3d716a8a1dc020659e7fdf1e2385243d5487b4a0c8dc",
    (3, 2, 0): "3626d0119792846ef8dbce37b89b03332215c4e74c20e3c75c006e234292e837",
    (3, 2, 1): "18d9084b0683884ab3eaf982b38392f37d1133da6b688013e9a3f19331a62bc1",
    (4, 1, 0): "5e7b97db2faf484c7e35bc26d06232d56f0f88dcb137ea7265c0bd67bce85a54",
    (4, 1, 1): "b59dadf6f804561645a20c9d70e16b41082734610e138663c1506b5268d77c6a",
}


@pytest.mark.parametrize("n,m,eps", sorted(FINGERPRINT_SHA256))
def test_fingerprint_json_unchanged(capsys, n, m, eps):
    argv = ["--format", "json", "group", str(n), str(m), str(eps)]
    assert main(argv + ["--report", "fingerprint"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FINGERPRINT_SHA256[n, m, eps]
