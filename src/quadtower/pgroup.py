"""Executable finite 2-groups: the two parametric families with subgroup,
transfer-kernel, quotient, and fingerprint machinery.

Elements are 5-exponent normal forms a1^e1 a2^e2 a3^e3 c12^f1 c13^f2, with
multiplication by collection.  Every subgroup carries a generating set of
at most log2 of its order elements, and every span grows by one step: a new
generator extends a subgroup by the right cosets it adds (Dimino).  Derived
and Frattini subgroups and lower central terms are normal closures of a few
commutators and squares of those generators; a derived subgroup is certified
normal with abelian quotient once, where it is built, and each Subgroup keeps
its own as `derived`.  Maximal subgroups need no span beyond Phi(h): one pass
labels the cosets of Phi(h) by subsets of a Burnside basis, and each
hyperplane preimage is a union of labelled cosets.
The paper's named subgroups of Gamma are read off that one pass, not spanned
from generator recipes: H_1..H_7 are the preimages of seven fixed characters
of G/Phi(G) on (a1, a2, a3), the genus field's subgroup is Phi(G) itself,
and H_1 cap H_2 is one coset step over it.  `subgroup` is the one span
constructor.  Abelian invariants of h/N come from the spans <N, x^(2^j)> of
powers of h's generators, through the kernel the class groups use
(quadforms.abelian_type_from_powers).  One coset map, `cosets`, serves
transfer kernels and quotients.  PGroup and the quotient groups share one
protocol: elements(), gens(), mul, inv and identity, with pow and comm from
_Group.  All operations are exact and exhaustive; PGroup refuses orders
above 2^16 (MAX_ORDER_LOG2) with BoundExceeded before building any element,
and caches each inverse it has computed, at most one per element of the
group, after checking that the element is in normal form.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    ElementOutsideK,
    GroupMismatch,
    IndexNotTwo,
    InvalidParams,
    NonAbelianQuotient,
    NotNormal,
    RankMismatch,
    StructureMismatch,
)
from .quadforms import AbelianType, abelian_type_from_powers

Element = tuple[int, int, int, int, int]

# Largest group order, as a power of 2, that PGroup will materialise.
MAX_ORDER_LOG2 = 16


@dataclass(frozen=True)
class GroupParams:
    n: int
    m: int
    eps: int
    family: str = "Gamma"

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.eps not in (0, 1):
            raise InvalidParams(f"bad parameters {self}")
        if self.family not in ("Gamma", "Gamma4r"):
            raise InvalidParams(f"unknown family {self.family!r}")
        if self.family == "Gamma4r" and (self.m != 1 or self.eps != 1):
            raise InvalidParams("Gamma4r requires m = 1 and eps = 1")


class _Group:
    """pow and comm for a group given by mul, inv and identity."""

    def pow(self, x, k: int):
        if k < 0:
            x, k = self.inv(x), -k
        r = self.identity
        while k:
            if k & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            k >>= 1
        return r

    def comm(self, x, y):
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))


class PGroup(_Group):
    """The group Gamma_{n,m,eps} (order 2^(n+m+3)), or Gamma_n^(4r)
    (order 2^(n+4)) for family "Gamma4r"."""

    def __init__(self, params: GroupParams):
        self.params = params
        n, m, eps = params.n, params.m, params.eps
        log2 = n + m + 3 if params.family == "Gamma" else n + 4
        if log2 > MAX_ORDER_LOG2:
            raise BoundExceeded(
                f"group order 2^{log2} exceeds the 2^{MAX_ORDER_LOG2} limit"
            )
        self.e3_mod = 1 << n
        if params.family == "Gamma":
            self.f2_mod = 1 << m
            half = 1 << (m - 1)
            # Power relations written as (c12-exponent, c13-exponent):
            self.sq1 = (0, -1)          # a1^2 = c13^-1
            self.sq2 = (0, half * eps)  # a2^2 = c13^(2^(m-1) eps)
            self.sq3 = (1, half)        # a3^(2^n) = c12 c13^(2^(m-1))
        else:
            self.f2_mod = 2
            self.sq1 = (1, 0)           # a1^2 = c12
            self.sq2 = (1, 0)           # a2^2 = c12
            self.sq3 = (0, 1)           # a3^(2^n) = c13
        self.order = 8 * self.e3_mod * self.f2_mod
        self.identity: Element = (0, 0, 0, 0, 0)
        self.a1: Element = (1, 0, 0, 0, 0)
        self.a2: Element = (0, 1, 0, 0, 0)
        self.a3: Element = (0, 0, 1, 0, 0)
        self.c12: Element = (0, 0, 0, 1, 0)
        self.c13: Element = (0, 0, 0, 0, 1)
        self._inverses: dict[Element, Element] = {}

    def gens(self) -> list[Element]:
        return [self.a1, self.a2, self.a3]

    def elements(self) -> list[Element]:
        return [
            (e1, e2, e3, f1, f2)
            for e1 in range(2)
            for e2 in range(2)
            for e3 in range(self.e3_mod)
            for f1 in range(2)
            for f2 in range(self.f2_mod)
        ]

    def mul(self, x: Element, y: Element) -> Element:
        if not (x[2] < self.e3_mod and x[4] < self.f2_mod
                and y[2] < self.e3_mod and y[4] < self.f2_mod):
            raise GroupMismatch(f"element outside group: {x} * {y}")
        s1, s2, s3, u, v = x
        y1, y2, y3, yu, yv = y
        # Collect y's generators into x's normal form, left to right.
        if y1:
            v -= s3 & 1          # a3^odd a1 = a1 a3^odd c13^-1
            u += s2              # a2 a1 = a1 a2 c12
            if s1:
                a, b = self.sq1
                u += a
                v += b if s3 % 2 == 0 else -b
                s1 = 0
            else:
                s1 = 1
        if y2:
            if s2:
                a, b = self.sq2
                u += a
                v += b if s3 % 2 == 0 else -b
                s2 = 0
            else:
                s2 = 1
        if y3:
            if y3 & 1:
                v = -v           # moving c13 past a3 inverts it
            s3 += y3
            if s3 >= self.e3_mod:
                s3 -= self.e3_mod
                a, b = self.sq3
                u += a
                v += b
        return (s1, s2, s3, (u + yu) & 1, (v + yv) % self.f2_mod)

    def inv(self, x: Element) -> Element:
        try:
            return self._inverses[x]
        except KeyError:
            pass
        e1, e2, e3, f1, f2 = x
        if not ({e1, e2, f1} <= {0, 1} and 0 <= e3 < self.e3_mod and 0 <= f2 < self.f2_mod):
            raise GroupMismatch(f"element outside group: {x}")
        s = (e1, e2, (-e3) % self.e3_mod, 0, 0)
        z = self.mul(x, s)
        xi = s[:3] + (z[3] & 1, (-z[4]) % self.f2_mod)
        if len(self._inverses) < self.order:
            self._inverses[x] = xi
        return xi


class TableGroup(_Group):
    """The quotient of a group by a normal subgroup N.  Its elements are the
    cosets of N as frozensets; a product of cosets is the coset of the
    product of their representatives."""

    def __init__(self, group, N: Subgroup):
        self._group = group
        reps = cosets(group, group.elements(), N.elements)
        self._rep = {cs: x for x, cs in reps.items()}
        self._coset_of = {x: cs for cs in self._rep for x in cs}
        self.identity = self._coset_of[group.identity]
        self.order = len(self._rep)

    def elements(self):
        return list(self._rep)

    def gens(self):
        return [self._coset_of[x] for x in self._group.gens()]

    def mul(self, c1, c2):
        try:
            return self._coset_of[self._group.mul(self._rep[c1], self._rep[c2])]
        except KeyError:
            raise GroupMismatch(f"coset outside quotient: {c1} * {c2}") from None

    def inv(self, c):
        try:
            return self._coset_of[self._group.inv(self._rep[c])]
        except KeyError:
            raise GroupMismatch(f"coset outside quotient: {c}") from None


def gamma(n: int, m: int, eps: int) -> PGroup:
    return PGroup(GroupParams(n, m, eps))


def gamma4r(n: int) -> PGroup:
    return PGroup(GroupParams(n, 1, 1, "Gamma4r"))


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    group: object
    elements: frozenset
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    @functools.cached_property
    def derived(self) -> Subgroup:
        """The commutator subgroup, derived once per Subgroup and kept."""
        return derived_subgroup(self)


def _extend(sub: Subgroup, x) -> Subgroup:
    """<sub, x> as the union of the right cosets S r of S = sub whose
    representatives r are closed under right multiplication by the
    generators (Dimino; Butler, Fundamental Algorithms for Permutation
    Groups, 1991).  S must be spanned by its generators."""
    g = sub.group
    gens = sub.generators + (x,)
    reps = [g.identity]
    span = set(sub.elements)
    for r in reps:
        for y in gens:
            ry = g.mul(r, y)
            if ry not in span:
                reps.append(ry)
                span.update(g.mul(s, ry) for s in sub.elements)
    return Subgroup(g, frozenset(span), gens)


def _span_over(base: Subgroup, xs) -> tuple[int, list]:
    """|<base, xs> / base|, and the members of xs that enlarged the span,
    each by one _extend step."""
    sub, used = base, []
    for x in xs:
        if x not in sub.elements:
            sub = _extend(sub, x)
            used.append(x)
    return sub.order // base.order, used


def subgroup(group, seeds, conj_gens=()) -> Subgroup:
    """The subgroup generated by `seeds` and closed under conjugation by
    `conj_gens` (the normal closure when they generate the ambient group).
    A seed or conjugate becomes a generator, and extends the span by one
    coset step, only when it falls outside the span so far; each one at
    least doubles the span, so there are at most log2 of the order
    generators."""
    conj_by = [(group.inv(y), y) for y in conj_gens]
    sub = Subgroup(group, frozenset({group.identity}), ())
    todo = list(seeds)
    while todo:
        x = todo.pop()
        if x in sub.elements:
            continue
        sub = _extend(sub, x)
        todo.extend(group.mul(group.mul(yi, x), y) for yi, y in conj_by)
    return sub


def whole_group(group) -> Subgroup:
    return Subgroup(group, frozenset(group.elements()), tuple(group.gens()))


def _normalizes(group, conj_gens, sub: Subgroup) -> bool:
    """Whether y^-1 x y lies in sub for every y in conj_gens and every x in
    sub's generators."""
    members = sub.elements
    for y in conj_gens:
        yi = group.inv(y)
        for x in sub.generators:
            if group.mul(group.mul(yi, x), y) not in members:
                return False
    return True


def derived_subgroup(h: Subgroup) -> Subgroup:
    """Commutator subgroup of h: the normal closure in h of the commutators
    of its generators (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 3.3), certified once: it must be normal in h, and h/h'
    abelian, which the commutators of generator pairs it was built from
    show, since comm(y, x) = comm(x, y)^-1 and comm(x, x) = 1."""
    g = h.group
    gens = h.generators
    comms = [g.comm(x, y) for x, y in itertools.combinations(gens, 2)]
    der = subgroup(g, comms, gens)
    # Certificate that der really is [h, h]: der must be normal in h and
    # h/der abelian; together with der <= [h,h] this forces equality.
    if not _normalizes(g, gens, der):
        raise StructureMismatch("derived subgroup candidate not normal")
    if not all(c in der.elements for c in comms):
        raise StructureMismatch("quotient by derived candidate not abelian")
    return der


def frattini_subgroup(h: Subgroup) -> Subgroup:
    """Frattini subgroup of a 2-group, h^2 [h, h]: the normal closure of the
    squares and pairwise commutators of h's generators."""
    g = h.group
    gens = h.generators
    seeds = [g.mul(x, x) for x in gens]
    seeds += [g.comm(x, y) for x, y in itertools.combinations(gens, 2)]
    return subgroup(g, seeds, gens)


def centre(group) -> Subgroup:
    els = group.elements()
    gens = group.gens()
    cen = [x for x in els if all(group.mul(x, g) == group.mul(g, x) for g in gens)]
    return subgroup(group, cen)


def lower_central_series(group, top: Subgroup | None = None) -> list[Subgroup]:
    """G_1 >= G_2 >= ... down to the trivial subgroup; G_(i+1) = [G_i, G] is
    the normal closure of the commutators of generators of G_i and G.  G_1
    is `top`, the whole group as a Subgroup, when the caller has built it."""
    gens = group.gens()
    series = [whole_group(group) if top is None else top]
    while True:
        cur = series[-1]
        comms = [group.comm(x, g) for x in cur.generators for g in gens]
        nxt = subgroup(group, comms, gens)
        series.append(nxt)
        if nxt.order == 1:
            return series
        if nxt.order == cur.order:  # pragma: no cover - nilpotent groups only
            raise StructureMismatch("lower central series does not terminate")


def abelian_type_of(h: Subgroup, modulo: Subgroup | None = None) -> AbelianType:
    """Invariant factors of h/modulo, after checking that modulo is normal in
    h and h/modulo abelian (see _abelian_type)."""
    g = h.group
    if modulo is None:
        modulo = subgroup(g, ())
    nset = modulo.elements
    if not nset <= h.elements:
        raise NotNormal("modulo is not contained in the subgroup")
    if not _normalizes(g, h.generators, modulo):
        raise NotNormal("modulo is not normal in the subgroup")
    # With modulo normal in h, h/modulo is abelian iff h's generators commute
    # modulo it.
    for x, y in itertools.combinations(h.generators, 2):
        if g.comm(x, y) not in nset:
            raise NonAbelianQuotient("quotient is not abelian")
    return _abelian_type(h, modulo)


def _abelian_type(h: Subgroup, modulo: Subgroup) -> AbelianType:
    """Invariant factors of h/modulo, for modulo normal in h with h/modulo
    abelian, from the spans <modulo, x^(2^j)> of powers of h's generators x
    (abelian_type_from_powers)."""
    g = h.group
    return abelian_type_from_powers(
        h.order // modulo.order, h.generators,
        lambda x: g.mul(x, x), lambda xs: _span_over(modulo, xs),
    )


def cosets(group, elements, nset: frozenset) -> dict:
    """The left cosets x N of N = nset that meet `elements`, each keyed by
    its least member in `elements`: a partition of `elements` when it is a
    union of cosets."""
    out = {}
    seen = set()
    for x in sorted(elements):
        if x not in seen:
            cs = frozenset(group.mul(x, w) for w in nset)
            seen.update(cs)
            out[x] = cs
    return out


def abelianization(h: Subgroup) -> AbelianType:
    """Invariant factors of h/h', read over the h' that derived_subgroup has
    certified normal with abelian quotient."""
    return _abelian_type(h, h.derived)


# ---------------------------------------------------------------------------
# Maximal and index-4 subgroups
# ---------------------------------------------------------------------------

def _frattini_labelling(h: Subgroup) -> tuple[Subgroup, list, list[list]]:
    """Phi(h), a Burnside basis b_1..b_r of h, and the elements of h grouped
    by label.

    The basis is read off h's generators: each one outside the cosets of
    Phi(h) labelled so far joins it (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 3.3).  Labels are subsets S of the basis,
    as bit masks, with y in Phi(h) prod_{i in S} b_i: Phi(h) gets the empty
    set, and a new b_i gives y b_i the label of y plus {i}, one
    multiplication per element of h outside Phi(h).
    """
    g = h.group
    phi = frattini_subgroup(h)
    label = dict.fromkeys(phi.elements, 0)
    basis = []
    for x in h.generators:
        if x in label:
            continue
        bit = 1 << len(basis)
        basis.append(x)
        before = len(label)
        label.update([(g.mul(y, x), s | bit) for y, s in label.items()])
        # An overlap would leave a hyperplane preimage short of index 2.
        if len(label) != 2 * before:
            raise RankMismatch("hyperplane preimage does not have index 2")
    if len(label) != h.order:
        raise RankMismatch("Burnside basis does not span the subgroup")
    labelled = [[] for _ in range(1 << len(basis))]
    for y, s in label.items():
        labelled[s].append(y)
    return phi, basis, labelled


def _hyperplane_preimage(phi: Subgroup, basis, labelled, w: int) -> Subgroup:
    """The preimage of the hyperplane of a nonzero w in F_2^r: the union of
    the cosets whose label meets w in an even number of indices, spanned by
    Phi(h)'s generators, the b_j with w_j = 0 and the b_i0 b_j with w_j = 1,
    j != i0, where i0 is the first index with w_i = 1."""
    g = phi.group
    i0 = (w & -w).bit_length() - 1
    gens = list(phi.generators)
    for j, b in enumerate(basis):
        if not w >> j & 1:
            gens.append(b)
        elif j != i0:
            gens.append(g.mul(basis[i0], b))
    members = frozenset(
        y for s, ys in enumerate(labelled) if bin(s & w).count("1") % 2 == 0 for y in ys
    )
    return Subgroup(g, members, tuple(gens))


def maximal_subgroups(h: Subgroup) -> list[Subgroup]:
    """All index-2 subgroups, as the preimages of the hyperplanes of
    h/Phi(h) for w = 1 .. 2^r - 1, read off one labelling pass."""
    phi, basis, labelled = _frattini_labelling(h)
    return [_hyperplane_preimage(phi, basis, labelled, w) for w in range(1, len(labelled))]


# H_1..H_7 are the kernels of these characters of G/Phi(G), with bit i on
# a_(i+1): H_1 is the kernel of the a3 character, H_2 of a1, H_3 of a1 + a3,
# H_4 of a2, H_5 of a1 + a2, H_6 of a2 + a3 and H_7 of a1 + a2 + a3.
_STANDARD_CHARACTERS = (4, 1, 5, 2, 3, 6, 7)


def standard_maximal_subgroups(
    g: PGroup, top: Subgroup | None = None
) -> tuple[list[Subgroup], Subgroup]:
    """The seven maximal subgroups H_1..H_7 in the standard labeling, and
    the Phi(G) they were read over, which fixes the genus field: one
    labelling pass over G, whose Burnside basis must be (a1, a2, a3).  G is
    `top`, the whole group as a Subgroup, when the caller has built it."""
    phi, basis, labelled = _frattini_labelling(whole_group(g) if top is None else top)
    if basis != [g.a1, g.a2, g.a3]:
        raise RankMismatch("Burnside basis of the group is not (a1, a2, a3)")
    subs = [_hyperplane_preimage(phi, basis, labelled, w) for w in _STANDARD_CHARACTERS]
    return subs, phi


def capitulation_subgroups(subs: list[Subgroup], phi: Subgroup) -> tuple[Subgroup, Subgroup]:
    """H_2 and H_1 cap H_2 = <Phi(G), a2>, from standard_maximal_subgroups:
    the transfer from H_2 to the intersection has a kernel of order 8 for
    eps = 0 and 4 for eps = 1 (capitulation in K/k(sqrt(p)))."""
    return subs[1], _extend(phi, phi.group.a2)


def subgroups_of_index4(group, top: Subgroup | None = None) -> list[tuple[Subgroup, bool]]:
    """All index-4 subgroups with a normality flag, via maximal subgroups of
    maximal subgroups.  The group is `top`, the whole group as a Subgroup,
    when the caller has built it."""
    return _index4(group, maximal_subgroups(whole_group(group) if top is None else top))


def _index4(group, maximals) -> list[tuple[Subgroup, bool]]:
    """subgroups_of_index4 from the group's maximal subgroups."""
    gens = group.gens()
    seen = {}
    for mx in maximals:
        for sub in maximal_subgroups(mx):
            seen[sub.elements] = sub
    return [
        (sub, _normalizes(group, gens, sub))
        for _, sub in sorted(seen.items(), key=lambda kv: sorted(kv[0]))
    ]


# ---------------------------------------------------------------------------
# Transfer maps
# ---------------------------------------------------------------------------

def transfer_values(K: Subgroup, H: Subgroup, xs) -> list:
    """Representatives of t_{K,H}(x K') modulo H' for each x in xs, with
    (K:H) = 2 and z the least element of K outside H: x^2 [x, z] for x in H,
    x^2 otherwise."""
    g = K.group
    if not H.elements <= K.elements or 2 * H.order != K.order:
        raise IndexNotTwo("H must have index 2 in K")
    z = min(y for y in K.elements if y not in H.elements)
    out = []
    for x in xs:
        if x not in K.elements:
            raise ElementOutsideK(f"{x} is not in the source subgroup")
        sq = g.mul(x, x)
        out.append(g.mul(sq, g.comm(x, z)) if x in H.elements else sq)
    return out


def transfer_kernel(K: Subgroup, targets) -> list[tuple[int, Subgroup]]:
    """Kernels of the induced maps K/K' -> H/H', one per H of index 2 in K
    in `targets`, from one K' and one transversal of K' in K.

    Each kernel comes as (order, ker): ker is its preimage in K, spanned by
    K' and the transversal elements whose transfer lies in H', and order is
    the number of cosets of K' in ker.
    """
    g = K.group
    kprime = K.derived
    reps = list(cosets(g, K.elements, kprime.elements))
    out = []
    for H in targets:
        hprime = H.derived.elements
        inside = [x for x, val in zip(reps, transfer_values(K, H, reps)) if val in hprime]
        out.append((len(inside), subgroup(g, list(kprime.generators) + inside)))
    return out


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient_group(group, N: Subgroup) -> TableGroup:
    """The quotient of the full group by a normal subgroup, as a TableGroup
    over frozenset cosets."""
    if not _normalizes(group, group.gens(), N):
        raise NotNormal("subgroup is not normal")
    return TableGroup(group, N)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    order: int
    abelianization: AbelianType
    derived_type: AbelianType
    exponent: int
    center_order: int
    lcs_orders: tuple[int, ...]
    sub_index2: tuple
    sub_index4: tuple
    elt_order_histogram: tuple


def _element_orders(group) -> dict:
    """Order of every element of a 2-group, read off one squaring each:
    order(x) = 2 order(x^2) for x != 1."""
    square = {x: group.mul(x, x) for x in group.elements()}
    order = {group.identity: 1}

    def order_of(x):
        if x not in order:
            order[x] = 2 * order_of(square[x])
        return order[x]

    return {x: order_of(x) for x in square}


def fingerprint(group) -> Fingerprint:
    top = whole_group(group)
    der = top.derived
    hist: dict[int, int] = {}
    for o in _element_orders(group).values():
        hist[o] = hist.get(o, 0) + 1
    maximals = maximal_subgroups(top)
    idx2 = sorted(abelianization(mx).parts for mx in maximals)
    idx4 = sorted(
        (abelianization(sub).parts, normal)
        for sub, normal in _index4(group, maximals)
    )
    return Fingerprint(
        order=top.order,
        abelianization=_abelian_type(top, der),
        derived_type=abelian_type_of(der),
        exponent=max(hist),
        center_order=centre(group).order,
        lcs_orders=tuple(t.order for t in lower_central_series(group, top)),
        sub_index2=tuple(map(tuple, idx2)),
        sub_index4=tuple(idx4),
        elt_order_histogram=tuple(sorted(hist.items())),
    )


def distinguish(g1, g2) -> str:
    """"Distinct" is a certificate of non-isomorphism; "NotDistinguished"
    is inconclusive."""
    return "Distinct" if fingerprint(g1) != fingerprint(g2) else "NotDistinguished"


# ---------------------------------------------------------------------------
# Presentation oracle
# ---------------------------------------------------------------------------

# Triples drawn by the sampled associativity and Hall-Witt checks.
_ASSOC_SAMPLES = 10**4
_WITT_SAMPLES = 2000
# Largest group whose Cayley table the sampled checks read: its 65,536
# entries are fewer than the 132,000 products the samples make.
_TABLE_MAX_ORDER = 256


def _cayley_table(g, els):
    """(rows, inverse, identity) over the indices of els: rows[i][j] is the
    index of els[i] * els[j] and inverse[i] that of els[i]^-1, each filled
    once by g.mul and g.inv, and identity the index of g.identity.  A product,
    inverse or identity outside els is None."""
    index = {x: i for i, x in enumerate(els)}.get
    rows = [list(map(index, map(g.mul, itertools.repeat(x), els))) for x in els]
    return rows, list(map(index, map(g.inv, els))), index(g.identity)


def _associativity_table_sample(rng, t, count: int) -> bool:
    """_associativity_sample over the rows t of a Cayley table: the same
    triples, each product one lookup."""
    draw = iter(rng.choices(range(len(t)), k=3 * count))
    for x, y, z in zip(draw, draw, draw):
        if t[t[x][y]][z] != t[x][t[y][z]]:
            return False
    return True


def _witt_table_sample(rng, t, inv, ident, count: int) -> bool:
    """_witt_sample over the rows t and inverse list inv of a Cayley table:
    the same triples and the same products in the same order, with comm(u, v)
    written out as t[t[inv[u]][inv[v]]][t[u][v]] and conj(u, v) as
    t[t[inv[v]][u]][v]."""
    draw = iter(rng.choices(range(len(t)), k=3 * count))
    for x, y, z in zip(draw, draw, draw):
        ix, iy, iz = inv[x], inv[y], inv[z]
        # t1 = conj(comm(comm(x, y^-1), z), y), and t2, t3 cyclically.
        u = t[t[ix][inv[iy]]][t[x][iy]]
        u = t[t[inv[u]][iz]][t[u][z]]
        t1 = t[t[iy][u]][y]
        u = t[t[iy][inv[iz]]][t[y][iz]]
        u = t[t[inv[u]][ix]][t[u][x]]
        t2 = t[t[iz][u]][z]
        u = t[t[iz][inv[ix]]][t[z][ix]]
        u = t[t[inv[u]][iy]][t[u][y]]
        t3 = t[t[ix][u]][x]
        if t[t[t1][t2]][t3] != ident:
            return False
        # The Witt word comm(comm(x, y), z) comm(comm(y, z), x) comm(comm(z, x), y).
        u = t[t[ix][iy]][t[x][y]]
        u = t[t[inv[u]][iz]][t[u][z]]
        v = t[t[iy][iz]][t[y][z]]
        v = t[t[inv[v]][ix]][t[v][x]]
        w = t[u][v]
        u = t[t[iz][ix]][t[z][x]]
        u = t[t[inv[u]][iy]][t[u][y]]
        if t[w][u] != ident:
            return False
    return True


def _associativity_sample(rng, points, mul, count: int) -> bool:
    """(xy)z == x(yz) on count triples drawn from points in one call."""
    draw = iter(rng.choices(points, k=3 * count))
    for x, y, z in zip(draw, draw, draw):
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            return False
    return True


def _witt_sample(rng, points, mul, inv, ident, count: int) -> bool:
    """The Hall-Witt identity, and the Witt word being trivial (true in a
    metabelian group), on count triples drawn from points in one call."""

    def comm(x, y):
        return mul(mul(inv(x), inv(y)), mul(x, y))

    def conj(x, y):
        return mul(mul(inv(y), x), y)

    draw = iter(rng.choices(points, k=3 * count))
    for x, y, z in zip(draw, draw, draw):
        t1 = conj(comm(comm(x, inv(y)), z), y)
        t2 = conj(comm(comm(y, inv(z)), x), z)
        t3 = conj(comm(comm(z, inv(x)), y), x)
        if mul(mul(t1, t2), t3) != ident:
            return False
        w = mul(mul(comm(comm(x, y), z), comm(comm(y, z), x)),
                comm(comm(z, x), y))
        if w != ident:
            return False
    return True


def verify_presentation(g, seed: int = 0) -> dict:
    """Independent checks that the collection engine realizes the intended
    presentation: element count, identity, inverses, relations, closure
    (groups of order up to 256), sampled associativity, the standard
    commutator identities on the generators, sampled Hall-Witt identities and
    generation, reported in that order.  Returns a report dict; never raises.

    The two sampled checks draw 10^4 associativity triples of 4 products
    each and 2000 Hall-Witt triples of 46 products each, 132,000 products in
    all.  For a group of order up to 256, whose Cayley table has fewer
    entries than that, g.mul and g.inv fill the table once; a product,
    inverse or identity outside g.elements() fails "closure", and otherwise
    the samples read the table's index rows, so they see exactly the
    engine's products with no call per product.  A larger group, or one that
    fails closure, is sampled through g.mul.  Each check draws all its
    triples with one rng.choices call, over indices on the table path and
    over g.elements() on the direct path, so a seed samples the same triples
    on both.
    """
    report = {"order": None, "failures": [], "seed": seed}
    mul, inv, comm, gpow = g.mul, g.inv, g.comm, g.pow
    ident = g.identity
    a1, a2, a3 = g.gens()
    c12 = comm(a1, a2)
    c13 = comm(a1, a3)
    c23 = comm(a2, a3)

    def check(name, ok):
        if not ok:
            report["failures"].append(name)

    els = g.elements()
    report["order"] = len(els)
    check("element-count", len(set(els)) == g.order)
    check("identity", all(mul(x, ident) == x and mul(ident, x) == x
                          for x in els))
    check("inverses", all(mul(x, inv(x)) == ident for x in els))

    if g.params.family == "Gamma":
        n, m = g.params.n, g.params.m
        half = 1 << (m - 1)
        check("rel-a1sq", gpow(a1, 2) == inv(c13))
        check("rel-a2sq", gpow(a2, 2) == gpow(c13, half * g.params.eps))
        check("rel-a3pow",
              gpow(a3, 1 << n) == mul(c12, gpow(c13, half)))
        check("rel-c23", c23 == ident)
        check("rel-c12sq", gpow(c12, 2) == ident)
        check("rel-c13pow", gpow(c13, 1 << m) == ident)
    else:
        n = g.params.n
        check("rel-a1sq", gpow(a1, 2) == c12)
        check("rel-a2sq", gpow(a2, 2) == c12)
        check("rel-a3pow", gpow(a3, 1 << n) == c13)
        check("rel-c23", c23 == ident)
        check("rel-cijsq", gpow(c12, 2) == ident and gpow(c13, 2) == ident)

    table = _cayley_table(g, els) if len(els) <= _TABLE_MAX_ORDER else None
    if table is not None:
        rows, tinv, tident = table
        closed = tident is not None and None not in tinv and not any(
            None in row for row in rows)
        check("closure", closed)
        if not closed:
            table = None
    rng = random.Random(seed)
    if table is None:
        check("associativity-sample",
              _associativity_sample(rng, els, mul, _ASSOC_SAMPLES))
    else:
        check("associativity-sample",
              _associativity_table_sample(rng, rows, _ASSOC_SAMPLES))

    # Commutator identities on generators (metabelian form).
    gens = [a1, a2, a3]
    ok_gen = True
    for i, j, l in itertools.product(range(3), repeat=3):
        lhs = comm(mul(gens[i], gens[j]), gens[l])
        cil = comm(gens[i], gens[l])
        cjl = comm(gens[j], gens[l])
        cilj = comm(cil, gens[j])
        if lhs != mul(mul(cil, cjl), cilj):
            ok_gen = False
        lhs2 = comm(gens[i], mul(gens[j], gens[l]))
        cij = comm(gens[i], gens[j])
        cijl = comm(cij, gens[l])
        if lhs2 != mul(mul(cij, cil), cijl):
            ok_gen = False
    check("product-commutator-identities", ok_gen)

    if table is None:
        check("witt-identities",
              _witt_sample(rng, els, mul, inv, ident, _WITT_SAMPLES))
    else:
        check("witt-identities",
              _witt_table_sample(rng, rows, tinv, tident, _WITT_SAMPLES))

    check("generation", subgroup(g, gens).order == g.order)
    report["ok"] = not report["failures"]
    return report
