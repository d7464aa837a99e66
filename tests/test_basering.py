from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbtaut.basering import (
    BaseClass,
    Ring,
    make_boundary_ring,
    make_node_base_ring,
    make_total_space_ring,
)
from hilbtaut.charpoly import CharPoly
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.lincomb import merge_monos
from reference import integrate_classes


@pytest.fixture
def xring():
    return make_total_space_ring(1)


@pytest.fixture
def bring():
    return make_boundary_ring(2)


def rand_class(ring, draw_coeffs):
    out = BaseClass(ring)
    gens = [BaseClass.unit(ring)] + [BaseClass.gen(ring, n) for n in sorted(ring.symbols)]
    for g, c in zip(gens, draw_coeffs):
        out = out + g * Fraction(c)
    return out


coeffs = st.lists(st.integers(min_value=-3, max_value=3), min_size=8, max_size=8)


@given(coeffs, coeffs)
@settings(max_examples=60)
def test_multiply_commutative(a, b):
    ring = make_boundary_ring(2)
    x, y = rand_class(ring, a), rand_class(ring, b)
    assert x * y == y * x


@given(coeffs, coeffs, coeffs)
@settings(max_examples=60)
def test_multiply_associative_distributive(a, b, c):
    ring = make_boundary_ring(2)
    x, y, z = (rand_class(ring, v) for v in (a, b, c))
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_unit_law(xring):
    L = BaseClass.gen(xring, "L")
    assert BaseClass.unit(xring) * L == L


def test_ring_identity(xring):
    L = BaseClass.gen(xring, "L")
    w = BaseClass.gen(xring, "omega")
    assert (L + w) * (L - w) == L * L - w * w


def test_degree_cap(xring):
    L = BaseClass.gen(xring, "L")
    assert not L ** 3
    assert L ** 2


def test_section_relations(bring):
    tx = BaseClass.gen(bring, "theta_x")
    ty = BaseClass.gen(bring, "theta_y")
    w = BaseClass.gen(bring, "omega")
    psi_x = BaseClass.gen(bring, "psi_x")
    assert not tx * ty
    assert tx * tx == -(psi_x * tx)
    # canonical class restricted to a section is its psi class
    assert w * tx == psi_x * tx


def test_section_power(bring):
    # theta^r = (-psi)^(r-1) theta, both by repeated products and by normalizing theta^r
    big = make_boundary_ring(3)  # theta^3 is visible on a 3-dimensional family
    tx, psi_x = BaseClass.gen(big, "theta_x"), BaseClass.gen(big, "psi_x")
    assert tx ** 3 == psi_x ** 2 * tx
    assert tx ** 3
    for ring in (bring, big):
        theta = BaseClass.gen(ring, "theta_x")
        minus_psi = -BaseClass.gen(ring, "psi_x")
        for r in range(1, 6):
            expected = minus_psi ** (r - 1) * theta
            assert theta ** r == expected
            assert BaseClass(ring, {(("theta_x", r),): 1}) == expected


def canonical_monomials(ring):
    """Every canonical monomial of degree at most the ring's dimension."""
    out = [()]
    for name in sorted(ring.symbols):
        out = [
            mono + (((name, p),) if p else ())
            for mono in out
            for p in range(ring.dim - ring.degree(mono) + 1)
        ]
    return [mono for mono in out if ring.normalize_monomial(mono) == (1, mono)]


every_ring_shape = pytest.mark.parametrize(
    "make_ring",
    [
        lambda: make_total_space_ring(0),
        lambda: make_total_space_ring(1),
        lambda: make_total_space_ring(2),
        lambda: make_boundary_ring(2),
        lambda: make_node_base_ring(3),
    ],
    ids=["total0", "total1", "total2", "boundary", "node_base"],
)


@every_ring_shape
def test_merge_memo_equals_normalizing_the_product(make_ring):
    ring = make_ring()
    monos = canonical_monomials(ring)
    results = []
    Ring.merge.cache_clear()
    for round_ in range(2):  # the second round reads the memo
        for m1 in monos:
            for m2 in monos:
                expected = ring.normalize_monomial(m1 + m2)
                assert ring.merge(m1, m2) == expected, (m1, m2)
                results.append(expected)
        info = Ring.merge.cache_info()
        assert (info.misses, info.hits) == (len(monos) ** 2, round_ * len(monos) ** 2)
    assert None in results and len(results) == 2 * len(monos) ** 2


def test_merge_raises_on_unknown_symbols_every_time(xring):
    known = (("L", 1),)
    for _ in range(3):
        with pytest.raises(KeyError, match="psi_x"):
            xring.merge(known, (("psi_x", 1),))
        with pytest.raises(KeyError, match="tauL"):
            xring.merge((("tauL", 1),), ())
    assert xring.merge(known, known) == (1, (("L", 2),))


def test_merge_memo_keeps_rings_of_two_dimensions_apart():
    # the boundary rings of node s over 1- and 2-dimensional bases share their
    # label and symbols; only the dimension tells the degree-2 product apart
    low = symbolic_family(1).boundary_family().total_ring
    high = symbolic_family(2).boundary_family().total_ring
    assert low.label == high.label and low is not high
    square = (("L", 1),), (("theta_x", 1),)
    assert low.merge(*square) is None
    assert high.merge(*square) == (1, (("L", 1), ("theta_x", 1)))
    assert low.merge(*square) is None
    cube = (("L", 2),), (("omega", 1),)
    assert symbolic_family(1).total_ring.merge(*cube) is None
    assert symbolic_family(2).total_ring.merge(*cube) == (1, (("L", 2), ("omega", 1)))


@every_ring_shape
def test_split_memo_equals_splitting_afresh(make_ring):
    ring = make_ring()
    monos = canonical_monomials(ring)
    base_monos = [mono for mono in monos if all(n in ring.base for n, _ in mono)]
    pairs = len(base_monos) * len(monos)
    Ring.split.cache_clear()
    for round_ in range(2):  # the second round reads the memo
        for base_mono in base_monos:
            for mono in monos:
                pulled = tuple(pair for pair in mono if pair[0] in ring.base)
                rest = tuple(pair for pair in mono if pair[0] not in ring.base)
                expected = merge_monos(base_mono, pulled), rest
                assert ring.split(base_mono, mono) == expected, (base_mono, mono)
        info = Ring.split.cache_info()
        assert (info.misses, info.hits) == (pairs, round_ * pairs)


def test_split_memo_keeps_rings_of_two_dimensions_apart():
    # same label and symbols: the memo is keyed by the ring, one entry each
    low = symbolic_family(1).boundary_family().total_ring
    high = symbolic_family(2).boundary_family().total_ring
    assert low.label == high.label and low is not high
    mono = (("L", 1), ("psi_x", 1))
    Ring.split.cache_clear()
    assert low.split((), mono) == ((("psi_x", 1),), (("L", 1),))
    assert high.split((), mono) == ((("psi_x", 1),), (("L", 1),))
    assert Ring.split.cache_info().misses == 2
    assert high.split((("tauL", 1),), mono) == ((("psi_x", 1), ("tauL", 1)), (("L", 1),))
    assert low.split((), mono) is low.split((), mono)
    info = Ring.split.cache_info()
    assert (info.hits, info.misses) == (2, 3)


@pytest.mark.parametrize(
    "make_ring", [make_total_space_ring, make_boundary_ring, make_node_base_ring]
)
def test_one_ring_per_shape_and_dimension(make_ring):
    ring = make_ring(2)
    hits = make_ring.cache_info().hits
    assert make_ring(2) is ring
    assert make_ring.cache_info().hits == hits + 1
    assert make_ring(3) is not ring and make_ring(3).dim == ring.dim + 1


def test_families_of_one_dimension_share_their_rings():
    # other characters and other nodes: the relations depend on the dimension alone
    one = symbolic_family(2)
    other = FamilyDescriptor(2, chars={"d": 5, "b": 3}, nodes=[Node("p", 2), Node("q", 1)])
    assert one.total_ring is other.total_ring is make_total_space_ring(2)
    assert one.node_base_ring is other.node_base_ring is make_node_base_ring(2)
    assert one.boundary_family() is not other.boundary_family()
    assert one.boundary_family().total_ring is other.boundary_family().total_ring
    assert symbolic_family(1).total_ring is not one.total_ring


def test_mixed_rings_error(xring, bring):
    with pytest.raises(ValueError, match="mixed rings"):
        BaseClass.gen(xring, "L") * BaseClass.gen(bring, "L")


@given(coeffs)
@settings(max_examples=40)
def test_canonicalization_idempotent(a):
    ring = make_boundary_ring(2)
    x = rand_class(ring, a)
    again = BaseClass(ring, x.terms)
    assert again == x


@given(coeffs, coeffs)
@settings(max_examples=60)
def test_relation_closure_of_products(a, b):
    # no canonical monomial mixes the two sections, carries a section past its
    # psi rewrite, or exceeds the dimension of the space
    ring = make_boundary_ring(2)
    x, y = rand_class(ring, a), rand_class(ring, b)
    for mono in (x * y).terms:
        powers = dict(mono)
        assert not (powers.get("theta_x") and powers.get("theta_y"))
        assert powers.get("theta_x", 0) <= 1 and powers.get("theta_y", 0) <= 1
        if powers.get("theta_x") or powers.get("theta_y"):
            assert "omega" not in powers
        assert ring.degree(mono) <= ring.dim


def test_integrate_fiber_product():
    fam = symbolic_family(1)
    ring = fam.total_ring
    L = BaseClass.gen(ring, "L")
    val = integrate_classes(fam, [L * L, L, L])
    assert val == CharPoly.symbol("b") * CharPoly.symbol("d") ** 2


def test_integrate_zero_class():
    fam = symbolic_family(1)
    ring = fam.total_ring
    assert not integrate_classes(fam, [BaseClass(ring)])


def test_integrate_two_excess_factors_vanishes():
    fam = symbolic_family(1)
    ring = fam.total_ring
    L2 = BaseClass.gen(ring, "L") ** 2
    # two fiber-excess factors over a curve base: not top-dimensional
    with pytest.raises(ValueError):
        integrate_classes(fam, [L2, L2])


def test_integrate_degree_mismatch():
    fam = symbolic_family(1)
    ring = fam.total_ring
    L = BaseClass.gen(ring, "L")
    with pytest.raises(ValueError, match="top-dimensional"):
        integrate_classes(fam, [L, L])
