import hashlib
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from hilbtaut import tautmod
from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import chern_class_on_hilb
from hilbtaut.cli import load_descriptor, main as cli_main
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.tautmod import (
    TautClass,
    _diag_codim,
    _minus_divisor_pair,
    _top,
    from_data,
    gamma_action,
    gamma_power,
    integrate,
    nu_coeff,
    scroll_divisor,
    to_data,
    twists,
)
from hilbtaut.transfer import transfer
from reference import (
    codim_parts,
    drop_zero_classes,
    gamma_action_per_index_pair,
    gamma_power_on_scroll,
    sigma_coefficient_fit,
    twists_per_block,
    unreduced_gamma_power,
)

TESTS = Path(__file__).parent


def sym(name):
    return CharPoly.symbol(name)


@pytest.fixture
def fam():
    return symbolic_family(1)


def blocks(*parts):
    return tuple((n, ()) for n in parts)


# -- small-diagonal multiplicities ----------------------------------------------


def test_nu_vectors():
    assert [nu_coeff(2, j) for j in range(1, 2)] == [1]
    assert [nu_coeff(3, j) for j in range(1, 3)] == [3, 3]
    assert [nu_coeff(4, j) for j in range(1, 4)] == [6, 8, 6]
    assert [nu_coeff(5, j) for j in range(1, 5)] == [10, 15, 15, 10]
    for m in range(2, 9):
        total = sum(nu_coeff(m, j) for j in range(1, m))
        assert total == Fraction(m * m * (m * m - 1), 12)


def test_small_diag_gamma(fam):
    small = TautClass(fam, 4)
    small.add_diag((), blocks(4), 1)
    out = gamma_action(small)
    # -binom(4,2) omega on the small diagonal
    assert out.diag == {((), ((4, (("omega", 1),)),)): CharPoly.const(-6)}
    for j in range(1, 4):
        payload = out.scroll[("s", 4, j)]
        assert payload.diag == {((), ()): nu_coeff(4, j) * sym("sigma")}


def test_small_diag_gamma_squared_degree(fam):
    # over a 1-dimensional base the square of the polarization restricted to
    # the small diagonal has degree -sigma nu_m + binom(m,2)^2 omega2
    for m in (2, 3, 4, 5, 6):
        cls = TautClass(fam, m)
        cls.add_diag((), blocks(m), 1)
        out = gamma_action(gamma_action(cls))
        nu_m = Fraction(m * m * (m * m - 1), 12)
        c2 = Fraction(m * (m - 1), 2) ** 2
        assert integrate(out) == sym("omega2") * c2 - sym("sigma") * nu_m


# -- discriminant powers -----------------------------------------------------------


@pytest.mark.parametrize(
    "family",
    [symbolic_family(1), FamilyDescriptor(1, nodes=[Node("p", 2), Node("q", Fraction(1, 3))])],
    ids=["symbolic", "two-nodes"],
)
def test_gamma_once_is_half_the_two_point_diagonal(family):
    # Gamma . 1 is the typed half-diagonal (2, 1^(m-2)), with no node terms
    for m in range(2):
        assert not gamma_power(family, m, 1)
    for m in range(2, 9):
        once = gamma_power(family, m, 1)
        assert once.diag == {((), blocks(2, *[1] * (m - 2))): CharPoly.const(Fraction(1, 2))}
        assert not once.scroll and not once.section


def test_disc_square_shape(fam):
    out = gamma_power(fam, 2, 2)
    assert out.diag == {((), ((2, (("omega", 1),)),)): CharPoly.const(Fraction(-1, 2))}
    payload = out.scroll[("s", 2, 1)]
    assert payload.diag == {((), ()): sym("sigma") * Fraction(1, 2)}


def test_disc_square_general_m(fam):
    out = gamma_power(fam, 4, 2)
    expect = {
        ((), blocks(2, 2)): CharPoly.const(Fraction(1, 2)),
        ((), blocks(3, 1)): CharPoly.const(1),
        ((), ((2, (("omega", 1),)), (1, ()), (1, ()))): CharPoly.const(Fraction(-1, 2)),
    }
    assert out.diag == expect
    assert set(out.scroll) == {("s", 2, 1)}


def test_gamma_cube_m3(fam):
    out = gamma_power(fam, 3, 3)
    expect = {
        ((), ((3, (("omega", 1),)),)): CharPoly.const(-4),
        ((), ((2, (("omega", 2),)), (1, ()))): CharPoly.const(Fraction(1, 2)),
    }
    assert out.diag == expect
    # scroll sector: two components of the triple-point locus plus the section
    assert set(out.scroll) == {("s", 3, 1), ("s", 3, 2)}
    for j in (1, 2):
        assert out.scroll[("s", 3, j)].diag == {((), ()): sym("sigma") * 3}
    assert set(out.section) == {("s", 2, 1)}


def test_gamma_times_triple_block(fam):
    # the triple-point locus with two free points: unite pairs, interior
    # omega with weight 3, and both scroll components with multiplicity 3
    cls = TautClass(fam, 5)
    cls.add_diag((), blocks(3, 1, 1), 1)
    out = gamma_action(cls)
    expect = {
        ((), blocks(3, 2)): CharPoly.const(Fraction(1, 2)),
        ((), blocks(4, 1)): CharPoly.const(3),
        ((), ((3, (("omega", 1),)), (1, ()), (1, ()))): CharPoly.const(-3),
    }
    assert out.diag == expect
    for j in (1, 2):
        payload = out.scroll[("s", 3, j)]
        assert payload.diag == {((), ((1, ()), (1, ()))): sym("sigma") * 3}


def test_golden_integrals(fam):
    assert integrate(gamma_power(fam, 2, 3)) == (
        sym("omega2") * Fraction(1, 2) - sym("sigma") * Fraction(1, 2)
    )
    assert integrate(gamma_power(fam, 3, 4)) == sym("omega2") * 13 - sym("sigma") * 9
    assert not integrate(TautClass(fam, 2).scale(5))


def test_degree_four_fifth_power_regression(fam):
    # frozen engine value; the canonical-degree term tracks the pullback of
    # the dualizing class through the normalization (degree 2g-2 per section)
    w2, sg, tg = sym("omega2"), sym("sigma"), sym("twogm2")
    expected = w2 * 280 - sg * 160 - w2 * tg * Fraction(5, 2) + sg * tg * Fraction(5, 2)
    assert integrate(gamma_power(fam, 4, 5)) == expected


def test_degree_five_sixth_power_regression(fam):
    # deepest recursion in the suite: payloads three boundary levels down
    w2, sg, tg = sym("omega2"), sym("sigma"), sym("twogm2")
    expected = (
        w2 * 6185 - sg * 3125 - w2 * tg * Fraction(275, 2) + sg * tg * Fraction(215, 2)
    )
    assert integrate(gamma_power(fam, 5, 6)) == expected


def test_scroll_polarization_degree():
    fam = FamilyDescriptor(1, nodes=[Node("s", 1)])
    bd = fam.boundary_family()
    payload = TautClass.fundamental(bd, 1)
    cls = gamma_power_on_scroll(fam, 3, "s", 2, 1, payload, 2)
    assert integrate(cls) == CharPoly.const(-6)


def test_scroll_power_matches_iteration(fam):
    # closed form for the polarization powers on a scroll vs direct iteration
    bd = fam.boundary_family()
    for m, n in ((3, 2), (4, 2), (4, 3), (5, 3)):
        payload = TautClass.fundamental(bd, m - n)
        for j in range(1, n):
            for ell in (1, 2, 3):
                closed = gamma_power_on_scroll(fam, m, "s", n, j, payload, ell)
                iterated = TautClass(fam, m)
                iterated.add_node("scroll", "s", n, j, payload)
                for _ in range(ell):
                    iterated = gamma_action(iterated)
                assert closed == iterated.scale(Fraction((-1) ** ell)), (m, n, j, ell)


def test_sector_triangularity(fam):
    diag = TautClass(fam, 3)
    diag.add_diag((), blocks(2, 1), 1)
    out = gamma_action(diag)
    assert out.diag and out.scroll and not out.section

    scroll = TautClass(fam, 3)
    scroll.add_node("scroll", "s", 2, 1, TautClass.fundamental(fam.boundary_family(), 1))
    out = gamma_action(scroll)
    assert not out.diag and not out.scroll and out.section

    section = TautClass(fam, 3)
    section.add_node("section", "s", 2, 1, TautClass.fundamental(fam.boundary_family(), 1))
    out = gamma_action(section)
    assert not out.diag and out.section

    # with enough room on the boundary the scroll part of a section survives
    section4 = TautClass(fam, 4)
    section4.add_node("section", "s", 2, 1, TautClass.fundamental(fam.boundary_family(), 2))
    out = gamma_action(section4)
    assert not out.diag and out.scroll and out.section


def test_weighted_node_linearity():
    # scaling every node weight scales all scroll and section coefficients;
    # with characters bound to zero the integral isolates the node part
    t = Fraction(7, 3)
    fam1 = FamilyDescriptor(1, nodes=[Node("s", 1)])
    famt = FamilyDescriptor(1, nodes=[Node("s", t)])
    for m, k in ((2, 3), (3, 4)):
        ia = integrate(gamma_power(fam1, m, k))
        ib = integrate(gamma_power(famt, m, k))
        node_part = ia.substitute({"omega2": CharPoly()})
        assert ib - ia == node_part * (t - 1)


def test_multi_node_additivity():
    # two nodes of weights u, v behave like total weight u + v
    u, v = Fraction(2, 5), Fraction(3, 5)
    fam2 = FamilyDescriptor(1, nodes=[Node("p", u), Node("q", v)])
    fam1 = FamilyDescriptor(1, nodes=[Node("s", 1)])
    for m, k in ((2, 3), (3, 4)):
        assert integrate(gamma_power(fam2, m, k)) == integrate(gamma_power(fam1, m, k))


@st.composite
def node_families(draw):
    """(dim_b, characters, nodes, m): 1-3 nodes with their own weights, tau_L and IT values."""
    dim_b = draw(st.integers(1, 3))
    chars = {"d": draw(st.sampled_from([2, Fraction(5, 2)]))} if draw(st.booleans()) else {}
    nodes = []
    for node_id in "pqr"[: draw(st.integers(1, 3))]:
        weight = draw(st.sampled_from([1, 2, Fraction(1, 3), sym("w_" + node_id)]))
        psi_table = {}
        if dim_b >= 2 and draw(st.booleans()):
            # an integral over the node's boundary base T, of dimension dim_b - 1
            key = "IT[%s|psi_y%s|]" % (node_id, "" if dim_b == 2 else "^2")
            psi_table[key] = CharPoly.const(draw(st.sampled_from([-1, 5, Fraction(7, 2)])))
        tau_L = draw(st.sampled_from([None, 0, 3] if dim_b < 3 else [None]))
        nodes.append(Node(node_id, weight, tau_L=tau_L, psi_table=psi_table))
    return dim_b, chars, nodes, draw(st.integers(2, 4 - (dim_b == 3)))


@given(node_families())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_node_contributions_add_up(case):
    # each node enters through its own data only: the integral over a family
    # is the node-free integral plus every one-node family's excess over it,
    # and each node's sectors of a power, of the Chern class and of a transfer
    # are those of its one-node family
    dim_b, chars, nodes, m = case

    def family(nodes):
        return FamilyDescriptor(dim_b, chars=chars, nodes=nodes)

    def integral(nodes):
        return integrate(gamma_power(family(nodes), m, m + dim_b))

    free = integral([])
    expected = free + sum((integral([node]) - free for node in nodes), CharPoly())
    assert integral(nodes) == expected

    def node_entries(data, node_id):
        return [[t for t in data[s] if t["node"] == node_id] for s in ("scroll", "section")]

    def each_node_alone(build):
        whole = to_data(build(family(nodes)))
        for node in nodes:
            alone = to_data(build(family([node])))
            assert node_entries(whole, node.node_id) == node_entries(alone, node.node_id)

    # below top degree, so the scroll and section terms survive
    k = m + dim_b - 1
    power = gamma_power.__wrapped__(family(nodes), m, k)
    assert {key[0] for key in [*power.scroll, *power.section]} == {node.node_id for node in nodes}

    def moved(fam):
        ring = fam.total_ring
        beta = BaseClass.unit(ring) + BaseClass.gen(ring, "L")
        return transfer(gamma_power.__wrapped__(fam, m, k), beta)

    # through the shape memo's bind, and through the per-node operators themselves
    for fn in (gamma_power, gamma_power.__wrapped__):
        each_node_alone(lambda fam: fn(fam, m, k))
    for fn in (chern_class_on_hilb, chern_class_on_hilb.__wrapped__):
        each_node_alone(lambda fam: fn(fam, 3))
    each_node_alone(moved)


@pytest.mark.parametrize("weights", [[1], [1, 2, 3], [1, 2, Fraction(1, 2), 3, Fraction(2, 3), 5]])
def test_node_sectors_cost_the_same_for_any_number_of_nodes(weights, monkeypatch):
    # the shape memo runs the power once on its one-node stand-in family, so
    # the count of discriminant steps does not grow with the number of nodes
    import hilbtaut.tautmod as tautmod

    calls = []
    action = tautmod.gamma_action

    def counted(tc):
        calls.append(tc.m)
        return action(tc)

    monkeypatch.setattr(tautmod, "gamma_action", counted)
    nodes = [Node("n%d" % i, w) for i, w in enumerate(weights)]
    fam = FamilyDescriptor(1, nodes=nodes)
    tautmod._shape_memo.cache_clear()
    integrate(gamma_power(fam, 5, 6))
    # the first of the six steps is Gamma . 1, on the fundamental class
    assert len(calls) == 20


@pytest.mark.parametrize("power", [gamma_power, gamma_power.__wrapped__], ids=["memo", "wrapped"])
def test_node_sectors_hold_one_payload_per_node_and_scroll_index(power):
    # each node keys its own payloads, scaled by its weight: through the shape
    # memo's bind and in the undecorated power alike
    fam = FamilyDescriptor(1, nodes=[Node("p", 2), Node("q", sym("w"))])
    cls = power(fam, 3, 3)
    assert set(cls.scroll) == {(x, 3, j) for x in "pq" for j in (1, 2)}
    assert set(cls.section) == {(x, 2, 1) for x in "pq"}
    for j in (1, 2):
        assert cls.scroll[("p", 3, j)].diag == {((), ()): CharPoly.const(6)}
        assert cls.scroll[("q", 3, j)].diag == {((), ()): sym("w") * 3}
    for payload in cls.scroll.values():
        assert payload.fam is fam.boundary_family() and payload.m == 0


def test_boundary_integral_needs_its_node(fam):
    # a payload integrates over the boundary base of the node its key names
    payload = TautClass.fundamental(fam.boundary_family(), 0)
    with pytest.raises(ValueError, match="needs the node"):
        integrate(payload)
    assert integrate(payload, fam.node("s")) == CharPoly.const(1)


def test_norm_mult_is_degreewise(fam):
    cls = TautClass.fundamental(fam, 3)
    ell = twists(cls, [(None, BaseClass.gen(fam.total_ring, "L"))])[0]
    assert ell.diag == {
        ((), ((1, ()), (1, ()), (1, (("L", 1),)))): CharPoly.const(3)
    }
    # a block of size n counts its size
    small = TautClass(fam, 3)
    small.add_diag((), blocks(3), 1)
    out = twists(small, [(None, BaseClass.gen(fam.total_ring, "L"))])[0]
    assert out.diag == {((), ((3, (("L", 1),)),)): CharPoly.const(3)}


def boundary_pair():
    """Degree-2 fundamental class on a boundary family over a curve base."""
    bd = FamilyDescriptor(2, nodes=[Node("s", 1)]).boundary_family()
    return bd, TautClass.fundamental(bd, 2)


def test_norm_mult_section_self_intersection():
    # ([2]theta)^2 = sum_i theta_i^2 + cross terms, and theta^2 = -psi theta
    # moves psi out of the block into the base monomial
    bd, fund = boundary_pair()
    one = BaseClass.unit(bd.total_ring)
    theta = BaseClass.gen(bd.total_ring, "theta_x")
    psi = BaseClass.gen(bd.total_ring, "psi_x")
    once = twists(fund, [(None, theta)])[0]
    assert once == TautClass.from_twists(bd, [(1, theta), (1, one)]).scale(2)
    twice = twists(once, [(None, theta)])[0]
    expected = TautClass.from_twists(bd, [(1, theta), (1, one)], base=psi).scale(-2)
    expected.accumulate(TautClass.from_twists(bd, [(1, theta), (1, theta)]), 2)
    assert twice == expected
    assert ((("psi_x", 1),), ((1, ()), (1, (("theta_x", 1),)))) in twice.diag


def test_norm_mult_sections_are_disjoint():
    # theta_x * theta_y = 0: the second norm only lands in the other slot
    bd, fund = boundary_pair()
    theta_x = BaseClass.gen(bd.total_ring, "theta_x")
    theta_y = BaseClass.gen(bd.total_ring, "theta_y")
    out = twists(twists(fund, [(None, theta_x)])[0], [(None, theta_y)])[0]
    assert out == TautClass.from_twists(bd, [(1, theta_x), (1, theta_y)]).scale(2)


def test_scroll_bundle_divisor_coefficients(fam):
    # the divisor of the scroll line bundle on a degree-k boundary scheme:
    # binom(n-j+1,2) psi_x + binom(j,2) psi_y - (n-j+1) [k]theta_x - j [k]theta_y
    from math import comb

    big = FamilyDescriptor(3, nodes=[Node("s", 1)])
    bd = big.boundary_family()
    payload = TautClass.fundamental(bd, 2)
    # the reduced norm divisor on a degree-2 scheme is twice the canonical
    # tensor (one insertion per point slot)
    for n in (2, 3, 4):
        for j in range(1, n):
            out = twists(payload, [scroll_divisor(bd.total_ring, n, j)])[0]
            expect = {
                ((("psi_x", 1),), blocks(1, 1)): CharPoly.const(comb(n - j + 1, 2)),
                ((("psi_y", 1),), blocks(1, 1)): CharPoly.const(comb(j, 2)),
                ((), ((1, ()), (1, (("theta_x", 1),)))): CharPoly.const(-2 * (n - j + 1)),
                ((), ((1, ()), (1, (("theta_y", 1),)))): CharPoly.const(-2 * j),
            }
            expect = {k: v for k, v in expect.items() if v}
            assert out.diag == expect, (n, j)


def test_twist_degree_two_pullback_lands_in_the_base_monomial():
    bd = FamilyDescriptor(3, nodes=[Node("s", 1)]).boundary_family()
    ring = bd.total_ring
    theta = BaseClass.gen(ring, "theta_x")
    payload = TautClass.from_twists(bd, [(1, theta), (1, BaseClass.unit(ring))]).scale(3)
    psi_tau = BaseClass(ring, {(("psi_x", 1), ("tauL", 1)): Fraction(1, 2)})
    out = twists(payload, [(psi_tau, None)])[0]
    key = ((("psi_x", 1), ("tauL", 1)), ((1, ()), (1, (("theta_x", 1),))))
    assert out.diag == {key: CharPoly.const(Fraction(3, 2))}


def test_twist_unit_pullback_keeps_a_top_codimension_key():
    # transfer twists a section payload by tau = theta^* beta, which holds the
    # unit when beta does: a key at top codimension keeps its unit image and
    # loses only its tauL image
    bd = symbolic_family(2).boundary_family()
    ring = bd.total_ring
    payload = TautClass(bd, 2)
    top = ((("psi_x", 1),), ((1, (("L", 1),)), (1, (("theta_x", 1),))))
    low = ((), top[1])
    payload.add_diag(*top, 3)
    payload.add_diag(*low, 5)
    assert _diag_codim(payload.m, *top) == _top(ring, payload.m)
    tau = BaseClass(ring, {(): 1, (("tauL", 1),): 2})
    out = twists(payload, [(tau, None)])[0]
    assert out.diag == {
        top: CharPoly.const(3),
        low: CharPoly.const(5),
        ((("tauL", 1),), low[1]): CharPoly.const(10),
    }


@pytest.mark.parametrize("source", ["symbolic", "six-node-curve.ini"])
def test_twists_equal_the_per_block_route_on_repeated_blocks(source):
    # the node-section payloads of a discriminant power repeat blocks, (1, ())
    # above all: a run of identical blocks re-keys once, times its length
    fam = symbolic_family(1) if source == "symbolic" else load_descriptor(str(TESTS / source))
    repeats = 0
    for (_, n, j), payload in gamma_power(fam, 6, 5).section.items():
        repeats += sum(len(set(blocks)) < len(blocks) for _, blocks in payload.diag)
        ring = payload.ring
        pair = [_minus_divisor_pair(ring, n, j), scroll_divisor(ring, n, j + 1)]
        for divisors, shares in ((pair, (2, -1)), ([scroll_divisor(ring, n, j)], (-1,))):
            for s in ((), shares):
                assert twists(payload, divisors, s) == twists_per_block(payload, divisors, s)
    assert repeats


@pytest.mark.parametrize("source", [1, 2, "two-node-surface.ini"])
def test_operator_keys_stay_canonical(source):
    # from_data sorts every key through add_diag, so a block the operators put
    # into a key out of order would leave a key that the round trip misses
    fam = symbolic_family(source) if isinstance(source, int) else load_descriptor(str(TESTS / source))
    one_plus_l = BaseClass.unit(fam.total_ring) + BaseClass.gen(fam.total_ring, "L")
    power = gamma_power(fam, 5, 4)
    assert power.section
    classes = [power, chern_class_on_hilb(fam, 4), transfer(power), transfer(power, one_plus_l)]
    for tc in classes:
        assert from_data(fam, to_data(tc)) == tc


BOUNDARY_BASE = ("psi_x", "psi_y", "tauL")
BOUNDARY_FIBER = ("L", "omega", "theta_x", "theta_y")


def names_mono(names):
    """The monomial multiplying the symbols `names` (repeats give powers)."""
    return tuple(sorted(Counter(names).items()))


def names_of(symbols, max_size):
    return st.lists(st.sampled_from(symbols), max_size=max_size).map(tuple)


@st.composite
def block_sizes(draw, m):
    """The sizes of blocks of total weight m, in a drawn order."""
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=m - 1))) if m > 1 else [])
    return [b - a for a, b in zip([0] + cuts, cuts + [m])]


def coefficients():
    """(constant, coefficient of the symbol a) of a term."""
    return st.tuples(st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def payload_terms(draw, m):
    """One term of a degree-m boundary payload, as `build_payload` reads it."""
    blocks = [(n, draw(names_of(BOUNDARY_FIBER, 1))) for n in draw(block_sizes(m))]
    return draw(coefficients()) + (draw(names_of(BOUNDARY_BASE, 2)), blocks)


@st.composite
def twist_cases(draw):
    """(dim_b, m, payload terms, divisors) as plain data, for `build_twist_case`.

    A term is (constant, coefficient of the symbol a, base symbols,
    [(block size, twist symbols), ...]); a divisor is ("D", n, j) or
    ("free", [(base symbols, c), ...], [(symbols, c), ...]).
    """
    dim_b = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        terms.append(draw(payload_terms(m)))
    scalars = st.integers(-3, 3).filter(bool)
    divisors = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=2, max_value=5).flatmap(
                    lambda n: st.tuples(st.just("D"), st.just(n), st.integers(1, n))
                ),
                st.tuples(
                    st.just("free"),
                    st.lists(st.tuples(names_of(BOUNDARY_BASE, 2), scalars), max_size=3),
                    st.lists(
                        st.tuples(names_of(BOUNDARY_BASE + BOUNDARY_FIBER, 2), scalars),
                        max_size=3,
                    ),
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return dim_b, m, terms, divisors


def build_payload(fam, m, terms):
    """The degree-m class on `fam` holding the drawn terms."""
    ring = fam.total_ring
    out = TautClass(fam, m)
    for c0, ca, base, blocks in terms:
        coeff = CharPoly.const(c0) + CharPoly.symbol("a") * ca
        pairs = [(n, BaseClass(ring, {names_mono(names): 1})) for n, names in blocks]
        base = BaseClass(ring, {names_mono(base): 1})
        out.accumulate(TautClass.from_twists(fam, pairs, base=base), coeff)
    return out


def build_twist_case(dim_b, m, terms, divisors):
    bd = FamilyDescriptor(dim_b + 1, nodes=[Node("s", 1)]).boundary_family()
    ring = bd.total_ring
    payload = build_payload(bd, m, terms)
    out = []
    for kind, *data in divisors:
        if kind == "D":
            out.append(scroll_divisor(ring, *data))
            continue
        pull, norm = (BaseClass(ring, {names_mono(names): c for names, c in part}) for part in data)
        # a missing part is None, a zero one the empty BaseClass
        out.append((pull or None, norm))
    return payload, out


TOP_KEY = [(1, 0, ("psi_x",), [(2, ("L",))])]  # psi_x * Gamma_(2)[L] on dim_b = 1


@given(twist_cases())
@settings(max_examples=80, deadline=None)
# keys at top codimension, with the scroll divisors paired as gamma_action pairs them:
# j = 1 (no psi_y in D^n_1) and j = n - 1 (no psi_x in D^n_n)
@example((1, 2, TOP_KEY, [("D", 3, 1), ("D", 3, 2)]))
@example((1, 2, TOP_KEY + [(0, 1, (), [(1, ("theta_x",)), (1, ())])], [("D", 4, 3), ("D", 4, 4)]))
# transfer's pair: a pullback holding the unit monomial, then D^n_(j+1)
@example(
    (
        2,
        2,
        [(2, 0, ("tauL",), [(1, ("L",)), (1, ("theta_x",))]), (5, 0, (), [(1, ("L",)), (1, ())])],
        [("free", [((), 1), (("tauL",), 2)], []), ("D", 3, 2)],
    )
)
# a zero divisor between two nonzero ones
@example(
    (
        3,
        3,
        [(1, 1, ("psi_y",), [(2, ("omega",)), (1, ("theta_y",))])],
        [("D", 2, 1), ("free", [], []), ("D", 2, 2)],
    )
)
def test_one_twist_pass_equals_separate_twists(case):
    payload, divisors = build_twist_case(*case)
    got = twists(payload, divisors)
    assert got == [twists(payload, [divisor])[0] for divisor in divisors]
    top = _top(payload.ring, payload.m)
    for (pullback, norm), cls in zip(divisors, got):
        assert cls.m == payload.m and cls.fam is payload.fam
        assert all(c <= top for c in codim_parts(cls))
        if not pullback and not norm:
            assert not cls


@given(twist_cases(), st.lists(st.integers(-2, 2), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
# gamma_action's node-section shares on its two divisor pairs, on a degree-2 payload
@example((1, 2, [(1, 0, (), [(1, ("L",)), (1, ())])], [("D", 3, 1), ("D", 3, 2)]), [2, -1, 0])
def test_gamma_shares_add_that_multiple_of_gamma(case, shares):
    payload, divisors = build_twist_case(*case)
    shares = shares[: len(divisors)]
    gamma_tc = gamma_action(payload)
    expected = [
        plain.accumulate(gamma_tc, share)
        for plain, share in zip(twists(payload, divisors), shares)
    ]
    assert twists(payload, divisors, shares) == expected


@st.composite
def gamma_cases(draw):
    """(dim_b, node count, m, diagonal terms, node terms) as plain data, for `build_gamma_case`.

    A diagonal term is (constant, coefficient of the symbol a, base symbols,
    [(block size, twist symbols), ...]); a node term is (sector, node index,
    n, j, [payload term, ...]).
    """
    dim_b = draw(st.integers(0, 3))
    nodes = draw(st.integers(0, 3)) if dim_b else 0
    m = draw(st.integers(1, 5))
    fiber = ("L", "omega", "pt") if dim_b == 0 else ("L", "omega")
    diag = []
    for _ in range(draw(st.integers(0, 3))):
        blocks = [(n, draw(names_of(fiber, 2))) for n in draw(block_sizes(m))]
        diag.append(draw(coefficients()) + ((), blocks))
    node_terms = []
    for _ in range(draw(st.integers(0, 3)) if nodes and m >= 2 else 0):
        n = draw(st.integers(2, m))
        sector = draw(st.sampled_from(["scroll", "section"]))
        node, j = draw(st.integers(0, nodes - 1)), draw(st.integers(1, n - 1))
        payload = draw(st.lists(payload_terms(m - n), min_size=1, max_size=3))
        node_terms.append((sector, node, n, j, payload))
    return dim_b, nodes, m, diag, node_terms


def build_gamma_case(dim_b, nodes, m, diag, node_terms):
    weights = [1, sym("w_q"), Fraction(1, 3)]
    fam = FamilyDescriptor(dim_b, nodes=[Node(n, w) for n, w in zip("pqr", weights[:nodes])])
    tc = build_payload(fam, m, diag)
    for sector, node, n, j, terms in node_terms:
        tc.add_node(sector, "pqr"[node], n, j, build_payload(fam.boundary_family(), m - n, terms))
    return tc


UNIT = [(1, 0, (), [])]  # the unit class of Hilb^0 of the boundary family
DEGREE_TWO = [(1, 0, (), [(1, ()), (1, ("L",))]), (3, 0, ("tauL",), [(2, ())])]


@given(gamma_cases())
@settings(max_examples=60, deadline=None)
# the fundamental class at m = 6: every block the same
@example((1, 1, 6, [(1, 0, (), [(1, ())] * 6)], []))
# blocks of one size with different twists
@example((1, 2, 6, [(1, 1, (), [(2, ()), (2, ("L",)), (2, ())])], []))
# node sections with payloads of degree 0, 1 and 2
@example(
    (
        2,
        2,
        4,
        [(1, 0, (), [(1, ())] * 4)],
        [
            ("section", 0, 4, 2, UNIT),
            ("section", 1, 3, 1, [(2, 1, ("psi_y",), [(1, ("theta_x",))])]),
            ("section", 0, 2, 1, DEGREE_TWO),
        ],
    )
)
def test_gamma_action_equals_the_per_index_pair_route(case):
    # identical blocks united once times their index pairs, and -Gamma folded
    # into the e-twists, give the class term for term
    tc = build_gamma_case(*case)
    got, expected = gamma_action(tc), gamma_action_per_index_pair(tc)
    assert got == expected
    assert to_data(got) == to_data(expected)


def three_node_family():
    w = {n: sym("w_" + n) for n in "pqr"}
    return FamilyDescriptor(1, nodes=[Node(n, x, tau_L=0) for n, x in w.items()], label="X3/B")


@pytest.mark.parametrize(
    "fam",
    [symbolic_family(1), three_node_family(), symbolic_family(2)],
    ids=["one-node", "three-node", "dim-b-2"],
)
def test_the_gamma_table_cold_warm_and_per_index_pair_agree(fam):
    # the per-key table holds no family data: a Gamma step from a cleared
    # table, the same step from the table it filled, and the reference route
    # that builds every term afresh give one class, over every Gamma power
    for m in range(2, 6):
        cls = TautClass.fundamental(fam, m)
        for _ in range(m + fam.dim_b):
            tautmod._gamma_table.cache_clear()
            cold = gamma_action(cls)
            hits = tautmod._gamma_table.cache_info().hits
            warm = gamma_action(cls)
            assert tautmod._gamma_table.cache_info().hits >= hits + len(cls.diag)
            assert cold == warm == gamma_action_per_index_pair(cls)
            assert to_data(cold) == to_data(warm)
            cls = cold


def test_gamma_powers_are_pinned():
    # sha256 over to_data(gamma_power(fam, m, k)) for every k <= m + dim_b:
    # every exact coefficient and key of the discriminant powers below.  The
    # digest is that of the plain iteration with its zero classes dropped
    # afterwards (reference.drop_zero_classes), computed before gamma_power
    # dropped them between steps
    cases = [
        (symbolic_family(1), 6),
        (symbolic_family(2), 5),
        (three_node_family(), 5),
        (symbolic_family(0), 6),
    ]
    digest = hashlib.sha256()
    for cls_fam, m in cases:
        for k in range(m + cls_fam.dim_b + 1):
            data = to_data(gamma_power(cls_fam, m, k))
            digest.update(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "2b01199c26efcba39b125b0ebae946248a98873dcd259d31969e52cbf4567fb9"
    )


REDUCED_CASES = [
    (symbolic_family(1), 6),
    (symbolic_family(2), 5),
    (three_node_family(), 5),
    (load_descriptor(str(TESTS / "two-node-surface.ini")), 4),
    (symbolic_family(3), 3),
]


@pytest.mark.parametrize(
    "cls_fam, max_m", REDUCED_CASES, ids=["dim1", "dim2", "three-node", "two-node-surface", "dim3"]
)
def test_gamma_power_is_the_reduced_iteration(cls_fam, max_m):
    # dropping the zero classes after every step leaves what dropping them
    # once at the end leaves: no zero class has a nonzero descendant
    for m in range(max_m + 1):
        for k in range(m + cls_fam.dim_b + 1):
            plain = unreduced_gamma_power(cls_fam, m, k)
            reduced = gamma_power(cls_fam, m, k)
            assert reduced == drop_zero_classes(plain), (m, k)
        assert integrate(reduced) == integrate(plain), m


@given(node_families())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_gamma_power_is_the_reduced_iteration_on_node_families(case):
    dim_b, chars, nodes, m = case
    cls_fam = FamilyDescriptor(dim_b, chars=chars, nodes=nodes)
    for k in range(m + dim_b + 1):
        plain = unreduced_gamma_power(cls_fam, m, k)
        reduced = gamma_power(cls_fam, m, k)
        assert reduced == drop_zero_classes(plain), k
    assert integrate(reduced) == integrate(plain)


def base_degrees(cls):
    """(base dimension, base monomial degree) of every diagonal key, payloads included."""
    out = {(cls.fam.dim_b, sum(p for _, p in base_mono)) for base_mono, _ in cls.diag}
    for sector in ("scroll", "section"):
        for payload in getattr(cls, sector).values():
            out |= base_degrees(payload)
    return out


def test_gamma_power_holds_no_zero_classes():
    for cls_fam, max_m in REDUCED_CASES:
        seen = set()
        for m in range(max_m + 1):
            for k in range(m + cls_fam.dim_b + 1):
                seen |= base_degrees(gamma_power(cls_fam, m, k))
        assert all(degree <= dim_b for dim_b, degree in seen), cls_fam
        # payloads are reached: the boundary family's base dimension occurs
        assert cls_fam.dim_b - 1 in {dim_b for dim_b, _ in seen}, cls_fam
    # the Chern path still keeps its zero classes: tauL is zero on the
    # 0-dimensional boundary base of a curve family
    out = CliRunner().invoke(cli_main, ["chern", "--m", "3"])
    assert out.exit_code == 0
    assert "F^{2,3}_1(s)[(1/6*sigma)*tauL*Gamma_(1)[1]]" in out.output


@pytest.mark.parametrize(
    "m, k, name", [(3, -1, "k"), (-2, 1, "m"), (Fraction(3), 1, "m"), (3, 1.0, "k"), (True, 1, "m")]
)
def test_gamma_power_checks_its_arguments(fam, m, k, name):
    with pytest.raises(ValueError, match="^%s must be an integer >= 0, got " % name):
        gamma_power(fam, m, k)


def test_gamma_power_stops_once_the_class_vanishes(fam, monkeypatch):
    # Gamma^(m + dim_b + 1) is zero: no discriminant step is taken past it
    import hilbtaut.tautmod as tautmod

    m = 3
    steps = []
    action = tautmod.gamma_action

    def counted(tc):
        # payload recursion acts on lower Hilbert degrees and is not counted
        if tc.m == m:
            steps.append(tc)
        return action(tc)

    monkeypatch.setattr(tautmod, "gamma_action", counted)
    assert not gamma_power(fam, m, 50)
    assert len(steps) <= m + fam.dim_b + 1


def test_twist_refuses_node_terms(fam):
    cls = gamma_power(fam, 2, 2)
    assert cls.scroll or cls.section
    with pytest.raises(NotImplementedError):
        twists(cls, [(BaseClass.unit(fam.total_ring), None)])


def test_serialization_roundtrip(fam):
    cls = gamma_power(fam, 3, 3)
    data = to_data(cls)
    back = from_data(fam, data)
    assert back == cls
    import json

    blob = json.dumps(data, sort_keys=True)
    assert json.dumps(to_data(back), sort_keys=True) == blob


def test_serialization_roundtrip_psi_payloads():
    # payloads with pulled-back psi monomials survive the round trip
    import json

    big = FamilyDescriptor(4, nodes=[Node("s", 1)])
    cls = gamma_power(big, 2, 5)
    assert cls.section  # psi-twisted payloads present at this depth
    data = json.loads(json.dumps(to_data(cls), sort_keys=True))
    assert from_data(big, data) == cls


@pytest.mark.parametrize("symbol", ["#node.s", "#c1^4", "#"])
def test_from_data_refuses_the_tag_namespace(fam, symbol):
    # `#` starts the engine's own tags: a coefficient that spells one would be split as one
    term = {"base": [], "blocks": [[1, []]], "coeff": [[[[symbol, 1]], "1"]]}
    data = {"m": 1, "diag": [term], "scroll": [], "section": []}
    with pytest.raises(ValueError, match="symbol %s not allowed" % re.escape(repr(symbol))):
        from_data(fam, data)


EMPTY = {"m": 0, "diag": [], "scroll": [], "section": []}
ONE_TERM = {"base": [], "blocks": [[1, []]], "coeff": [[[], "1"]]}
NODE_TERM = {"node": "s", "n": 2, "j": 1, "payload": {**EMPTY, "m": 1, "diag": [ONE_TERM]}}


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "class is a list, not an object"),
        ({"m": 1, "diag": [], "scroll": []}, "class has no key 'section'"),
        ({**EMPTY, "extra": 0}, "class has the unknown key 'extra'"),
        ({**EMPTY, "section": {}}, "sector section is a dict, not a list"),
        ({**EMPTY, "m": 1, "diag": [{**ONE_TERM, "extra": 0}]}, "diagonal term has the unknown key"),
        ({**EMPTY, "m": 1, "diag": [{"base": [], "blocks": []}]}, "diagonal term has no key 'coeff'"),
        ({**EMPTY, "m": 3, "scroll": [{**NODE_TERM, "extra": 0}]}, "node term has the unknown key"),
        ({**EMPTY, "m": 3, "section": ["term"]}, "node term is a str, not an object"),
        # iterating a "" or {} in place of a list would read as the unit monomial or no blocks
        ({**EMPTY, "m": 1, "diag": [{**ONE_TERM, "base": ""}]}, "monomial is a str, not a list"),
        ({**EMPTY, "m": 1, "diag": [{**ONE_TERM, "blocks": [[1, {}]]}]},
         "monomial is a dict, not a list"),
        ({**EMPTY, "diag": [{**ONE_TERM, "blocks": {}}]}, "block list is a dict, not a list"),
        ({**EMPTY, "m": 1, "diag": [{**ONE_TERM, "coeff": {}}]}, "coefficient is a dict, not a list"),
        ({**EMPTY, "m": 1, "diag": [{**ONE_TERM, "coeff": [{"": "1"}]}]},
         "coefficient pair is a dict, not a list"),
    ],
)
def test_from_data_names_a_key_or_sector_to_data_never_writes(fam, data, message):
    assert from_data(fam, {**EMPTY, "m": 3, "scroll": [NODE_TERM]}).scroll
    with pytest.raises(ValueError, match=re.escape(message)):
        from_data(fam, data)


def test_from_twists_of_no_blocks_is_the_degree_0_class(fam):
    cls = TautClass.from_twists(fam, [])
    assert cls.m == 0 and cls == TautClass.fundamental(fam, 0)


@pytest.mark.parametrize("m", range(2, 9))
def test_top_degree_sigma_coefficient_matches_the_fit(m):
    value = integrate(gamma_power(symbolic_family(1), m, m + 1))
    assert value.terms[(("sigma", 1),)] == sigma_coefficient_fit(m)


def test_gamma_action_linearity(fam):
    ring = fam.total_ring
    L = BaseClass.gen(ring, "L")
    w = BaseClass.gen(ring, "omega")
    a = TautClass.from_twists(fam, [(2, L), (1, w)])
    b = TautClass.from_twists(fam, [(1, L), (1, L), (1, w)])
    combo = a.scale(Fraction(2, 7)) + b.scale(-3)
    lhs = gamma_action(combo)
    rhs = gamma_action(a).scale(Fraction(2, 7)) + gamma_action(b).scale(-3)
    assert lhs == rhs


def test_gamma_action_preserves_weight_and_raises_codim(fam):
    ring = fam.total_ring
    cls = TautClass.from_twists(
        fam, [(2, BaseClass.gen(ring, "L")), (1, BaseClass.unit(ring)), (1, BaseClass.unit(ring))]
    )
    out = gamma_action(cls)
    assert out.m == cls.m
    assert {c - 1 for c in codim_parts(out)} == codim_parts(cls)


def test_codim_pruning(fam):
    # powers beyond the dimension of the Hilbert scheme vanish identically
    assert not gamma_power(fam, 2, 4)
    assert gamma_power(fam, 3, 4)
    assert not gamma_power(fam, 3, 5)
