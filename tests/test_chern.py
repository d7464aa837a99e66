import hashlib
import json
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.cli import load_descriptor
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.chern import (
    _push_terms,
    chern_class_on_hilb,
    chern_closed_form,
    chern_numbers_w3,
    chern_splitting,
    double_point_class,
    double_point_segre_route,
    flag_G,
    flag_L,
    pushdown,
    single_curve_trisecant_formula,
    single_curve_trisecant_scroll,
    trisecant_count,
    trisecant_grand_total,
    w3_monomial,
)
from hilbtaut.tautmod import gamma_action, gamma_power, pushforward_to_base, twists
from hilbtaut.tautmod import TautClass, integrate, to_data
from hilbtaut.transfer import pluecker_c2, pluecker_s2, transfer
from reference import (
    chern_numbers_per_monomial,
    codim_parts,
    integrate_classes,
    pushdown_per_twist,
)


def sym(name):
    return CharPoly.symbol(name)


@pytest.fixture
def fam():
    return symbolic_family(1)


B, D, LW, W2, SG, TG = (sym(k) for k in ("b", "d", "Lomega", "omega2", "sigma", "twogm2"))
ZERO = CharPoly()


# -- the degree-4 formulary on the 3-step flag -----------------------------------------

from w3_formulary import FORMULARY



def test_formulary(fam):
    assert len(FORMULARY) >= 25
    for key, expected in FORMULARY:
        value = w3_monomial(fam, key)
        assert value == expected, (key, str(value), str(expected))


@pytest.mark.parametrize("dim_b", [2, 3])
def test_w3_monomial_refuses_a_base_that_is_not_a_curve(dim_b):
    with pytest.raises(ValueError, match="needs a 1-dimensional base"):
        w3_monomial(symbolic_family(dim_b), (4, 0, 0, 0, 0))


def test_w3_monomial_rejects_wrong_degree(fam):
    with pytest.raises(ValueError):
        w3_monomial(fam, (1, 1, 1, 0, 0o0 + 0))  # degree 3


@pytest.mark.parametrize(
    "exponents",
    [(4,), (0, 0, 0, 0, 4, 0), (0, 0, 0, 0, 4, 1, -1)],
    ids=["one", "six", "seven"],
)
def test_w3_monomial_rejects_exponents_that_are_not_five(fam, exponents):
    # each has degree 4; zip used to drop the extras and pad nothing, so the
    # first read 0 and the other two the value of G3^4
    with pytest.raises(ValueError, match=re.escape("exponents %r are not five" % (exponents,))):
        w3_monomial(fam, exponents)


# -- splitting, flaglet factorization, closed form ----------------------------------------


def test_chern_splitting_small():
    one = CharPoly.const(1)
    assert not flag_G(0) and not flag_G(1)
    assert chern_splitting(1) == one + flag_L(1)
    assert chern_splitting(2) == (one + flag_L(1)) * (one + flag_L(2) - flag_G(2))
    # degree-1 part in three steps: L1 + L2 + L3 - G3
    assert chern_splitting(3).graded_part(1) == flag_L(1) + flag_L(2) + flag_L(3) - flag_G(3)


def test_first_chern_class_is_norm_minus_discriminant(fam):
    # pushing the degree-1 part down and dividing by the flag degree gives
    # the norm of L minus the discriminant
    for m in (2, 3):
        deg1 = chern_splitting(m).graded_part(1)
        cls = pushdown(fam, m, deg1).scale(Fraction(1, factorial(m)))
        ell = BaseClass.gen(fam.total_ring, "L")
        expected = twists(TautClass.fundamental(fam, m), [(None, ell)])[0] - gamma_power(fam, m, 1)
        assert cls == expected


@pytest.mark.parametrize(
    "expr",
    [flag_L(4) * flag_L(1) ** 3, flag_G(4) * flag_L(1) ** 3, sym("G1") * flag_L(1) ** 3, D ** 4],
)
def test_pushdown_rejects_symbols_off_the_flag(fam, expr):
    # on the 3-step flag only L1..L3 and G2..G3 are classes; each expr has the top degree 4
    with pytest.raises(ValueError, match="outside L1..L3, G2..G3"):
        integrate(pushdown(fam, 3, expr))


@pytest.mark.parametrize(
    "exponents, bad",
    [
        ((5, -1, 0, 0, 0), r"L1\^5\*L2\^-1 has exponent -1 of L2"),
        ((0, 0, -1, 5, 0), r"G2\^5\*L3\^-1 has exponent -1 of L3"),
        ((-1, 5, 0, 0, 0), r"L1\^-1\*L2\^5 has exponent -1 of L1"),
        ((2.0, 1, 1, 0, 0), r"has exponent 2.0 of L1"),
        # exponents print as given, not truncated to G2^0*G3^0
        ((1, 1, 1, 0.5, 0.5), r"G2\^0\.5\*G3\^0\.5\*L1\*L2\*L3 has exponent 0\.5 of G2"),
    ],
    ids=["L2_negative", "L3_negative", "L1_negative", "L1_float", "G_fractional"],
)
def test_w3_monomial_rejects_exponents_that_are_not_positive_integers(fam, exponents, bad):
    # the first two used to read 0: an earlier stage killed the class before
    # the negative exponent was reached
    with pytest.raises(ValueError, match=bad):
        w3_monomial(fam, exponents)


@pytest.mark.parametrize("m", [0, -1])
def test_chern_class_on_hilb_rejects_flag_length_below_one(fam, m):
    with pytest.raises(ValueError, match="flag length must be an integer >= 1, got %d" % m):
        chern_class_on_hilb(fam, m)


@pytest.mark.parametrize(
    "entry, name, minimum",
    [
        (chern_closed_form, "m", 1),
        (double_point_class, "n", 0),
        (double_point_segre_route, "n", 0),
        (pluecker_s2, "m", 1),
        (pluecker_c2, "m", 1),
    ],
)
@pytest.mark.parametrize("kind", ["bool", "fraction", "below"])
def test_entry_points_refuse_an_argument_that_is_not_an_int_at_least_the_minimum(
    fam, entry, name, minimum, kind
):
    # True used to read as 1, a value below the minimum as an empty range, 2.5 as a TypeError
    value = {"bool": True, "fraction": 2.5, "below": minimum - 1}[kind]
    message = "^%s must be an integer >= %d, got %s$" % (name, minimum, re.escape(repr(value)))
    with pytest.raises(ValueError, match=message):
        entry(fam, value)


def per_monomial_pushdown(fam, m, expr):
    """Reference: every monomial down the whole tower on its own, then the sum."""
    ell = BaseClass.gen(fam.total_ring, "L")
    total = TautClass(fam, m)
    for key, c in expr.terms.items():
        powers = dict(key)
        cls = TautClass.from_twists(fam, [(1, ell ** powers.get("L1", 0))])
        for i in range(2, m + 1):
            cls = transfer(cls, ell ** powers.get("L%d" % i, 0))
            for _ in range(powers.get("G%d" % i, 0)):
                cls = gamma_action(cls)
        total.accumulate(cls, c)
    return total


PUSHDOWN_FAMILIES = {
    "symbolic1": symbolic_family(1),
    "two_node": FamilyDescriptor(
        1,
        chars={"d": 3, "b": 2, "Lomega": -1, "omega2": 4, "twogm2": 2},
        nodes=[Node("p", 2, tau_L=0), Node("q", 3, tau_L=0)],
    ),
    "symbolic2": symbolic_family(2),
}


def flag_polynomials(m):
    """1 to 8 terms with coefficients in -3..3; exponents 0..2 of L1..Lm, G2..Gm.

    Terms of total degree above m + 1 push to zero over a curve base, so they
    are not drawn; the zero polynomial is an explicit example instead.
    """
    names = ["L%d" % i for i in range(1, m + 1)] + ["G%d" % i for i in range(2, m + 1)]
    term = st.tuples(st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)),
                     st.integers(-3, 3)).filter(lambda t: sum(t[0]) <= m + 1)
    return st.lists(term, min_size=1, max_size=8).map(
        lambda terms: sum(
            (CharPoly({tuple((n, e) for n, e in sorted(zip(names, exps)) if e): c})
             for exps, c in terms),
            CharPoly(),
        )
    )


def test_pushdown_stops_once_the_class_vanishes(fam, monkeypatch):
    # G2^k is zero on the 2-step flag once k > 2 + dim_b
    import hilbtaut.chern as chern

    steps = []
    action = chern.gamma_action

    def counted(tc):
        if tc.m == 2:
            steps.append(tc)
        return action(tc)

    monkeypatch.setattr(chern, "gamma_action", counted)
    assert not pushdown(fam, 2, flag_G(2) ** 50)
    assert len(steps) <= 2 + fam.dim_b + 1


def test_pushdown_folds_discriminant_powers_by_horner(fam, monkeypatch):
    # 1 + G2 + G2^2 + G2^3 share (a_2, rest) = (0, ()): Gamma applied 3 times, not 1 + 2 + 3
    import hilbtaut.chern as chern

    calls = []
    action = chern.gamma_action

    def counted(tc):
        calls.append(tc)
        return action(tc)

    monkeypatch.setattr(chern, "gamma_action", counted)
    expr = CharPoly.const(1) + flag_G(2) + flag_G(2) ** 2 + flag_G(2) ** 3
    got = pushdown(fam, 2, expr)
    assert len(calls) == 3
    assert got == per_monomial_pushdown(fam, 2, expr)


def test_stagewise_pushdown_equals_per_monomial_sum():
    outcomes = []

    @settings(max_examples=60, deadline=None)
    @given(
        fam_name=st.sampled_from(sorted(PUSHDOWN_FAMILIES)),
        m_expr=st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), flag_polynomials(m))),
    )
    @example(fam_name="two_node", m_expr=(3, CharPoly()))
    @example(fam_name="symbolic1", m_expr=(1, flag_L(1) * 2 - CharPoly.const(3)))
    @example(fam_name="symbolic1", m_expr=(4, chern_splitting(4)))
    # Horner's rule over gapped discriminant powers in one (a_i, rest) group
    @example(fam_name="symbolic1", m_expr=(2, flag_L(2) * (flag_G(2) ** 3 + flag_G(2) + 1)))
    @example(
        fam_name="symbolic2",
        m_expr=(3, flag_L(3) * (flag_G(3) ** 4 + flag_G(3) ** 2 * flag_L(1) + flag_L(2))),
    )
    # the high power dies before the low one is added
    @example(fam_name="symbolic1", m_expr=(2, flag_G(2) ** 7 + flag_G(2)))
    def check(fam_name, m_expr):
        m, expr = m_expr
        fam = PUSHDOWN_FAMILIES[fam_name]
        got = pushdown(fam, m, expr)
        assert got == per_monomial_pushdown(fam, m, expr)
        outcomes.append(bool(got))

    check()
    # most draws must push to a nonzero class, or the property says little
    assert sum(outcomes) * 2 >= len(outcomes), outcomes


def test_chern_classes_are_pinned():
    # sha256 over to_data(chern_class_on_hilb(...)) for m <= 7 on the families
    # of the punctual digest: bound and symbolic theta^*L, bases of dimension
    # 0 to 3; the digest matches the expanded full-flag product's classes
    fams = [symbolic_family(dim_b) for dim_b in range(4)] + [
        FamilyDescriptor(
            2, chars={"d": 3}, nodes=[Node("p", 2, tau_L=0), Node("q", Fraction(1, 3))]
        ),
        FamilyDescriptor(3, nodes=[Node("p", sym("w"), tau_L=5)]),
    ]
    data = [to_data(chern_class_on_hilb(f, m)) for f in fams for m in range(1, 8)]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == "f14866f48b48ce8ef569dbb8b24d73125f65284eb0048d9bcb820bb795b90ca3"


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def numeric_families(draw):
    """Numeric descriptors: rational characters and dim_b 0..2.

    A positive-dimensional base gets 0..3 nodes, each with a positive rational
    weight and a theta^*L that is either a rational (bound) or symbolic (free).
    """
    dim_b = draw(st.integers(0, 2))
    chars = {k: draw(rationals) for k in ("d", "b", "Lomega", "omega2", "twogm2")}
    nodes = [
        Node(
            "n%d" % i,
            draw(st.fractions(min_value=Fraction(1, 4), max_value=5, max_denominator=4)),
            tau_L=draw(st.none() | rationals),
        )
        for i in range(draw(st.integers(0, 3 if dim_b else 0)))
    ]
    return FamilyDescriptor(dim_b, chars=chars, nodes=nodes)


THREE_NODES = FamilyDescriptor(
    1,
    chars={"d": 3, "b": Fraction(1, 2), "Lomega": -1, "omega2": 4, "twogm2": 2},
    nodes=[Node("p", Fraction(2, 3), tau_L=0), Node("q", 3), Node("r", Fraction(5, 7))],
)


@settings(max_examples=40, deadline=None)
@given(fam=numeric_families(), m=st.integers(1, 4))
@example(fam=THREE_NODES, m=4)  # scroll terms from bound and free theta^*L
@example(fam=FamilyDescriptor(0, chars={"d": 2, "twogm2": 0}), m=4)
def test_chern_recursion_equals_expanded_full_flag_product(fam, m):
    # reference: expand the splitting, push its monomial groups down, divide by m!
    expanded = pushdown(fam, m, chern_splitting(m)).scale(Fraction(1, factorial(m)))
    assert chern_class_on_hilb(fam, m) == expanded


def double_point_polynomial(n):
    """The flag polynomial that `double_point_class` pushes down the 2-step flag."""
    l1, l2, g2 = flag_L(1), flag_L(2), flag_G(2)
    expr = CharPoly()
    for a in range(n + 1):
        expr.accumulate(l1 ** a * l2 ** (n - a))
    for i in range(1, n + 1):
        expr.accumulate(l1 ** (n - i) * g2 ** i, comb(n + 1, n - i) * (-1) ** i)
    return expr


@st.composite
def shared_rest_cases(draw):
    """(family, m, {flag monomial: coefficient}) whose monomials share one rest.

    A stage i and the exponents after it (the rest) are drawn once; each of 2
    to 6 monomials gets its own a_i, k_i >= 1 and exponents before stage i,
    within the top degree m + dim_b.  Coefficients are CharPolys c + c' * #s
    or c + c' * #t, with a tag symbol no descriptor can spell.
    """
    fam = draw(numeric_families())
    m = draw(st.integers(2, 4))
    top = m + fam.dim_b
    i = draw(st.integers(2, m))
    later = ["L%d" % j for j in range(i + 1, m + 1)] + ["G%d" % j for j in range(i + 1, m + 1)]
    earlier = ["L%d" % j for j in range(1, i)] + ["G%d" % j for j in range(2, i)]
    rest = draw(st.lists(st.integers(0, 1), min_size=len(later), max_size=len(later))
                .filter(lambda r: sum(r) < top))
    room = top - sum(rest)
    stage = st.tuples(st.integers(0, 2), st.integers(1, 3),
                      *(st.integers(0, 1) for _ in earlier)).filter(lambda e: sum(e) <= room)
    coeff = st.builds(lambda c, t, tag: CharPoly.const(c) + sym(tag) * t,
                      st.integers(-3, 3), st.integers(-2, 2), st.sampled_from(["#s", "#t"]))
    terms = {}
    for exps, c in draw(st.lists(st.tuples(stage, coeff), min_size=2, max_size=6)):
        powers = zip(later + ["L%d" % i, "G%d" % i] + earlier, rest + list(exps))
        key = tuple(sorted((name, p) for name, p in powers if p))
        terms[key] = terms.get(key, CharPoly()) + c
    return fam, m, terms


TWO_NODE_SURFACE = load_descriptor(str(Path(__file__).parent / "two-node-surface.ini"))


@settings(max_examples=40, deadline=None)
@given(case=shared_rest_cases())
@example(case=(symbolic_family(1), 3, chern_splitting(3).terms))
@example(case=(TWO_NODE_SURFACE, 2, double_point_polynomial(3).terms))
def test_one_chain_per_rest_equals_one_chain_per_twist(case):
    fam, m, terms = case
    got = _push_terms(fam, m, terms)
    want = pushdown_per_twist(fam, m, terms)
    assert got == want
    assert to_data(got) == to_data(want)


@pytest.mark.parametrize("count", [chern_numbers_w3, trisecant_count])
def test_rank3_pushdown_runs_one_discriminant_chain_per_rest(count, monkeypatch):
    # one Horner chain per remaining suffix: 24 Gamma steps where one chain
    # per (a_i, rest) took 43; the 76 transfers are one per nonzero group
    import hilbtaut.chern as chern

    calls = Counter()

    def counting(name):
        op = getattr(chern, name)

        def counted(*args):
            calls[name] += 1
            return op(*args)

        return counted

    for name in ("gamma_action", "transfer"):
        monkeypatch.setattr(chern, name, counting(name))
    count(symbolic_family(1))
    assert calls == {"gamma_action": 24, "transfer": 76}


def test_closed_form_matches_splitting_nodefree():
    nofam = FamilyDescriptor(1, label="smooth")
    for m in (1, 2, 3, 4):
        assert chern_closed_form(nofam, m) == chern_class_on_hilb(nofam, m)


# the families with nodes and dim_b >= 1 whose Chern node sectors and
# over-top double points are pinned
NODE_FAMILIES = [symbolic_family(k) for k in (1, 2, 3)] + [
    FamilyDescriptor(2, nodes=[Node("p", sym("w"), tau_L=3), Node("q", 1)]),
    THREE_NODES,
]


def _node_payload_degrees(cls):
    """(base degree, payload base dimension) of each diagonal term of each node payload."""
    for sector in (cls.scroll, cls.section):
        for payload in sector.values():
            for base_mono, _ in payload.diag:
                yield sum(p for _, p in base_mono), payload.fam.dim_b
            yield from _node_payload_degrees(payload)


@st.composite
def nodal_families(draw):
    """dim_b 1..3 with 0..3 nodes: numeric or symbolic weights, theta^*L symbolic, 0 or 3."""
    nodes = [
        Node(
            "n%d" % i,
            draw(st.sampled_from([sym("w%d" % i), Fraction(2, 3), 3])),
            tau_L=draw(st.sampled_from([None, 0, 3])),
        )
        for i in range(draw(st.integers(0, 3)))
    ]
    return FamilyDescriptor(draw(st.integers(1, 3)), nodes=nodes)


def _check_closed_form_is_diagonal_sector(f, m):
    # the closed form is the whole diagonal sector; the node terms carry base
    # monomials above the boundary base's dimension, so they are zero classes
    full = chern_class_on_hilb(f, m)
    assert chern_closed_form(f, m).diag == full.diag, (f.dim_b, m)
    assert all(deg > dim_b for deg, dim_b in _node_payload_degrees(full)), (f.dim_b, m)
    return full


def _with_node_family_examples(test):
    for f in NODE_FAMILIES:
        for m in range(1, 6):
            test = example(fam=f, m=m)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(fam=nodal_families(), m=st.integers(1, 6))
@_with_node_family_examples
def test_closed_form_matches_diagonal_sector_nodal(fam, m):
    _check_closed_form_is_diagonal_sector(fam, m)


def test_closed_form_matches_diagonal_sector_at_m10():
    full = _check_closed_form_is_diagonal_sector(symbolic_family(1), 10)
    assert full.scroll  # node terms are present


def test_closed_form_truncation(fam):
    cls = chern_closed_form(fam, 3)
    assert max(codim_parts(cls)) <= 3 + fam.dim_b


# -- Chern numbers, trisecants --------------------------------------------------------


def test_chern_numbers_w3(fam):
    numbers = chern_numbers_w3(fam)
    bd2 = B * D * D
    assert numbers["c1^4"] == (
        bd2 * 36 - B * D * 216 - B * TG * 18 - D * LW * 72 - D * W2 * 12 + D * SG * 12
        + B * 324 + LW * 288 + W2 * 78 - SG * 54
    )
    assert numbers["c1^2c2"] == (
        bd2 * 15 - B * D * 81 - B * TG * 6 - D * LW * 24 - D * W2 * 3 + D * SG * 3
        + B * 108 + LW * 84 + W2 * 18 - SG * 12
    )
    assert numbers["c1c3"] == bd2 * 3 - B * D * 12 - D * LW * 3 + B * 12 + LW * 6
    assert numbers["c2^2"] == (
        bd2 * 6 - B * D * 30 - B * TG * 3 - D * LW * 6 + B * 36 + LW * 24 + W2 * 4
        - SG * 2
    )


@pytest.mark.parametrize(
    "family, zeros",
    [
        (symbolic_family(1), 0),
        (FamilyDescriptor(1, nodes=[Node(n, sym("w_" + n), tau_L=0) for n in "pqr"]), 0),
        (FamilyDescriptor(1, chars={"d": 5, "b": Fraction(3, 2), "twogm2": 2},
                          nodes=[Node("s", sym("w"))]), 0),
        # C x P^1 at g = 1, d = 3, e = 1
        (FamilyDescriptor(1, chars={"d": 3, "b": 6, "Lomega": 0, "omega2": 0, "twogm2": 0}), 3),
    ],
    ids=["symbolic1", "three_symbolic_weights", "weight_w", "product_g1_d3"],
)
def test_one_pass_chern_numbers_equal_per_monomial_route(family, zeros):
    got = chern_numbers_w3(family)
    want = chern_numbers_per_monomial(family)
    # same keys in the same order, and the same printed values
    assert [(k, str(v)) for k, v in got.items()] == [(k, str(v)) for k, v in want.items()]
    assert got == want
    assert sum(not v for v in got.values()) == zeros


def test_chern_number_split_refuses_a_tag_spelled_character():
    # a character named like a tag puts two tags, or a tag squared, into a term
    tagged = FamilyDescriptor(1, chars={"d": sym("#c1^4")})
    with pytest.raises(ValueError, match="does not carry exactly one of the tags"):
        chern_numbers_w3(tagged)


def test_chern_numbers_need_a_curve_base():
    with pytest.raises(ValueError, match="1-dimensional base"):
        chern_numbers_w3(symbolic_family(2))


def test_trisecant_count_needs_a_curve_base():
    with pytest.raises(ValueError, match="1-dimensional base"):
        trisecant_count(symbolic_family(2))


def test_porteous_equals_grand_total(fam):
    assert trisecant_count(fam) == trisecant_grand_total(fam)


def test_deep_flag_monomials_match_direct_fiber_integrals(fam):
    # discriminant-free monomials push down the whole tower to a plain fiber
    # integral over the ordered product, one factor per stage
    ring = fam.total_ring
    L = BaseClass.gen(ring, "L")
    for m, exps in [
        (4, (2, 1, 1, 1)),
        (4, (1, 2, 1, 1)),
        (4, (0, 2, 2, 1)),
        (5, (2, 1, 1, 1, 1)),
        (5, (1, 1, 2, 1, 1)),
    ]:
        expr = CharPoly.const(1)
        for i, a in enumerate(exps, 1):
            expr = expr * flag_L(i) ** a
        value = integrate(pushdown(fam, m, expr))
        direct = integrate_classes(fam, [L ** a for a in exps])
        assert value == direct, (m, exps)


def test_trisecant_numeric():
    fam = FamilyDescriptor(
        1,
        chars={"d": 6, "b": 0, "Lomega": 0, "omega2": 0, "twogm2": -2},
        nodes=[Node("s", 1, tau_L=CharPoly.const(0))],
    )
    # d = 6, g = 0: (3*36 - 27*6 + 60)*0 + ... + (3*6 - 20)*sigma with sigma = 1
    assert trisecant_count(fam) == CharPoly.const(-2)


def test_single_curve_trisecant_scroll():
    assert single_curve_trisecant_scroll() == single_curve_trisecant_formula()
    # twisted cubic: d = 3, g = 0 has no trisecants
    value = single_curve_trisecant_scroll({"d": 3, "twogm2": -2})
    assert value == CharPoly.const(0)
    # elliptic quartic (intersection of two quadrics): a trisecant line would
    # lie on both quadrics, so the virtual count vanishes
    value = single_curve_trisecant_scroll({"d": 4, "twogm2": 0})
    assert value == CharPoly.const(0)
    value = single_curve_trisecant_scroll({"d": 5, "twogm2": 0})
    assert value == CharPoly.const(5)


# -- double points and the polarization powers on the length-2 scheme --------------------


# every symbolic base dimension, plus a numeric two-node family with unequal weights
DOUBLE_POINT_FAMILIES = [symbolic_family(k) for k in range(4)] + [
    FamilyDescriptor(
        1,
        chars={"d": 3},
        nodes=[Node("p", 2, tau_L=0), Node("q", Fraction(1, 3), tau_L=0)],
    )
]


def test_double_point_classes_are_pinned():
    # sha256 over to_data(double_point_class(...)) for projective targets of
    # dimension n <= 5: every exact coefficient and key of the classes
    data = [
        to_data(double_point_class(f, n))
        for f in DOUBLE_POINT_FAMILIES
        for n in range(6)
    ]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == "8dc0c3d7e9cb66193cd8f99aae3ae754084a50bf9752c2caf758b4f6759b2aff"


def test_double_point_routes_agree():
    for f in DOUBLE_POINT_FAMILIES:
        for n in range(6):
            formula = double_point_class(f, n)
            segre = double_point_segre_route(f, n)
            assert formula == segre, (f.dim_b, n)
    # above the top degree 2 + dim_b both routes give the zero class at once
    for f in [symbolic_family(0)] + NODE_FAMILIES:
        top = 2 + f.dim_b
        for n in list(range(top + 1, top + 5)) + [400]:
            zero = TautClass(f, 2)
            formula = double_point_class(f, n)
            assert formula == zero == double_point_segre_route(f, n), (f.dim_b, n)


def test_double_point_count_plane_maps(fam):
    m2 = double_point_class(fam, 2)
    interior, boundary = pushforward_to_base(m2)
    kL0 = sym("kappaL_0")
    k0 = sym("kappa_0")
    # per-fiber count (d-1)(d-2)/2 - g with d = kappaL_0, 2g - 2 = kappa_0
    assert interior == kL0 * kL0 * Fraction(1, 2) - kL0 * Fraction(3, 2) - k0 * Fraction(1, 2)


THREE_NODE_FAMILY = FamilyDescriptor(
    1,
    chars={"d": 5, "b": 3, "Lomega": -2, "omega2": 7, "twogm2": 4},
    nodes=[Node("p", 2, tau_L=0), Node("q", Fraction(1, 3), tau_L=0), Node("r", 5, tau_L=0)],
)


def _degree3_classes_on_hilb2(fam):
    """Every degree-3 flag monomial in L1, L2, G2 pushed down, and the P^3 double points."""
    for a in range(4):
        for b in range(4 - a):
            expr = flag_L(1) ** a * flag_L(2) ** b * flag_G(2) ** (3 - a - b)
            yield "L1^%d*L2^%d*G2^%d" % (a, b, 3 - a - b), pushdown(fam, 2, expr)
    yield "double points", double_point_class(fam, 3)


@pytest.mark.parametrize("family", [symbolic_family(1), THREE_NODE_FAMILY])
def test_pushforward_to_base_integrates_to_the_degree(family):
    # integrating the base image over the curve base gives the class's degree:
    # each kappa symbol is a pushforward of X/B, each node term one point of B
    kappas = {"kappaL_0": "d", "kappa_0": "twogm2", "kappaL_1": "b",
              "kappaLw_0_0": "Lomega", "kappa_1": "omega2"}
    bindings = {k: family.char(v) for k, v in kappas.items()}
    bindings.update({"delta[%s|1]" % node.node_id: 1 for node in family.nodes})
    with_boundary = 0
    for name, cls in _degree3_classes_on_hilb2(family):
        interior, boundary = pushforward_to_base(cls)
        with_boundary += bool(boundary)
        pushed = interior.substitute(bindings) + boundary.substitute(bindings)
        assert pushed == integrate(cls), name
    assert with_boundary


def test_pushforward_to_base_refuses_what_it_has_no_symbol_for():
    # the base image is written for degree 2 only
    with pytest.raises(NotImplementedError, match="^base pushforward implemented for degree 2$"):
        pushforward_to_base(TautClass(symbolic_family(1), 3))
    # a kappa symbol pushes forward L and omega; over a point base a twist may hold pt
    point = symbolic_family(0)
    cls = TautClass.from_twists(point, [(2, BaseClass.gen(point.total_ring, "pt"))])
    with pytest.raises(NotImplementedError, match="kappa pushforward of"):
        pushforward_to_base(cls)


def _bound_tau_family(tau_L):
    return FamilyDescriptor(2, nodes=[Node("s", CharPoly.symbol("sigma"), tau_L=tau_L)])


def test_node_fixing_theta_star_L_to_zero_kills_its_tauL_integrals():
    # over a surface base, a node with tau_L = 0 integrates like the unbound
    # node with every boundary integral of a tauL monomial set to 0
    bound, free = _bound_tau_family(0), _bound_tau_family(None)
    with_tau = 0
    for m in (2, 3):
        symbols = ["L%d" % i for i in range(1, m + 1)] + ["G%d" % i for i in range(2, m + 1)]
        for exps in product(range(m + 3), repeat=len(symbols)):
            if sum(exps) != m + 2:
                continue
            expr = CharPoly({tuple((s, e) for s, e in zip(symbols, exps) if e): 1})
            unbound = integrate(pushdown(free, m, expr))
            zeros = {n: 0 for mono in unbound.terms for n, _ in mono if "tauL" in n}
            with_tau += bool(zeros)
            assert integrate(pushdown(bound, m, expr)) == unbound.substitute(zeros), exps
    assert with_tau


def test_double_point_first_excess_term_is_exact(fam):
    # the i = 1 term of the excess sum is minus the discriminant times c_{n-1}(T)
    n = 3
    l1, l2, g2 = flag_L(1), flag_L(2), flag_G(2)
    partial = CharPoly()  # the double-point polynomial of P^n without its i = 1 term
    for a in range(n + 1):
        partial.accumulate(l1 ** a * l2 ** (n - a))
    for i in range(2, n + 1):
        partial.accumulate(l1 ** (n - i) * g2 ** i, comb(n + 1, n - i) * (-1) ** i)
    diff = double_point_class(fam, n) - pushdown(fam, 2, partial).scale(Fraction(1, 2))
    ell = BaseClass.gen(fam.total_ring, "L")
    expected = twists(gamma_power(fam, 2, 1), [(None, ell ** (n - 1))])[0]
    assert diff == expected.scale(Fraction(-comb(n + 1, n - 1), 2))


def test_polarization_powers_m2_structure(fam):
    # (-Gamma)^k on the length-2 scheme: interior -[small diagonal]/2 twisted
    # by omega^(k-1), plus psi-polynomial node terms
    big = FamilyDescriptor(4, nodes=[Node("s", 1)])
    for k in (2, 3, 4):
        cls = gamma_power(big, 2, k).scale(Fraction((-1) ** k))
        [(key, coeff)] = cls.diag.items()
        assert key == ((), ((2, (("omega", k - 1),)),))
        assert coeff == CharPoly.const(Fraction(-1, 2))
        if k >= 2:
            assert ("s", 2, 1) in cls.by_node("section" if k >= 3 else "scroll")


def test_polarization_power_node_terms_are_psi_sums(fam):
    # the k-th power's section payload is the complete homogeneous psi
    # polynomial of degree k - 3 with weight 1/2
    big = FamilyDescriptor(5, nodes=[Node("s", 1)])
    k = 5
    cls = gamma_power(big, 2, k).scale(Fraction((-1) ** k))
    payload = cls.by_node("section")[("s", 2, 1)]
    expect = {}
    for i in range(k - 2):
        mono = []
        if i:
            mono.append(("psi_x", i))
        if k - 3 - i:
            mono.append(("psi_y", k - 3 - i))
        expect[(tuple(sorted(mono)), ())] = CharPoly.const(Fraction(1, 2))
    assert payload.diag == expect


def test_kappa_pushforward(fam):
    big = FamilyDescriptor(6, label="bigbase")
    for k in range(2, 7):
        cls = gamma_power(big, 2, k).scale(Fraction((-1) ** k))
        interior, _ = pushforward_to_base(cls)
        assert interior == CharPoly.symbol("kappa_%d" % (k - 2)) * Fraction(-1, 2)
