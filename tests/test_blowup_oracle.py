"""An m = 2 check of the node sectors from the blow-up of X x X along its diagonal.

Take a family f: X -> B of nodal curves of genus g over a curve B of genus
g_B, with smooth total surface X and sigma nodes.  The 2-step flag over its
relative Hilb^2 is the strict transform Z = pi^*[X x_B X] - E of the fiber
square in Bl_Delta(X x X), and the engine's G2 (the pullback of the
discriminant polarization) is the exceptional divisor E.  Every integral over
Z then reduces to X x X and to Delta = X (Fulton, Intersection Theory, 3.1
and 6.7):

* int pi^*gamma . E^k = (-1)^(k-1) int_X gamma|_Delta . s_(k-2)(T_X), and 0 for k = 1;
* [X x_B X] acts as F1 + F2 on even classes, and [X x_B X]|_Delta = (2 - 2g_B) F;
* c1(T_X) = -omega - (2g_B - 2) F and c2(T_X) = (2 - 2g_B)(2 - 2g) + sigma.

The sigma of c2(T_X) is the only way the nodes enter, so the comparison with
`integrate(pushdown(...))` checks the engine's scroll and section sectors.
The genus g_B of the base is kept as a symbol and must cancel.  The arithmetic here uses
only `CharPoly` (as the Chow ring of X and for the characters) and
`Fraction`; the engine is called only for the other side of each comparison.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import pushdown
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.tautmod import integrate
from reference import chern_splitting, graded_part

sym = CharPoly.symbol
ONE = CharPoly.const(1)
GB = sym("gB")  # genus of the base curve; must cancel

# the Chow ring of X: degree-1 generators L, omega, a fiber F, and the point class pt
X_DEGREE = {"L": 1, "omega": 1, "F": 1, "pt": 2}
X_INTEGRALS = {
    (("L", 2),): sym("b"),
    (("L", 1), ("omega", 1)): sym("Lomega"),
    (("omega", 2),): sym("omega2"),
    (("F", 1), ("L", 1)): sym("d"),
    (("F", 1), ("omega", 1)): sym("twogm2"),
    (("F", 2),): CharPoly(),
    (("pt", 1),): ONE,
}
L, OMEGA, F, PT = (sym(n) for n in ("L", "omega", "F", "pt"))
TWO_MINUS_2GB = ONE * 2 - GB * 2
C1 = -OMEGA - (GB * 2 - 2) * F  # c1(T_X) = -K_X
C2 = (TWO_MINUS_2GB * (-sym("twogm2")) + sym("sigma")) * PT  # topological Euler class
SEGRE = [ONE, -C1, C1 * C1 - C2]  # s(T_X) = c(T_X)^(-1), up to degree 2


def x_integral(poly):
    """Degree on X of a class in L, omega, F, pt; other symbols are coefficients."""
    total = CharPoly()
    for mono, c in poly.terms.items():
        x_part = tuple((n, p) for n, p in mono if n in X_DEGREE)
        if sum(X_DEGREE[n] * p for n, p in x_part) == 2:
            coeff = tuple((n, p) for n, p in mono if n not in X_DEGREE)
            total.accumulate(X_INTEGRALS[x_part] * CharPoly({coeff: c}))
    return total


def z_integral(a1, a2, k):
    """int_Z L1^a1 L2^a2 E^k with a1 + a2 + k = 3, over the blow-up."""
    if k == 0:
        # int_(X x X) (F1 + F2) L1^a1 L2^a2, one factor at a time
        one, two = L ** a1, L ** a2
        return x_integral(F * one) * x_integral(two) + x_integral(one) * x_integral(F * two)
    # (pi^*[X x_B X] - E) pi^*gamma E^k with gamma = L1^a1 L2^a2, gamma|_Delta = L^(3-k)
    restricted = L ** (a1 + a2)
    value = x_integral(restricted * SEGRE[k - 1])
    if k >= 2:
        value = value + x_integral(F * restricted * SEGRE[k - 2]) * TWO_MINUS_2GB
    return value * (-1) ** (k - 1)


def oracle(expr):
    """int_Z of a degree-3 polynomial in L1, L2, G2, with G2 = E; free of g_B."""
    total = CharPoly()
    for mono, c in expr.terms.items():
        powers = dict(mono)
        total.accumulate(z_integral(powers.get("L1", 0), powers.get("L2", 0),
                                    powers.get("G2", 0)), c)
    assert not any(name == "gB" for mono in total.terms for name, _ in mono), total
    return total


L1, L2, G2 = sym("L1"), sym("L2"), sym("G2")
MONOMIALS = [
    L1 ** a * L2 ** b * G2 ** (3 - a - b) for a, b in product(range(4), repeat=2) if a + b <= 3
]
CHERN = (ONE + L1) * (ONE + L2 - G2)  # c(L^[2]) on the 2-step flag
CHERN_NUMBERS = {
    "c1^3": graded_part(CHERN, 1) ** 3,
    "c1c2": graded_part(CHERN, 1) * graded_part(CHERN, 2),
}


def test_the_ten_monomials_and_the_hand_values():
    assert len(MONOMIALS) == 10
    b, d, lw, w2, sg = (sym(n) for n in ("b", "d", "Lomega", "omega2", "sigma"))
    # the values checked by hand in ROADMAP item 4
    assert oracle(L1 ** 2 * L2) == b * d
    assert not oracle(L1 ** 3)
    assert oracle(L1 ** 2 * G2) == b and oracle(L1 * L2 * G2) == b
    assert oracle(L1 * G2 ** 2) == -lw and oracle(L2 * G2 ** 2) == -lw
    assert oracle(G2 ** 3) == w2 - sg


@pytest.mark.parametrize("expr", MONOMIALS, ids=str)
def test_monomials_match_the_engine(expr):
    assert integrate(pushdown(symbolic_family(1), 2, expr)) == oracle(expr)


@pytest.mark.parametrize("name", sorted(CHERN_NUMBERS))
def test_chern_numbers_of_the_tautological_bundle(name):
    assert chern_splitting(2) == CHERN
    expr = CHERN_NUMBERS[name]
    assert integrate(pushdown(symbolic_family(1), 2, expr)) == oracle(expr)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
weights = st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6)


@given(
    chars=st.fixed_dictionaries(
        {"b": rationals, "d": rationals, "Lomega": rationals, "omega2": rationals}
    ),
    genus=st.integers(min_value=0, max_value=5),
    node_weights=st.lists(weights, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_numeric_families_match_the_engine(chars, genus, node_weights):
    # nodes over a 1-dimensional base pull L back to zero, as the CLI loader sets
    nodes = [Node("n%d" % i, w, tau_L=0) for i, w in enumerate(node_weights)]
    fam = FamilyDescriptor(1, chars=dict(chars, twogm2=2 * genus - 2), nodes=nodes)
    values = {name: CharPoly.const(v) for name, v in chars.items()}
    values.update(twogm2=CharPoly.const(2 * genus - 2), sigma=CharPoly.const(sum(node_weights)))
    for expr in MONOMIALS + list(CHERN_NUMBERS.values()):
        expected = oracle(expr).substitute(values)
        assert expected.is_constant()
        assert integrate(pushdown(fam, 2, expr)) == expected, expr
