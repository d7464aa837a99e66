"""Checks that `FamilyDescriptor` makes on its node list, and what its nodes bind."""

from fractions import Fraction
from pathlib import Path

import pytest

from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import chern_class_on_hilb, double_point_class
from hilbtaut.cli import load_descriptor
from hilbtaut.family import FamilyDescriptor, Node, fiber_integral, symbolic_family, theta_star
from hilbtaut.tautmod import TautClass, gamma_action, gamma_power, integrate, to_data
from hilbtaut.transfer import punctual_chern


def test_nodes_need_a_positive_dimensional_base():
    with pytest.raises(ValueError, match="node s needs dim_b >= 1, got dim_b = 0"):
        FamilyDescriptor(0, nodes=[Node("s", 1)])
    # a point base without nodes is one curve, and a curve base may carry nodes
    assert FamilyDescriptor(0).nodes == []
    assert FamilyDescriptor(1, nodes=[Node("s", 1)]).node("s").node_id == "s"


@pytest.mark.parametrize("dim_b", [1.5, True, -1])
def test_dim_b_is_an_integer_at_least_zero(dim_b):
    with pytest.raises(ValueError, match="dim_b must be an integer >= 0, got %r" % dim_b):
        FamilyDescriptor(dim_b)


def test_duplicate_node_ids_are_refused():
    with pytest.raises(ValueError, match="duplicate node id 'p'"):
        FamilyDescriptor(1, nodes=[Node("p", 1), Node("q", 2), Node("p", 3)])


@pytest.mark.parametrize("node_id", ["a|b", "x]y", "a b", " p", "", "c1c3#"])
def test_node_ids_are_plain_words(node_id):
    # a node id goes into IT[<id>|...] keys and into the node keys of a class
    with pytest.raises(ValueError, match="is not a plain word"):
        Node(node_id, 1)


def test_the_ids_in_use_are_plain_words():
    for node_id in ["s", "p", "q", "r", "a", "f", "n0", "n3", "node_2", "X"]:
        assert Node(node_id, 1).node_id == node_id


@pytest.mark.parametrize("weight", [0, -1, CharPoly.const(-2)])
def test_nonpositive_weights_are_refused(weight):
    with pytest.raises(ValueError, match="node q has nonpositive weight"):
        FamilyDescriptor(1, nodes=[Node("p", 1), Node("q", weight)])


def test_fiber_maps_refuse_a_symbol_they_do_not_map():
    fam = symbolic_family(2)
    # a base symbol has no degree on a fiber curve
    with pytest.raises(KeyError, match="no fiber degree for 'psi_x'"):
        fam.fiber_degree("psi_x")
    # restriction to a node section maps total-space symbols only
    with pytest.raises(AssertionError, match="unexpected symbol 'psi_x' at a node"):
        theta_star((("psi_x", 1),))
    # omega restricts to zero on a section, so a reduced slot never holds omega*theta_x
    with pytest.raises(AssertionError, match="unreduced section monomial"):
        fiber_integral(fam.boundary_family(), [(("omega", 1), ("theta_x", 1))])


def _curve_base_outputs(chars, weights, tau_L, m):
    """What a curve-base family with these nodes gives at degree m, as data and text."""
    nodes = [Node(node_id, w, tau_L=tau_L) for node_id, w in weights.items()]
    fam = FamilyDescriptor(1, chars=chars, nodes=nodes)
    return {
        "gamma_power": [to_data(gamma_power(fam, m, k)) for k in range(m + 2)],
        "gamma_integral": integrate(gamma_power(fam, m, m + 1)),
        "chern": to_data(chern_class_on_hilb(fam, m)),
        "double_points": [to_data(double_point_class(fam, n)) for n in range(4)],
        "double_point_integral": integrate(double_point_class(fam, 3)),
        "punctual_chern": repr(punctual_chern(fam, m)),
    }


SAMPLE = load_descriptor(str(Path(__file__).parent.parent / "sample-family.ini"))
CURVE_BASES = {
    "sample-family.ini": (SAMPLE.chars, {node.node_id: node.weight for node in SAMPLE.nodes}),
    "three numeric nodes": (
        {"d": 5, "b": 2, "Lomega": -1, "omega2": 3, "twogm2": 4},
        {"p": 2, "q": Fraction(1, 3), "r": 5},
    ),
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(CURVE_BASES))
def test_a_curve_base_node_needs_no_bound_tau_L(case, m):
    # the node base is a point: theta^*L is zero there whether a node binds it or not
    chars, weights = CURVE_BASES[case]
    unbound = _curve_base_outputs(chars, weights, None, m)
    assert unbound == _curve_base_outputs(chars, weights, 0, m)
    assert unbound["double_point_integral"] and (m == 1 or unbound["gamma_integral"])


def _one_node_surface(tau_L):
    return FamilyDescriptor(2, chars={"d": 3}, nodes=[Node("s", 2, tau_L=tau_L)])


def _gamma_power_of_a_twist(fam):
    """The integral of Gamma^4 times the degree-3 diagonal class twisted by L in one slot."""
    ring = fam.total_ring
    one = BaseClass.unit(ring)
    cls = TautClass.from_twists(fam, [(1, BaseClass.gen(ring, "L")), (1, one), (1, one)])
    for _ in range(4):
        cls = gamma_action(cls)
    return integrate(cls)


@pytest.mark.parametrize(
    "integral",
    [_gamma_power_of_a_twist, lambda fam: integrate(double_point_class(fam, 4))],
    ids=["gamma-power", "double-points"],
)
def test_a_bound_tau_L_is_the_integral_of_theta_star_L_over_a_curve_T(integral):
    # over dim_b = 2 the node base T is a curve: a bound tau_L is the number
    # (or symbol) int_T theta^*L, and the integral holds no integral of 1 over T
    free = integral(_one_node_surface(None))
    assert "IT[s|tauL|]" in {name for mono in free.terms for name, _ in mono}
    numeric = integral(_one_node_surface(3))
    symbolic = integral(_one_node_surface(CharPoly.symbol("t")))
    assert numeric == symbolic.substitute({"t": 3}) == free.substitute({"IT[s|tauL|]": 3})
    for value in (numeric, symbolic):
        assert not {name for mono in value.terms for name, _ in mono} & {"IT[s|1|]", "IT[s|tauL|]"}


@pytest.mark.parametrize("tau_L", [0, 3, CharPoly.symbol("t")])
def test_a_bound_tau_L_over_a_base_of_dimension_3_or_more_is_refused(tau_L):
    # over a boundary base of dimension >= 2 a number does not name theta^*L
    with pytest.raises(ValueError, match="node s binds tauL, .* has dimension 2"):
        FamilyDescriptor(3, nodes=[Node("s", 1, tau_L=tau_L)])
    assert FamilyDescriptor(3, nodes=[Node("s", 1)]).node("s").tau_L is None
