"""Checks that `FamilyDescriptor` makes on its node list."""

import pytest

from hilbtaut.charpoly import CharPoly
from hilbtaut.family import FamilyDescriptor, Node, fiber_integral, symbolic_family, theta_star


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
    # a node id goes into IT[<id>|...] keys and into the node tag #node.<id>
    with pytest.raises(ValueError, match="is not a plain word"):
        Node(node_id, 1)


def test_the_ids_in_use_are_plain_words():
    for node_id in ["s", "p", "q", "r", "a", "f", "n0", "n3", "node_2", "X"]:
        assert Node(node_id, 1).tag == "#node." + node_id


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
