"""Family descriptors: numerical characters, boundary data, and fiber integration.

A family of nodal curves X -> B is described purely numerically: the base
dimension, the evaluable characters (d, b, Lomega, omega2, twogm2), and a
weighted list of relative nodes.  Characters may be bound to exact rationals
or left as symbols, in which case every evaluation returns a polynomial in
them.
"""

from __future__ import annotations

import re

from .basering import (
    make_boundary_ring,
    make_node_base_ring,
    make_total_space_ring,
)
from .charpoly import CharPoly
from .lincomb import merge_monos, mono_str


class Node:
    """A weighted relative node: a boundary datum with numerical data attached."""

    __slots__ = ("node_id", "tag", "weight", "tau_L", "psi_table")
    ID = re.compile("[A-Za-z0-9_]+")  # a plain word: `|` would make IT[...] ambiguous

    def __init__(self, node_id, weight, tau_L=None, psi_table=None):
        self.node_id = str(node_id)
        if not Node.ID.fullmatch(self.node_id):
            raise ValueError("node id %r is not a plain word %s" % (self.node_id, Node.ID.pattern))
        # marks its terms in a boundary payload; no descriptor or `#c1c3` spells it
        self.tag = "#node." + self.node_id
        self.weight = weight if isinstance(weight, CharPoly) else CharPoly.const(weight)
        if self.weight.is_constant() and self.weight.constant_value() <= 0:
            raise ValueError("node %s has nonpositive weight %s" % (self.node_id, self.weight))
        # theta^*(L) on the boundary base; None keeps it symbolic (a point base drops it)
        self.tau_L = tau_L if tau_L is None or isinstance(tau_L, CharPoly) else CharPoly.const(tau_L)
        # table of boundary-base integrals, keyed by canonical strings
        self.psi_table = dict(psi_table or {})

    def __repr__(self):
        return "Node(%s, weight=%s)" % (self.node_id, self.weight)


class FamilyDescriptor:
    """Numerical characters of a family X/B plus its weighted node list."""

    def __init__(self, dim_b, chars=None, nodes=(), label="X/B"):
        self.dim_b = checked_int(dim_b, 0, "dim_b")
        self.label = label
        self.chars = {}
        for key, value in (chars or {}).items():
            self.chars[key] = value if isinstance(value, CharPoly) else CharPoly.const(value)
        self.nodes = list(nodes)
        seen = set()
        for node in self.nodes:
            if node.node_id in seen:
                raise ValueError("duplicate node id %r" % node.node_id)
            seen.add(node.node_id)
            if dim_b < 1:
                raise ValueError("node %s needs dim_b >= 1, got dim_b = %d" % (node.node_id, dim_b))
        # every boundary payload is scaled by sum weight * tag over the nodes
        self.tagged_weight = sum((n.weight * CharPoly.symbol(n.tag) for n in self.nodes), CharPoly())
        self.total_ring = make_total_space_ring(dim_b)
        # the boundary base T that every node shares, and X^theta / T over it
        self.node_base_ring = make_node_base_ring(dim_b) if self.nodes else None
        self._boundary_family = None

    # -- characters -----------------------------------------------------------

    def char(self, key):
        """Character value; unbound keys stay symbolic."""
        if key in self.chars:
            return self.chars[key]
        return CharPoly.symbol(key)

    def sigma(self):
        return sum((node.weight for node in self.nodes), CharPoly())

    # -- nodes, rings, boundary families --------------------------------------

    def node(self, node_id):
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError("no node %r" % node_id)

    def boundary_family(self):
        """The normalized boundary family X^theta / T that every node shares.

        The base dimension drops by one, the relative canonical degree by two
        (a node is separated into two marked points).  The boundary family is
        node-free; its total-space ring carries the two sections.  A node's
        own data enter only at integration (`fiber_integral`'s `node`).
        """
        if self._boundary_family is None:
            chars = dict(self.chars)
            chars["twogm2"] = self.char("twogm2") - CharPoly.const(2)
            fam = FamilyDescriptor(self.dim_b - 1, chars=chars, label="%s^theta" % self.label)
            fam.total_ring = make_boundary_ring(self.dim_b)
            self._boundary_family = fam
        return self._boundary_family

    # -- fiber-level data ------------------------------------------------------

    def fiber_degree(self, name):
        """Degree on a fiber curve of a degree-1 symbol."""
        if name == "L":
            return self.char("d")
        if name == "omega":
            return self.char("twogm2")
        if name in ("theta_x", "theta_y", "pt"):
            return CharPoly.const(1)
        raise KeyError("no fiber degree for %r" % name)

    def __repr__(self):
        return "FamilyDescriptor(%s, dim_b=%d, nodes=%d)" % (
            self.label,
            self.dim_b,
            len(self.nodes),
        )


def checked_int(value, minimum, what):
    """`value` if it is an int (not a bool) >= `minimum`; else a ValueError naming `what`."""
    if type(value) is not int or value < minimum:
        raise ValueError("%s must be an integer >= %d, got %r" % (what, minimum, value))
    return value


def checked_curve_base(fam, what):
    """A ValueError unless `fam` has a 1-dimensional base: `what` needs one."""
    if fam.dim_b != 1:
        raise ValueError("%s needs a 1-dimensional base, got dim_b = %d" % (what, fam.dim_b))


def symbolic_family(dim_b=1):
    """Fully symbolic descriptor; one generic node of symbolic total weight."""
    nodes = [Node("s", CharPoly.symbol("sigma"))] if dim_b >= 1 else []
    return FamilyDescriptor(dim_b, nodes=nodes)


def fiber_integral(fam: FamilyDescriptor, slot_monos, base_mono=(), node=None):
    """Integrate a product of per-factor monomials over a fiber product of X/base.

    Each slot contributes one curve factor of the fiber product and holds
    only fiber symbols; `base_mono` is pulled back from the base.  The
    factors push down the fibration one at a time: a degree-1 fiber factor
    contributes its fiber degree, a degree-2 factor its total-space integral
    (a degree-1 class on the base).  Over a 1-dimensional base this forces
    exactly one degree-2 factor; over a point base all factors have degree 1.
    On a boundary family, `node` is the Node whose boundary base T is
    integrated over: its tau_L, psi_table and id enter the result.

    Raises ValueError when the total degree is not top-dimensional.
    """
    fdegs = [sum(p for _, p in mono) for mono in slot_monos]
    tdeg = sum(p for _, p in base_mono)
    excess = sum(fdegs) - len(fdegs)
    if excess + tdeg != fam.dim_b:
        raise ValueError(
            "not top-dimensional: base degree %d + fiber excess %d != base dim %d"
            % (tdeg, excess, fam.dim_b)
        )
    if 0 in fdegs:
        # pushforward of a pure pullback along a curve fibration vanishes
        return CharPoly()

    value = CharPoly.const(1)
    pushed = []  # factors of degree >= 2, integrated over the base
    for mono, d in zip(slot_monos, fdegs):
        if d == 1:
            value = value * fam.fiber_degree(mono[0][0])
            continue
        if any(n in ("theta_x", "theta_y") for n, _ in mono):
            # a section factor restricts the rest: pushforward is theta^*(L^k)
            tau = theta_star(tuple((n, p) for n, p in mono if n not in ("theta_x", "theta_y")))
            if tau is None:
                raise AssertionError("unreduced section monomial %r" % (mono,))
            base_mono = merge_monos(base_mono, tau)
        else:
            pushed.append(mono)
    return value * _base_integral(fam, base_mono, pushed, node)


def theta_star(mono):
    """Image of a total-space monomial under restriction to a node section.

    The canonical class restricts trivially, the polarization to its value on
    the boundary base; the result is a pure pullback monomial or None.
    """
    powers = {}
    for name, p in mono:
        if name == "omega":
            return None
        if name == "L":
            powers["tauL"] = powers.get("tauL", 0) + p
        else:
            raise AssertionError("unexpected symbol %r at a node" % name)
    return tuple(sorted(powers.items()))


# integrals over X of the degree-2 total-space monomials, base of dimension 1
_NAMED_INTEGRALS = {(("L", 2),): "b", (("L", 1), ("omega", 1)): "Lomega", (("omega", 2),): "omega2"}


def _base_integral(fam, base_mono, pushed, node):
    """Integrate a base monomial times pushed-down factors over the base, or over T of `node`."""
    if node is None and fam.total_ring.psi_of:
        raise ValueError("an integral over %s needs the node whose base it is" % fam.label)
    base_dim = fam.dim_b
    # bind theta^*L when the node fixes its value
    tau_power = dict(base_mono).get("tauL", 0)
    tau_value = None
    if tau_power and node.tau_L is not None:
        tau_value = node.tau_L ** tau_power
        if not tau_value:
            return CharPoly()
        base_mono = tuple((n, p) for n, p in base_mono if n != "tauL")

    if base_dim == 0:
        assert not base_mono and not pushed
        result = CharPoly.const(1)
    elif base_dim == 1 and not base_mono and len(pushed) == 1 and node is None:
        # the total space over a curve base has only the fiber symbols L, omega
        result = fam.char(_NAMED_INTEGRALS[pushed[0]])
    else:
        key = integral_key(node.node_id if node is not None else fam.label, base_mono, pushed)
        if node is not None and key in node.psi_table:
            result = node.psi_table[key]
        else:
            result = CharPoly.symbol(key)
    if tau_value is not None:
        result = result * tau_value
    return result


def integral_key(where, base_mono, pushed):
    """IT[where|base monomial|pushed factors, sorted and `;`-joined]: an integral left open."""
    return "IT[%s|%s|%s]" % (where, mono_str(base_mono), ";".join(sorted(map(mono_str, pushed))))
