import hashlib
import json
import re
from fractions import Fraction
from math import comb

import pytest

from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.tautmod import TautClass, gamma_action, gamma_power, integrate
from hilbtaut.transfer import (
    _spread,
    pluecker_c2,
    pluecker_s2,
    psi_power_class,
    punctual_chern,
    transfer,
)
from reference import codim_parts, s2_contact_step, transfer_through_dj


def sym(name):
    return CharPoly.symbol(name)


@pytest.fixture
def fam():
    return symbolic_family(1)


# -- the flaglet transfer -------------------------------------------------------------


def test_transfer_refuses_a_twist_on_another_ring(fam):
    twist = BaseClass.gen(symbolic_family(2).total_ring, "L")
    with pytest.raises(ValueError, match="twist must live on the same total space"):
        transfer(gamma_power(fam, 2, 1), twist)


def test_transfer_diagonal_rule(fam):
    ring = fam.total_ring
    L = BaseClass.gen(ring, "L")
    cls = TautClass(fam, 3)
    cls.add_diag((), ((3, ()),), 1)
    out = transfer(cls, L)
    assert out.diag == {((), ((3, ()), (1, (("L", 1),)))): CharPoly.const(1)}


def test_transfer_doubles_discriminant(fam):
    # moving the two-point locus up one degree gives twice the discriminant
    cls = gamma_power(fam, 2, 1).scale(2)
    out = transfer(cls)
    assert out == gamma_power(fam, 3, 1).scale(2)


def test_transfer_raises_degree_preserves_codim(fam):
    for m, k in ((2, 1), (2, 2), (3, 2)):
        cls = gamma_power(fam, m, k)
        out = transfer(cls)
        assert out.m == m + 1
        assert codim_parts(cls) == codim_parts(out)


def test_transfer_omega_kills_section_shift(fam):
    # the added-point twist by the canonical class restricts trivially to the
    # node, so only the section summand survives in the section rule
    ring = fam.total_ring
    omega = BaseClass.gen(ring, "omega")
    bd = fam.boundary_family()
    src = TautClass(fam, 2)
    src.add_node("section", "s", 2, 1, TautClass.fundamental(bd, 0))
    out = transfer(src, omega)
    assert not any(n == 3 for (_, n, _) in out.scroll)


@pytest.mark.parametrize("m1", [3, 4, 5])
def test_section_transfer_forms_agree(m1):
    # the two resolutions of a node section transfer agree as cycle classes:
    # pair both against all discriminant powers over a 2-dimensional base
    fam = FamilyDescriptor(2, nodes=[Node("s", 1)])
    ring = fam.total_ring
    L = BaseClass.gen(ring, "L")
    one = BaseClass.unit(ring)
    m0 = m1 - 1
    bd = fam.boundary_family()
    for n in range(2, min(4, m0) + 1):
        payload = TautClass.fundamental(bd, m0 - n)
        for j in range(1, n):
            for beta in (one, L):
                src = TautClass(fam, m0)
                src.add_node("section", "s", n, j, payload)
                a = transfer(src, beta)
                b = transfer_through_dj(src, beta)
                t = m1 + 2 - (n + 1)
                for _ in range(t):
                    a = gamma_action(a)
                    b = gamma_action(b)
                assert integrate(a) == integrate(b), (m1, n, j)


@pytest.mark.parametrize("m", [0, 2.5, True])
def test_punctual_chern_refuses_a_degree_that_is_not_a_positive_int(fam, m):
    with pytest.raises(ValueError, match="^m must be an integer >= 1, got %s$" % re.escape(repr(m))):
        punctual_chern(fam, m)


# -- psi powers -------------------------------------------------------------------------


def test_punctual_scroll_coefficients():
    # one component k of degree m-1 spreads onto C^m_k with weight m-k and onto
    # C^m_(k+1) with weight k+1, the punctual transfer fractions times m-1
    for m in range(3, 9):
        for k in range(1, m - 1):
            parts = {j: Fraction(int(j == k)) for j in range(m)}
            spread = {i: _spread(parts, m, i) for i in range(1, m)}
            expected = {i: Fraction(0) for i in range(1, m)}
            expected[k] = Fraction(m - k)
            expected[k + 1] = Fraction(k + 1)
            assert spread == expected, (m, k)
    ring = symbolic_family(1).node_base_ring
    zero = BaseClass(ring)
    parts = {0: zero, 1: BaseClass.unit(ring), 2: zero}
    assert _spread(parts, 3, 1) == BaseClass.unit(ring, 2)
    assert _spread(parts, 3, 2) == BaseClass.unit(ring, 2)


def test_punctual_coefficient_row_sums():
    # the two fractions always add up to (m+1)/(m-1)
    for m in range(3, 9):
        for i in range(1, m - 1):
            total = Fraction(m - i, m - 1) + Fraction(i + 1, m - 1)
            assert total == Fraction(m + 1, m - 1)


def test_psi_power_exponents(fam):
    big = FamilyDescriptor(40, nodes=[Node("s", 1)])
    bring = big.node_base_ring
    assert psi_power_class(bring, 2, 1) == BaseClass.gen(bring, "psi_x")
    expected = BaseClass.gen(bring, "psi_x") * BaseClass.gen(bring, "psi_y")
    assert psi_power_class(bring, 3, 2) == expected
    for m in range(2, 7):
        for i in range(1, m):
            cls = psi_power_class(bring, m, i)
            [(mono, c)] = cls.terms.items()
            powers = dict(mono)
            assert powers.get("psi_x", 0) == comb(m - i + 1, 2)
            assert powers.get("psi_y", 0) == comb(i, 2)


# -- discriminants on the flaglet small diagonal ----------------------------------------


def test_small_flag_upper_line_pushes_to_small_diagonal():
    # pushed down to the small diagonal, the upper expansion loses exactly the
    # collapsing components: -binom(m,2) omega on the block, nu(m,i) sigma on C^m_i
    m = 4
    small = TautClass(symbolic_family(1), m)
    small.add_diag((), ((m, ()),), 1)
    pushed = gamma_action(small)
    [(key, coeff)] = pushed.diag.items()
    assert key == ((), ((m, (("omega", 1),)),))
    assert coeff == CharPoly.const(-comb(m, 2))
    for i in range(1, m):
        payload = pushed.scroll[("s", m, i)]
        assert payload.diag == {((), ()): sym("sigma") * Fraction(i * (m - i) * m, 2)}


def test_punctual_transfer_reproves_small_flag_coefficients():
    # spreading the lower discriminant coefficients nu(m-1, k) by the punctual
    # rule, over m-1, gives the flaglet cross coefficient i(m-i)(m-2)/2 on C^m_i
    from hilbtaut.tautmod import nu_coeff

    for m in range(3, 9):
        parts = {k: nu_coeff(m - 1, k) for k in range(1, m - 1)}
        parts[0] = parts[m - 1] = Fraction(0)
        for i in range(1, m):
            lhs = _spread(parts, m, i) / (m - 1)
            assert lhs == Fraction(i * (m - i) * (m - 2), 2), (m, i)


def test_small_flag_gamma_difference():
    # consecutive small diagonals: the omega blocks differ by -(m-1), and the
    # scroll components of each carry exactly nu(n, i) sigma
    fam = symbolic_family(1)
    omega = {}
    for n in range(2, 7):
        small = TautClass(fam, n)
        small.add_diag((), ((n, ()),), 1)
        pushed = gamma_action(small)
        [(key, coeff)] = pushed.diag.items()
        assert key == ((), ((n, (("omega", 1),)),))
        omega[n] = coeff
        assert set(pushed.scroll) == {("s", n, i) for i in range(1, n)}
        for i in range(1, n):
            payload = pushed.scroll[("s", n, i)]
            assert payload.diag == {((), ()): sym("sigma") * Fraction(i * (n - i) * n, 2)}
    for m in range(3, 7):
        assert omega[m] - omega[m - 1] == CharPoly.const(-(m - 1))


# -- punctual Chern recursion and closed contact formulas --------------------------------


def test_punctual_chern_base_cases(fam):
    ring = fam.total_ring
    one, L, w = (
        BaseClass.unit(ring),
        BaseClass.gen(ring, "L"),
        BaseClass.gen(ring, "omega"),
    )
    pc = punctual_chern(fam, 2)
    assert pc.interior == (one + L) * (one + L + w)
    tring = fam.node_base_ring
    # theta^*L vanishes over a 1-dimensional base, so the first scroll
    # coefficient is nu(2,1) = 1 times the unit
    assert pc.scroll["s"][1] == BaseClass.unit(tring)
    assert not pc.section["s"][1]


def test_punctual_chern_interior_product(fam):
    ring = fam.total_ring
    one, L, w = (
        BaseClass.unit(ring),
        BaseClass.gen(ring, "L"),
        BaseClass.gen(ring, "omega"),
    )
    for m in (3, 4):
        pc = punctual_chern(fam, m)
        expected = BaseClass.unit(ring)
        for i in range(1, m + 1):
            expected = expected * (one + L + w * (i - 1))
        assert pc.interior == expected


def _punctual_data(pc):
    nodes = sorted(pc.scroll)
    return {
        "m": pc.m,
        "interior": str(pc.interior),
        "scroll": {n: {str(i): str(c) for i, c in pc.scroll[n].items()} for n in nodes},
        "section": {n: {str(i): str(c) for i, c in pc.section[n].items()} for n in nodes},
    }


def test_punctual_chern_classes_are_pinned():
    # sha256 over every exact punctual Chern class up to m = 10: bound and
    # symbolic theta^*L, several nodes, and bases of dimension 0 to 3
    fams = [symbolic_family(dim_b) for dim_b in range(4)] + [
        FamilyDescriptor(
            2, chars={"d": 3}, nodes=[Node("p", 2, tau_L=0), Node("q", Fraction(1, 3))]
        ),
        FamilyDescriptor(3, nodes=[Node("p", sym("w"))]),
    ]
    data = [_punctual_data(punctual_chern(f, m)) for f in fams for m in range(1, 11)]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == "e1f7e0a7f6b7dc9af30374c20485399198d5746113088edc20d50ef3891a0b37"


@pytest.mark.parametrize(
    "family",
    [
        symbolic_family(1),
        FamilyDescriptor(
            1,
            chars={"b": 3, "Lomega": Fraction(-2, 5), "omega2": 7},
            nodes=[Node("p", 2, tau_L=0), Node("q", Fraction(1, 3), tau_L=4)],
        ),
    ],
    ids=["symbolic", "two-nodes"],
)
def test_pluecker_closed_forms_match_recursions(family):
    # both sides are polynomials of degree <= 4 in m, linear in the characters
    # and the node weights: agreement at m = 1..5 proves s2 for every curve base.
    # pluecker_c2's closed form against its recursion: test_c2_closed_form_sums_its_steps
    total = CharPoly()
    for m in range(1, 9):
        total = total + s2_contact_step(family, m)
        assert pluecker_s2(family, m) == total, m


@pytest.mark.parametrize("contact", [pluecker_s2, pluecker_c2])
def test_pluecker_needs_a_curve_base(contact):
    with pytest.raises(ValueError, match="1-dimensional base"):
        contact(symbolic_family(2), 3)


def test_pluecker_values(fam):
    b, lw, w2, sg = (sym(k) for k in ("b", "Lomega", "omega2", "sigma"))
    assert pluecker_s2(fam, 1) == b
    assert pluecker_s2(fam, 2) == b * 3 + lw * 3 + w2 - sg
    assert pluecker_s2(fam, 3) == b * 6 + lw * 12 + w2 * 7 - sg * 5
    assert not pluecker_c2(fam, 1)
    assert pluecker_c2(fam, 2) == b + lw


def test_contact_counts_match_jet_bundles():
    # node-free check: the punctual bundle restricted to the small diagonal is
    # the fiberwise jet bundle with total class prod_{i<m} (1 + L + i omega)
    from itertools import combinations as pairs

    nofam = FamilyDescriptor(1, label="smooth")
    b, lw, w2 = (sym(k) for k in ("b", "Lomega", "omega2"))
    for m in range(1, 7):
        roots = [(1, i) for i in range(m)]  # (L coefficient, omega coefficient)
        c1L, c1w = m, sum(i for _, i in roots)
        c2LL = comb(m, 2)
        c2Lw = sum(i + j for (_, i), (_, j) in pairs(roots, 2))
        c2ww = sum(i * j for (_, i), (_, j) in pairs(roots, 2))
        s2 = (
            b * (c1L * c1L - c2LL)
            + lw * (2 * c1L * c1w - c2Lw)
            + w2 * (c1w * c1w - c2ww)
        )
        assert pluecker_s2(nofam, m) == s2
        c2 = b * c2LL + lw * c2Lw + w2 * c2ww
        assert pluecker_c2(nofam, m) == c2


def c2_contact_step(m):
    """Integrated m-th step of the second-Chern recursion, base of dimension 1."""
    b, lw, w2, sg = (sym(k) for k in ("b", "Lomega", "omega2", "sigma"))
    return (
        b * (m - 1)
        + w2 * ((m - 1) * comb(m - 1, 2))
        + lw * Fraction((m - 1) * (3 * m - 4), 2)
        - sg * (2 * comb(m + 1, 4))
    )


def test_c2_closed_form_sums_its_steps(fam):
    # both sides are polynomials of degree <= 5 in m, so agreement at m = 1..12
    # (the start and eleven steps) proves the identity for every m
    assert not pluecker_c2(fam, 1)
    for m in range(2, 13):
        assert pluecker_c2(fam, m) - pluecker_c2(fam, m - 1) == c2_contact_step(m), m

