from fractions import Fraction
from math import comb

import pytest

from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.tautmod import TautClass, gamma_action, gamma_as_class, integrate
from hilbtaut.transfer import (
    PunctualClass,
    nu_minus,
    nu_plus,
    pluecker_c2,
    pluecker_s2,
    psi_power_class,
    punctual_chern,
    punctual_transfer,
    segre_contact_step,
    small_flag_gamma,
    transfer,
)


def sym(name):
    return CharPoly.symbol(name)


@pytest.fixture
def fam():
    return symbolic_family(1)


# -- the flaglet transfer -------------------------------------------------------------


def test_transfer_diagonal_rule(fam):
    ring = fam.total_ring
    L = BaseClass.gen(ring, "L")
    cls = TautClass(fam, 3)
    cls.add_diag((), ((3, ()),), 1)
    out = transfer(cls, L)
    assert out.diag == {((), ((3, ()), (1, (("L", 1),)))): CharPoly.const(1)}


def test_transfer_doubles_discriminant(fam):
    # moving the two-point locus up one degree gives twice the discriminant
    cls = gamma_as_class(fam, 2).scale(2)
    out = transfer(cls)
    assert out == gamma_as_class(fam, 3).scale(2)


def test_transfer_raises_degree_preserves_codim(fam):
    from hilbtaut.tautmod import gamma_power

    for m, k in ((2, 1), (2, 2), (3, 2)):
        cls = gamma_power(fam, m, k)
        out = transfer(cls)
        assert out.m == m + 1
        assert cls.codim_parts() == out.codim_parts()


def test_transfer_omega_kills_section_shift(fam):
    # the added-point twist by the canonical class restricts trivially to the
    # node, so only the section summand survives in the section rule
    ring = fam.total_ring
    omega = BaseClass.gen(ring, "omega")
    bd = fam.boundary_family("s")
    src = TautClass(fam, 2)
    src.add_section("s", 2, 1, TautClass.fundamental(bd, 0))
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
    bd = fam.boundary_family("s")
    for n in range(2, min(4, m0) + 1):
        payload = TautClass.fundamental(bd, m0 - n)
        for j in range(1, n):
            for beta in (one, L):
                src = TautClass.zero(fam, m0)
                src.add_section("s", n, j, payload)
                a = transfer(src, beta, variant="j")
                b = transfer(src, beta, variant="j+1")
                t = m1 + 2 - (n + 1)
                for _ in range(t):
                    a = gamma_action(a)
                    b = gamma_action(b)
                assert integrate(a) == integrate(b), (m1, n, j)


# -- punctual transfer -----------------------------------------------------------------


def _one_component(fam, m, i, sector):
    """The punctual class of degree m with the unit class on one node component."""
    pc = PunctualClass(fam, m)
    getattr(pc, sector)["s"][i] = BaseClass.unit(fam.node_base_ring("s"))
    return pc


def test_punctual_scroll_coefficients(fam):
    out = punctual_transfer(fam, _one_component(fam, 2, 1, "scroll"))
    ring = fam.node_base_ring("s")
    assert out.scroll["s"][1] == BaseClass.unit(ring, 1)
    assert out.scroll["s"][2] == BaseClass.unit(ring, 1)
    out = punctual_transfer(fam, _one_component(fam, 3, 1, "scroll"))
    assert out.scroll["s"][1] == BaseClass.unit(ring, 1)
    assert out.scroll["s"][2] == BaseClass.unit(ring, Fraction(2, 3))


def test_punctual_coefficient_row_sums():
    # the two fractions always add up to (m+1)/(m-1)
    for m in range(3, 9):
        for i in range(1, m - 1):
            total = Fraction(m - i, m - 1) + Fraction(i + 1, m - 1)
            assert total == Fraction(m + 1, m - 1)


def test_psi_power_exponents(fam):
    big = FamilyDescriptor(40, nodes=[Node("s", 1)])
    bring = big.node_base_ring("s")
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


def test_punctual_section_transfer(fam):
    big = FamilyDescriptor(9, nodes=[Node("s", 1)])
    out = punctual_transfer(big, _one_component(big, 2, 1, "section"))
    bring = big.node_base_ring("s")
    assert out.scroll["s"][1] == psi_power_class(bring, 2, 1)
    assert out.scroll["s"][2] == psi_power_class(bring, 2, 2)


def test_punctual_transfer_full_class_consistency(fam):
    # a component C^{m-1}_i moves to (m-i)/(m-1) C^m_i + (i+1)/(m-1) C^m_{i+1};
    # a section over it does the same with the psi-power twist psi^{m-1}_i,
    # psi^{m-1}_{i+1}, and no section survives
    big = FamilyDescriptor(9, nodes=[Node("s", 1)])
    bring = big.node_base_ring("s")
    zero = BaseClass.zero(bring)
    for m in range(2, 6):
        for i in range(1, m - 1):
            low, high = Fraction(m - i, m - 1), Fraction(i + 1, m - 1)
            twists = {
                "scroll": (BaseClass.unit(bring), BaseClass.unit(bring)),
                "section": (
                    psi_power_class(bring, m - 1, i),
                    psi_power_class(bring, m - 1, i + 1),
                ),
            }
            for sector, (twist_i, twist_next) in twists.items():
                moved = punctual_transfer(big, _one_component(big, m - 1, i, sector))
                expected = {k: zero for k in range(1, m)}
                expected[i] = twist_i * low
                expected[i + 1] = twist_next * high
                assert moved.scroll["s"] == expected, (m, i, sector)
                assert all(c.is_zero() for c in moved.section["s"].values())


# -- discriminants on the flaglet small diagonal ----------------------------------------


def test_small_flag_coefficients():
    assert nu_minus(3, 1) == 2
    assert nu_plus(2, 1) == 1
    for m in range(2, 9):
        total = sum(nu_minus(m, i) for i in range(1, m - 1))
        total_plus = sum(nu_plus(m - 1, i) for i in range(1, m))
        assert total == total_plus == Fraction(m * (m - 2) * (m * m - 1), 12)


def test_punctual_transfer_reproves_small_flag_coefficients():
    # transferring the lower discriminant restriction from the smaller small
    # diagonal must reproduce the cross coefficients of the flaglet lemma:
    # the collapsing components drop and the rest spread by the two fractions
    from hilbtaut.tautmod import nu_coeff

    for m in range(3, 9):
        for i in range(1, m):
            lhs = Fraction(0)
            if 1 <= i <= m - 2:
                lhs += nu_coeff(m - 1, i) * Fraction(m - i, m - 1)
            if 1 <= i - 1 <= m - 2:
                lhs += nu_coeff(m - 1, i - 1) * Fraction(i, m - 1)
            assert lhs == nu_plus(m - 1, i), (m, i)


def test_small_flag_upper_line_pushes_to_small_diagonal():
    # pushed down to the small diagonal, the upper expansion loses exactly the
    # collapsing components and agrees with the discriminant restriction
    from hilbtaut.tautmod import nu_coeff, small_diag_gamma

    fam = symbolic_family(1)
    m = 4
    upper, _, _ = small_flag_gamma(fam, m)
    pushed = small_diag_gamma(fam, m)
    [(key, coeff)] = pushed.diag.items()
    assert key == ((), ((m, (("omega", 1),)),))
    assert coeff == CharPoly.const(upper["omega"])
    for i in range(1, m):
        payload = pushed.scroll[("s", m, i)]
        assert payload.diag == {((), ()): CharPoly.symbol("sigma") * upper[("m", i)]}


def test_small_flag_gamma_difference():
    upper, lower, diff = small_flag_gamma(symbolic_family(1), 4)
    m = 4
    assert upper["omega"] == -comb(m, 2)
    assert lower["omega"] == -comb(m - 1, 2)
    assert diff["omega"] == -(m - 1)
    for i in range(1, m):
        assert diff[("m", i)] == i * (m - i)
    for i in range(1, m - 1):
        assert diff[("m-1", i)] == i * (m - 1 - i)


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
    tring = fam.node_base_ring("s")
    # theta^*L vanishes over a 1-dimensional base, so the first scroll
    # coefficient is nu(2,1) = 1 times the unit
    assert pc.scroll["s"][1] == BaseClass.unit(tring)
    assert pc.section["s"][1].is_zero()


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


def test_pluecker_closed_forms_match_recursions(fam):
    for m in range(1, 9):
        pluecker_s2(fam, m)  # raises on disagreement
        pluecker_c2(fam, m)


@pytest.mark.parametrize("contact", [pluecker_s2, pluecker_c2])
def test_pluecker_needs_a_curve_base(contact):
    with pytest.raises(ValueError, match="1-dimensional base"):
        contact(symbolic_family(2), 3)


def test_pluecker_values(fam):
    b, lw, w2, sg = (sym(k) for k in ("b", "Lomega", "omega2", "sigma"))
    assert pluecker_s2(fam, 1) == b
    assert pluecker_s2(fam, 2) == b * 3 + lw * 3 + w2 - sg
    assert pluecker_s2(fam, 3) == b * 6 + lw * 12 + w2 * 7 - sg * 5
    assert pluecker_c2(fam, 1).is_zero()
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


def test_c2_recursion_step_values(fam):
    from hilbtaut.transfer import c2_contact_step

    # the explicit degree-4 step of the second-Chern recursion
    b, lw, w2, sg = (sym(k) for k in ("b", "Lomega", "omega2", "sigma"))
    m = 4
    step = c2_contact_step(fam, m)
    expected = (
        b * (m - 1)
        + w2 * ((m - 1) * comb(m - 1, 2))
        + lw * Fraction((m - 1) * (3 * m - 4), 2)
        - sg * (2 * comb(m + 1, 4))
    )
    assert step == expected
    assert pluecker_c2(fam, 4) - pluecker_c2(fam, 3) == expected


def test_segre_step_section_coefficients(fam):
    step = segre_contact_step(fam, 4)
    tring = fam.node_base_ring("s")
    for i in range(1, 4):
        assert step.section["s"][i] == BaseClass.unit(tring, -i * (4 - i))


def test_segre_step_scroll_twists_over_bigger_base():
    # over a higher-dimensional base the scroll components carry the section
    # value of the bundle with coefficient -3 nu(m, i)
    from hilbtaut.tautmod import nu_coeff

    big = FamilyDescriptor(2, nodes=[Node("s", 1)])
    m = 4
    step = segre_contact_step(big, m)
    tring = big.node_base_ring("s")
    tau = BaseClass.gen(tring, "tauL")
    for i in range(1, m):
        assert step.scroll["s"][i] == tau * (-3 * nu_coeff(m, i))
