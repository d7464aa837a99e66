"""Acceptance suite: one test per contract criterion, exact tolerances.

Every assertion is exact rational equality; each test prints a PASS line so
the suite doubles as a checklist when run with -s.
"""

import random
from fractions import Fraction

from hilbtaut.basering import BaseClass, make_total_space_ring
from hilbtaut.charpoly import CharPoly
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.oracle import OrderedTensor, ordered_disc, symmetrize
from hilbtaut.partitions import aut_count
from hilbtaut.tautmod import (
    TautClass,
    gamma_action,
    gamma_power,
    integrate,
    nu_coeff,
    twists,
)
from hilbtaut.tensym import TensorClass, discriminant_op
from hilbtaut.transfer import pluecker_c2, pluecker_s2, transfer
from hilbtaut.chern import (
    chern_numbers_w3,
    single_curve_trisecant_formula,
    single_curve_trisecant_scroll,
    trisecant_count,
    trisecant_grand_total,
    w3_monomial,
)
from reference import gamma_power_on_scroll, s2_contact_step, transfer_through_dj, u_omega_total


def sym(name):
    return CharPoly.symbol(name)


B, D, LW, W2, SG, TG = (sym(k) for k in ("b", "d", "Lomega", "omega2", "sigma", "twogm2"))


def report(criterion, detail=""):
    print("PASS acceptance %s %s" % (criterion, detail))


def test_criterion_1_small_diagonal_multiplicities():
    expected = {2: [1], 3: [3, 3], 4: [6, 8, 6], 5: [10, 15, 15, 10]}
    for m, vector in expected.items():
        assert [nu_coeff(m, i) for i in range(1, m)] == vector
        assert sum(nu_coeff(m, i) for i in range(1, m)) == Fraction(
            m * m * (m * m - 1), 12
        )
    report(1, "exceptional multiplicities m=2..5 and their sums")


def test_criterion_2_discriminant_powers():
    fam = symbolic_family(1)
    assert integrate(gamma_power(fam, 2, 3)) == W2 * Fraction(1, 2) - SG * Fraction(1, 2)
    assert integrate(gamma_power(fam, 3, 4)) == W2 * 13 - SG * 9
    report(2, "cube on degree 2 and fourth power on degree 3")


def test_criterion_3_node_scroll_polarization():
    fam = FamilyDescriptor(1, nodes=[Node("s", 1)])
    payload = TautClass.fundamental(fam.boundary_family(), 1)
    cls = gamma_power_on_scroll(fam, 3, "s", 2, 1, payload, 2)
    assert integrate(cls) == CharPoly.const(-6)
    report(3, "squared polarization on the first degree-2 scroll = -6")


def test_criterion_4_formulary():
    from w3_formulary import FORMULARY

    fam = symbolic_family(1)
    assert len(FORMULARY) >= 25
    dagger_keys = {
        (0, 0, 1, 1, 2),
        (1, 0, 0, 1, 2),
        (0, 0, 0, 2, 2),
        (2, 0, 0, 0, 2),
        (1, 1, 0, 0, 2),
    }
    seen = set()
    for key, expected in FORMULARY:
        assert w3_monomial(fam, key) == expected, key
        seen.add(key)
    assert dagger_keys <= seen
    assert w3_monomial(fam, (0, 0, 0, 2, 2)) == W2 * 8 - SG * 6
    report(4, "%d formulary monomials via the generic engine" % len(FORMULARY))


def test_criterion_5_chern_numbers_and_porteous():
    fam = symbolic_family(1)
    numbers = chern_numbers_w3(fam)
    bd2 = B * D * D
    displayed = {
        "c1^4": bd2 * 36 - B * D * 216 - B * TG * 18 - D * LW * 72 - D * W2 * 12
        + D * SG * 12 + B * 324 + LW * 288 + W2 * 78 - SG * 54,
        "c1^2c2": bd2 * 15 - B * D * 81 - B * TG * 6 - D * LW * 24 - D * W2 * 3
        + D * SG * 3 + B * 108 + LW * 84 + W2 * 18 - SG * 12,
        "c1c3": bd2 * 3 - B * D * 12 - D * LW * 3 + B * 12 + LW * 6,
        "c2^2": bd2 * 6 - B * D * 30 - B * TG * 3 - D * LW * 6 + B * 36 + LW * 24
        + W2 * 4 - SG * 2,
    }
    for key, value in displayed.items():
        assert numbers[key] == value, key
    assert trisecant_count(fam) == trisecant_grand_total(fam)
    report(5, "four Chern numbers and the degeneracy combination")


def test_criterion_6_pluecker_closed_forms():
    # the c2 closed form against its recursion: test_transfer.test_c2_closed_form_sums_its_steps
    fam = symbolic_family(1)
    total = CharPoly()
    for m in range(1, 9):
        total = total + s2_contact_step(fam, m)
        assert pluecker_s2(fam, m) == total, m
    assert pluecker_s2(fam, 1) == B
    # the second and third values, with the interior part pinned by the
    # node-free jet-bundle count
    assert pluecker_s2(fam, 2) == B * 3 + LW * 3 + W2 - SG
    assert pluecker_s2(fam, 3) == B * 6 + LW * 12 + W2 * 7 - SG * 5
    assert not pluecker_c2(fam, 1)
    assert pluecker_c2(fam, 2) == B + LW
    report(6, "the s2 closed form equals its recursion for m <= 8")


def test_criterion_7_transfer_identities():
    fam = symbolic_family(1)
    # pushing the two-point locus up one degree doubles the discriminant
    assert transfer(gamma_power(fam, 2, 1).scale(2)) == gamma_power(fam, 3, 1).scale(2)
    # the two resolutions of a section transfer agree as cycle classes
    fam2 = FamilyDescriptor(2, nodes=[Node("s", 1)])
    ring = fam2.total_ring
    twists = (BaseClass.unit(ring), BaseClass.gen(ring, "L"))
    checked = 0
    for m1 in (3, 4, 5):
        m0 = m1 - 1
        bd = fam2.boundary_family()
        for n in range(2, min(4, m0) + 1):
            payload = TautClass.fundamental(bd, m0 - n)
            for j in range(1, n):
                for beta in twists:
                    src = TautClass(fam2, m0)
                    src.add_node("section", "s", n, j, payload)
                    a = transfer(src, beta)
                    b = transfer_through_dj(src, beta)
                    for _ in range(m1 + 2 - (n + 1)):
                        a = gamma_action(a)
                        b = gamma_action(b)
                    assert integrate(a) == integrate(b), (m1, n, j)
                    checked += 1
    assert checked >= 16
    report(7, "transfer doubling and %d section-form agreements" % checked)


def test_criterion_8_oracle_equivalence():
    rng = random.Random(42)
    ring = make_total_space_ring(1)
    gens = [BaseClass.unit(ring), BaseClass.gen(ring, "L"), BaseClass.gen(ring, "omega")]

    def rand_cls():
        out = BaseClass(ring)
        for g in gens:
            out = out + g * Fraction(rng.randint(-3, 3))
        return out

    cases = 0
    while cases < 200:
        m = rng.randint(2, 5)
        classes = [rand_cls() for _ in range(m)]
        t_ord = OrderedTensor.pure(ring, classes)
        lhs = symmetrize(ordered_disc(t_ord))
        t_ts = TensorClass.simple(ring, [(1, c) for c in classes])
        rhs = (discriminant_op(t_ts) - u_omega_total(t_ts)).terms
        assert lhs == rhs
        cases += 1

    # node-free powers through the module engine equal the plain operator chain
    nofam = FamilyDescriptor(1, label="smooth")
    r = nofam.total_ring

    def phi(tc):
        out = {}
        for (base, blocks), c in tc.diag.items():
            out[blocks] = c.constant_value() / aut_count(n for n, _ in blocks)
        return out

    for m in (2, 3, 4):
        seed = TensorClass(r, phi(gamma_power(nofam, m, 1)))
        for k in (1, 2, 3, 4):
            cur = seed
            for _ in range(k - 1):
                cur = discriminant_op(cur) - u_omega_total(cur)
            pruned = {
                key: c
                for key, c in cur.terms.items()
                if sum((n - 1) + r.degree(mono) for n, mono in key) <= m + 1
            }
            assert phi(gamma_power(nofam, m, k)) == pruned, (m, k)
    report(8, "%d randomized symmetrization cases and node-free powers" % cases)


def test_criterion_9_projective_line_degrees():
    for m in range(2, 6):
        for n in range(2, m + 1):
            fam = FamilyDescriptor(0, label="line")
            cls = TautClass(fam, m)
            cls.add_diag((), ((n, ()),) + ((1, ()),) * (m - n), 1)
            for _ in range((m - n) + 1):
                cls = twists(cls, [(None, BaseClass.gen(cls.ring, "pt"))])[0]
            engine = integrate(cls).constant_value()
            jets = sum(m - 2 * i for i in range(n))  # c_1 of the jet bundle of O(m)
            assert engine == jets == n * (m - n + 1), (m, n)
    report(9, "multiple-point locus degrees on the line, m <= 5")


def test_criterion_10_single_curve_trisecant_scroll():
    assert single_curve_trisecant_scroll() == single_curve_trisecant_formula()
    d, tg = sym("d"), sym("twogm2")
    expected = (d * d * d * 2 - d * d * 12 + d * 16 - d * tg * 3 + tg * 6) / 6
    assert single_curve_trisecant_scroll() == expected
    report(10, "virtual trisecant scroll degree for symbolic d, g")
