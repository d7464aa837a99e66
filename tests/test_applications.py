"""End-to-end checks against independently known enumerative values."""

from hilbtaut.charpoly import CharPoly
from hilbtaut.family import FamilyDescriptor, Node, symbolic_family
from hilbtaut.chern import flag_G, flag_L, pushdown, trisecant_grand_total
from hilbtaut.basering import BaseClass
from hilbtaut.tautmod import TautClass, gamma_power, integrate, twists


def sym(name):
    return CharPoly.symbol(name)


B, D, LW, W2, SG, TG = (sym(k) for k in ("b", "d", "Lomega", "omega2", "sigma", "twogm2"))


def secant_case(j1, j2, j3):
    """The flag polynomial L1^j1 (L2 - D2)^j2 (L3 - D3)^j3 on the 3-step flag."""
    L1, L2, L3 = (flag_L(i) for i in (1, 2, 3))
    G2, G3 = flag_G(2), flag_G(3)
    f1 = L1 ** j1
    f2 = (L2 - G2) ** j2
    f3 = (L3 - (G3 - G2)) ** j3
    return f1 * f2 * f3


# subtotals of the rank-counting expansion; the first five are classical
# boxed values, the last four carry the engine's sigma parts (the historically
# circulated subtotals have sigma slips: they do not sum to the grand total,
# which the degeneracy-combination route pins independently)
EXACT_CASES = {
    (2, 1, 1): B * (D - 1) * (D - 2),
    (1, 1, 2): B * D * D - B * D * 5 + B * 6 - D * LW * 2 + LW * 4,
    (2, 0, 2): -B * D * 2 - B * TG + B * 2,
    (1, 2, 1): (B * D - B * 2 - LW) * (D - 2),
    (0, 3, 1): (-B * 3 - LW * 3 - (W2 - SG)) * (D - 2),
}
SMOOTH_CASES = {
    (1, 0, 3): -B * D * 3 - D * LW * 3 + B * 6 + LW * 6 - D * W2,
    (0, 2, 2): B * 10 + LW * 12 + W2 * 4 - B * D * 4 - B * TG * 2,
    (0, 1, 3): -D * B * 3 - D * LW * 3 - D * W2 + B * 12 + LW * 18 + W2 * 8,
    (0, 0, 4): B * 12 + LW * 24 + W2 * 14,
}


def drop_sigma(poly):
    return poly.substitute({"sigma": CharPoly()})


def test_secant_case_subtotals():
    fam = symbolic_family(1)
    for key, expected in EXACT_CASES.items():
        assert integrate(pushdown(fam, 3, secant_case(*key))) == expected, key
    for key, expected in SMOOTH_CASES.items():
        value = integrate(pushdown(fam, 3, secant_case(*key)))
        assert drop_sigma(value) == expected, key


def test_secant_cases_sum_to_grand_total():
    fam = symbolic_family(1)
    total = CharPoly()
    for key in list(EXACT_CASES) + list(SMOOTH_CASES):
        total = total + integrate(pushdown(fam, 3, secant_case(*key)))
    assert total == trisecant_grand_total(fam)


# -- classical degrees on symmetric products of the projective line ----------------------


def line_family():
    return FamilyDescriptor(0, chars={"twogm2": -2}, label="line")


def hyperplane_power(cls, k):
    for _ in range(k):
        cls = twists(cls, [(None, BaseClass.gen(cls.ring, "pt"))])[0]
    return cls


def test_half_discriminant_is_binomial_multiple_of_hyperplane():
    # the discriminant of binary degree-m forms is 2(m-1) h; its half pairs
    # like (m-1) h against hyperplanes
    for m in (2, 3, 4, 5):
        fam = line_family()
        cls = hyperplane_power(gamma_power(fam, m, 1), m - 1)
        assert integrate(cls).constant_value() == m - 1


def test_discriminant_square_degrees():
    # self-intersection degree (m-1)^2 via the expanded square
    for m in (3, 4, 5):
        fam = line_family()
        cls = hyperplane_power(gamma_power(fam, m, 2), m - 2)
        assert integrate(cls).constant_value() == (m - 1) ** 2


def test_two_double_points_locus_degree():
    # the locus of squares of binary quadratics in the fourth symmetric power
    # is the Veronese surface, degree 4
    fam = line_family()
    cls = TautClass(fam, 4)
    cls.add_diag((), ((2, ()), (2, ())), 1)
    assert integrate(hyperplane_power(cls, 2)).constant_value() == 4


def test_triple_point_locus_degree_in_p4():
    # tangent developable of the rational normal quartic: a sextic
    fam = line_family()
    cls = TautClass(fam, 4)
    cls.add_diag((), ((3, ()), (1, ())), 1)
    assert integrate(hyperplane_power(cls, 2)).constant_value() == 6


# -- classical pencils as external anchors ------------------------------------------------


def plane_pencil(n):
    """A general pencil of degree-n plane curves (the plane blown up in n^2 points).

    Characters: L is the hyperplane pullback, the relative canonical class is
    (2n-3)H - sum E_i, and the pencil has 3(n-1)^2 nodal members.
    """
    return FamilyDescriptor(
        1,
        chars={
            "b": 1,
            "d": n,
            "Lomega": 2 * n - 3,
            "omega2": 3 * n * n - 12 * n + 9,
            "twogm2": n * (n - 3),
        },
        nodes=[Node("s", 3 * (n - 1) ** 2, tau_L=CharPoly.const(0))],
        label="plane pencil",
    )


def test_plane_pencil_has_no_fiberwise_critical_points():
    # the fibers embed in the plane, so the count of fiberwise critical
    # points vanishes; this pins the sigma coefficient of the 2-contact count
    from hilbtaut.transfer import pluecker_s2

    for n in (3, 4, 5, 7):
        assert not pluecker_s2(plane_pencil(n), 2), n


def test_plane_pencil_tangency_count():
    # members tangent to a fixed generic line: the line's preimage is a
    # rational n-fold cover of the pencil base, so 2n - 2 branch points
    from hilbtaut.transfer import pluecker_c2

    for n in (3, 4, 5, 7):
        assert pluecker_c2(plane_pencil(n), 2) == CharPoly.const(2 * n - 2), n


def surface_section_pencil(n):
    """Pencil of hyperplane sections of a smooth degree-n surface in 3-space,
    composed with a generic projection to the plane."""
    return FamilyDescriptor(
        1,
        chars={
            "b": n,
            "d": n,
            "Lomega": n * (n - 2),
            "omega2": n * (n - 1) * (n - 3),
            "twogm2": n * (n - 2),
        },
        nodes=[Node("s", n * (n - 1) ** 2, tau_L=CharPoly.const(0))],
        label="surface pencil",
    )


def test_surface_pencil_critical_points_lie_on_ramification_curve():
    # fiberwise critical points of the projection sweep the ramification
    # curve of class (n-1)H, meeting each hyperplane section in n(n-1) points
    from hilbtaut.transfer import pluecker_s2

    for n in (3, 4, 5):
        assert pluecker_s2(surface_section_pencil(n), 2) == CharPoly.const(n * (n - 1)), n


def test_embedded_space_fibers_have_no_virtual_double_points():
    # hyperplane sections included in 3-space are injective, and the virtual
    # double-point count vanishes: the node term cancels the interior exactly
    from hilbtaut.chern import double_point_class
    from hilbtaut.tautmod import integrate

    for n in (3, 4, 5):
        fam = surface_section_pencil(n)
        cls = double_point_class(fam, 3)
        assert not integrate(cls), n


def test_embedded_plane_fibers_have_no_virtual_double_points():
    # plane-curve fibers included in the plane: the double-point class itself
    # pushes to zero on the base
    from hilbtaut.chern import double_point_class
    from hilbtaut.tautmod import pushforward_to_base

    for n in (3, 4, 6):
        fam = plane_pencil(n)
        cls = double_point_class(fam, 2)
        interior, boundary = pushforward_to_base(cls)
        assert not boundary
        bound = interior.substitute(
            {
                "kappaL_0": fam.char("d"),
                "kappa_0": fam.char("twogm2"),
            }
        )
        assert not bound, n


# -- twisted payloads through the section transfer ---------------------------------------


def test_section_transfer_forms_agree_twisted_payload():
    from hilbtaut.basering import BaseClass
    from hilbtaut.tautmod import gamma_action
    from hilbtaut.transfer import transfer
    from reference import transfer_through_dj

    fam = FamilyDescriptor(2, nodes=[Node("s", 1)])
    ring = fam.total_ring
    bd = fam.boundary_family()
    bring = bd.total_ring
    theta = BaseClass.gen(bring, "theta_x")
    ell = BaseClass.gen(bring, "L")
    for twist in (theta, ell, theta + ell):
        payload = TautClass.from_twists(bd, 1, [(1, twist)])
        for beta_name in ("L", None):
            beta = BaseClass.gen(ring, "L") if beta_name else None
            src = TautClass(fam, 3)
            src.add_node("section", "s", 2, 1, payload)
            a = transfer(src, beta)
            b = transfer_through_dj(src, beta)
            for _ in range(2):
                a = gamma_action(a)
                b = gamma_action(b)
            assert integrate(a) == integrate(b), (str(twist), beta_name)
