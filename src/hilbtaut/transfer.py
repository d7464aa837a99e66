"""Transfer along the flaglet correspondence, and the punctual transfer calculus.

The transfer raises Hilbert degree by one and preserves codimension.  On the
three kinds of tautological classes it acts by

* appending the twist as a new singleton block on a diagonal class,
* pushing the twist into the scroll payload on a node scroll,
* on a node section, splitting into a deeper scroll plus a section, with a
  scroll correction measuring the failure of the norm divisors to commute
  with the payload transfer.

The punctual transfer is the analogous operation between small diagonals; it
drives the Chern-class recursion on the punctual Hilbert scheme and the
closed-form contact formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .basering import BaseClass
from .charpoly import CharPoly
from .family import FamilyDescriptor, integrate_classes, theta_star
from .tautmod import TautClass, mult_D, nu_coeff, phi_star, split_twist, twist

# -- the flaglet transfer -----------------------------------------------------------


def transfer(tc: TautClass, beta: BaseClass = None, variant="j") -> TautClass:
    """Twisted transfer to Hilbert degree m+1; `beta` defaults to the unit class.

    `variant` selects between the two equivalent resolutions of a node
    section ("j" or "j+1"); the results agree as cycle classes.
    """
    fam, m0 = tc.fam, tc.m
    ring = tc.ring
    if beta is None:
        beta = BaseClass.unit(ring)
    if beta.ring is not ring:
        raise ValueError("twist must live on the same total space")
    out = TautClass(fam, m0 + 1)

    for (base_mono, blocks), coeff in tc.diag.items():
        singles = sum(1 for n, _ in blocks if n == 1)
        for mono, mc in beta.terms.items():
            new_base, fiber = split_twist(ring, base_mono, mono)
            out.add_diag(new_base, blocks + ((1, fiber),), coeff * (mc * (singles + 1)))

    for (node_id, n, j), payload in tc.scroll.items():
        bd = fam.boundary_family(node_id)
        out.add_scroll(node_id, n, j, transfer(payload, phi_star(bd, beta.terms)))

    for (node_id, n, j), payload in tc.section.items():
        bd = fam.boundary_family(node_id)
        phib = phi_star(bd, beta.terms)
        moved = transfer(payload, phib)
        # theta^* is injective on the monomials it keeps (L^k -> tauL^k)
        tau = BaseClass(
            bd.total_ring,
            {t: c for mono, c in beta.terms.items() if (t := theta_star(mono)) is not None},
        )
        jtheta = j if variant == "j" else j + 1
        jD = j + 1 if variant == "j" else j
        if not tau.is_zero():
            out.add_scroll(node_id, n + 1, jtheta, twist(payload, pullback=tau))
        out.add_section(node_id, n, j, moved)
        correction = transfer(mult_D(payload, n, jD), phib) - mult_D(moved, n, jD)
        out.add_scroll(node_id, n, j, correction)
    return out


# -- punctual classes -----------------------------------------------------------------


class PunctualClass:
    """Class on the punctual (small-diagonal) Hilbert scheme of degree m.

    interior: a BaseClass on the total space X (mixed degrees allowed);
    scroll[node][i] and section[node][i], i = 1..m-1: BaseClasses on the node
    base, the coefficients of C^m_i(theta) and (-Gamma).C^m_i(theta).
    """

    __slots__ = ("fam", "m", "interior", "scroll", "section")

    def __init__(self, fam, m, interior=None):
        self.fam = fam
        self.m = m
        self.interior = interior if interior is not None else BaseClass.zero(fam.total_ring)
        self.scroll = {}
        self.section = {}
        for node in fam.nodes:
            tring = fam.node_base_ring(node.node_id)
            self.scroll[node.node_id] = {i: BaseClass.zero(tring) for i in range(1, m)}
            self.section[node.node_id] = {i: BaseClass.zero(tring) for i in range(1, m)}

    def __repr__(self):
        parts = ["%s" % self.interior]
        for nid in sorted(self.scroll):
            for i in range(1, self.m):
                if not self.scroll[nid][i].is_zero():
                    parts.append("C^%d_%d(%s)[%s]" % (self.m, i, nid, self.scroll[nid][i]))
                if not self.section[nid][i].is_zero():
                    parts.append(
                        "(-Gamma).C^%d_%d(%s)[%s]" % (self.m, i, nid, self.section[nid][i])
                    )
        return "PunctualClass(m=%d: %s)" % (self.m, " + ".join(parts))


def psi_power_class(ring, m, i):
    """psi^m_i = psi_x^binom(m-i+1,2) * psi_y^binom(i,2) on the node base."""
    mono = []
    a = comb(m - i + 1, 2)
    b = comb(i, 2)
    if a:
        mono.append(("psi_x", a))
    if b:
        mono.append(("psi_y", b))
    return BaseClass(ring, {tuple(mono): Fraction(1)})


def punctual_transfer(fam, pc: PunctualClass) -> PunctualClass:
    """Linear extension of the punctual transfer rules to a full punctual class.

    The interior part moves up unchanged; each scroll coefficient spreads over
    the two neighbouring components, each section coefficient does the same
    with a psi-power twist (and loses its section factor).
    """
    m = pc.m + 1
    out = PunctualClass(fam, m, pc.interior)
    for node in fam.nodes:
        nid = node.node_id
        ring = fam.node_base_ring(nid)
        for i in range(1, m):
            acc = BaseClass.zero(ring)
            # C^m_i receives (m-i)/(m-1) of C^{m-1}_i and i/(m-1) of C^{m-1}_{i-1}
            if i <= pc.m - 1:
                acc.accumulate(pc.scroll[nid][i], Fraction(m - i, m - 1))
                acc.accumulate(
                    pc.section[nid][i] * psi_power_class(ring, m - 1, i), Fraction(m - i, m - 1)
                )
            if i - 1 >= 1:
                acc.accumulate(pc.scroll[nid][i - 1], Fraction(i, m - 1))
                acc.accumulate(
                    pc.section[nid][i - 1] * psi_power_class(ring, m - 1, i), Fraction(i, m - 1)
                )
            out.scroll[nid][i] = acc
    return out


# -- discriminant on the small diagonal and the flaglet small diagonal ---------------


def nu_minus(m, i):
    return Fraction(i * (m - i - 1) * (m + 1), 2)


def nu_plus(m_minus_1, i):
    m = m_minus_1 + 1
    return Fraction(i * (m - i) * (m - 2), 2)


def small_flag_gamma(fam, m):
    """The two divisor expansions on the flaglet small diagonal.

    Returns (upper, lower, difference): the products with the degree-m and the
    degree-(m-1) discriminant, each as a PunctualClass-shaped record with an
    interior -omega part and scroll coefficients on both C^m_i and C^{m-1}_i,
    encoded as dicts {("m", i): coeff} / {("m-1", i): coeff}.
    """
    if m < 2:
        raise ValueError("m >= 2 required")
    upper = {"omega": -Fraction(comb(m, 2))}
    lower = {"omega": -Fraction(comb(m - 1, 2))}
    for i in range(1, m):
        upper[("m", i)] = nu_coeff(m, i)
        lower[("m", i)] = nu_plus(m - 1, i)
    for i in range(1, m - 1):
        upper[("m-1", i)] = nu_minus(m, i)
        lower[("m-1", i)] = nu_coeff(m - 1, i)
    diff = {}
    for key in set(upper) | set(lower):
        value = upper.get(key, Fraction(0)) - lower.get(key, Fraction(0))
        if value:
            diff[key] = value
    return upper, lower, diff


# -- Chern classes of tautological bundles on the punctual Hilbert scheme -------------


def punctual_chern(fam: FamilyDescriptor, m: int) -> PunctualClass:
    """Total Chern class of the rank-m tautological bundle of L on the punctual locus.

    Recursion in m through the punctual transfer; the interior part is the
    product of (1 + L + (i-1) omega) for i = 1..m, the node parts satisfy a
    closed recursion in the psi classes and theta^*(L).
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    ring = fam.total_ring
    current = PunctualClass(fam, 1, BaseClass.unit(ring) + BaseClass.gen(ring, "L"))
    for degree in range(2, m + 1):
        current = _punctual_chern_step(fam, current)
    return current


def _theta_star_L(node, tring):
    """theta^*(L) on the node base: the class tauL, unless the node fixes it to zero."""
    fixed_zero = node.tau_L is not None and node.tau_L.is_zero()
    return BaseClass.zero(tring) if fixed_zero else BaseClass.gen(tring, "tauL")


def _punctual_chern_step(fam, prev: PunctualClass) -> PunctualClass:
    m = prev.m + 1
    ring = fam.total_ring
    omega = BaseClass.gen(ring, "omega")
    ell = BaseClass.gen(ring, "L")
    one = BaseClass.unit(ring)
    out = PunctualClass(fam, m)
    out.interior = prev.interior * (one + ell + omega * (m - 1))
    # theta^*(alpha_{m-1}) = (1 + theta^*L)^(m-1) since omega restricts trivially
    for node in fam.nodes:
        nid = node.node_id
        tring = fam.node_base_ring(nid)
        tau1 = BaseClass.unit(tring) + _theta_star_L(node, tring)
        interior_restr = tau1 ** (m - 1)

        def psi(i, mm=m - 1):
            return psi_power_class(tring, mm, i)

        beta_prev = {i: prev.scroll[nid][i] for i in range(1, m - 1)}
        gamma_prev = {i: prev.section[nid][i] for i in range(1, m - 1)}
        beta_prev[0] = BaseClass.zero(tring)
        beta_prev[m - 1] = BaseClass.zero(tring)
        gamma_prev[0] = BaseClass.zero(tring)
        gamma_prev[m - 1] = BaseClass.zero(tring)
        for i in range(1, m):
            beta = (
                gamma_prev[i] * psi(i) * psi(i + 1) * (m - i)
                + gamma_prev[i - 1] * psi(i - 1) * psi(i) * i
                + tau1 * (beta_prev[i] * (m - i) + beta_prev[i - 1] * i)
                + (beta_prev[i] * (-1) + tau1 * gamma_prev[i]) * psi(i) * (m - i)
                + (beta_prev[i - 1] * (-1) + tau1 * gamma_prev[i - 1]) * psi(i - 1) * i
                + interior_restr * nu_coeff(m, i)
            )
            gamma = (
                beta_prev[i] * (m - i)
                + beta_prev[i - 1] * i
                + gamma_prev[i] * psi(i) * (m - i)
                + gamma_prev[i - 1] * psi(i - 1) * i
            )
            out.scroll[nid][i] = beta
            out.section[nid][i] = gamma
    return out


def integrate_punctual_degree2(fam, pc: PunctualClass) -> CharPoly:
    """Degree of the codimension-2 part of a punctual class, base of dimension 1.

    The small diagonal is a surface: the interior integrates over X, a section
    (-Gamma).C^m_i projects with degree one onto the boundary base, a bare
    scroll needs one more base class to be top and drops out over a point.
    The boundary base is a point, so a section contributes its constant term.
    """
    if fam.dim_b != 1:
        raise ValueError("numeric punctual integration needs a 1-dimensional base")
    total = integrate_classes(fam, pc.interior.graded_part(2))
    for node in fam.nodes:
        for cls in pc.section[node.node_id].values():
            total.accumulate(node.weight, cls.terms.get((), 0))
    return total


# -- contact loci: closed Pluecker-type formulas ---------------------------------------


def segre_contact_step(fam, m) -> PunctualClass:
    """The m-th step of the second-Segre recursion for m-contact loci.

    s_{2,m} - transfer(s_{2,m-1}) as a punctual class: interior
    m L^2 + 3m(m-1)/2 L omega + (m-1) binom(m,2) omega^2, scroll twists
    -3 nu(m,i) theta^*L, and section coefficients i(m-i).  The L omega
    coefficient is pinned by the jet-bundle count on node-free families.
    """
    ring = fam.total_ring
    ell = BaseClass.gen(ring, "L")
    omega = BaseClass.gen(ring, "omega")
    out = PunctualClass(fam, m)
    out.interior = (
        ell * ell * m
        + ell * omega * Fraction(3 * m * (m - 1), 2)
        + omega * omega * ((m - 1) * comb(m, 2))
    )
    for node in fam.nodes:
        nid = node.node_id
        tring = fam.node_base_ring(nid)
        tau = _theta_star_L(node, tring)
        for i in range(1, m):
            out.scroll[nid][i] = tau * (-3 * nu_coeff(m, i))
            # Gamma . C^m_i terms: coefficient i(m-i) on the section with sign
            out.section[nid][i] = BaseClass.unit(tring, Fraction(-i * (m - i)))
    return out


def pluecker_s2(fam, m):
    """Closed form for the count of m-contact hyperplane sections (dim base 1).

    Integrates the Segre recursion and compares with the closed form
    binom(m+1,2) L2 + m(m^2-1)/2 Lomega + m(m^2-1)(3m-2)/24 omega2
    - m(m^2-1)(m+2)/24 sigma, whose node-free part agrees with the jet count.
    """
    value = CharPoly.zero()
    for k in range(1, m + 1):
        if k == 1:
            value.accumulate(fam.char("b"))
        else:
            value.accumulate(integrate_punctual_degree2(fam, segre_contact_step(fam, k)))
    closed = (
        fam.char("b") * comb(m + 1, 2)
        + fam.char("Lomega") * Fraction(m * (m * m - 1), 2)
        + fam.char("omega2") * Fraction(m * (m * m - 1) * (3 * m - 2), 24)
        - fam.sigma() * Fraction(m * (m * m - 1) * (m + 2), 24)
    )
    if value != closed:
        raise ArithmeticError(
            "second-Segre recursion disagrees with its closed form at m=%d" % m
        )
    return closed


def c2_contact_step(fam, m) -> CharPoly:
    """Integrated m-th step of the second-Chern recursion, base of dimension 1."""
    return (
        fam.char("b") * (m - 1)
        + fam.char("omega2") * ((m - 1) * comb(m - 1, 2))
        + fam.char("Lomega") * Fraction((m - 1) * (3 * m - 4), 2)
        - fam.sigma() * (2 * comb(m + 1, 4))
    )


def pluecker_c2(fam, m):
    """Closed form for c_2 of the tautological bundle on the punctual locus (dim base 1)."""
    if fam.dim_b != 1:
        raise ValueError("the second-Chern contact recursion needs a 1-dimensional base")
    value = CharPoly.zero()
    for k in range(2, m + 1):
        value.accumulate(c2_contact_step(fam, k))
    closed = (
        fam.char("b") * comb(m, 2)
        + fam.char("omega2") * (3 * comb(m + 1, 4) - comb(m, 3))
        + fam.char("Lomega") * (3 * comb(m + 1, 3) - 2 * comb(m, 2))
        - fam.sigma() * (2 * comb(m + 2, 5))
    )
    if value != closed:
        raise ArithmeticError(
            "second-Chern recursion disagrees with its closed form at m=%d" % m
        )
    return closed
