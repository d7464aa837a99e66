"""Transfer along the flaglet correspondence, and the punctual Chern calculus.

The transfer raises Hilbert degree by one and preserves codimension.  On the
three kinds of tautological classes it acts by

* appending the twist as a new singleton block on a diagonal class,
* pushing the twist into the scroll payload on a node scroll,
* on a node section, splitting into a deeper scroll plus a section, with a
  scroll correction measuring the failure of the norm divisors to commute
  with the payload transfer.

Between small diagonals the analogous step spreads each node component of
degree m-1 over its two neighbours of degree m; it drives the Chern-class
recursion on the punctual Hilbert scheme.  The s2 and c2 contact counts are
the closed sums of their integrated Segre and Chern recursions; the tests keep
those recursions as the reference the closed forms are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .basering import BaseClass
from .family import FamilyDescriptor, checked_curve_base, checked_int, theta_star
from .lincomb import add_term
from .tautmod import TautClass, nu_coeff, phi_star, scroll_divisor, twists
from .tautmod import _add_scaled, _finished  # the operators' diagonal accumulator

# -- the flaglet transfer -----------------------------------------------------------


def transfer(tc: TautClass, beta: BaseClass = None) -> TautClass:
    """Twisted transfer to Hilbert degree m+1; `beta` defaults to the unit class.

    A node section is resolved through D^n_(j+1); the tests check it against
    the equivalent resolution through D^n_j.
    """
    fam, m0 = tc.fam, tc.m
    ring = tc.ring
    if beta is None:
        beta = BaseClass.unit(ring)
    if beta.ring is not ring:
        raise ValueError("twist must live on the same total space")
    out = TautClass(fam, m0 + 1)
    diag = {}
    for (base_mono, blocks), coeff in tc.diag.items():
        singles = sum(1 for n, _ in blocks if n == 1)
        room = out.space_dim() - tc._diag_codim(base_mono, blocks)  # left for the new twist
        for mono, mc in beta.terms.items():
            if ring.degree(mono) <= room:
                sign, key = out._rekeyed(base_mono, blocks, 1, (), mono)
                if sign:
                    _add_scaled(diag, key, coeff, sign * mc * (singles + 1))
    out.diag = _finished(diag)

    if tc.scroll or tc.section:
        bd = fam.boundary_family()
        phib = BaseClass(bd.total_ring)
        for mono, c in beta.terms.items():
            phib.accumulate(phi_star(bd.total_ring, mono), c)
        # theta^* is injective on the monomials it keeps (L^k -> tauL^k)
        tau = BaseClass(
            bd.total_ring,
            {t: c for mono, c in beta.terms.items() if (t := theta_star(mono)) is not None},
        )
    for (n, j), payload in tc.scroll.items():
        add_term(out.scroll, (n, j), transfer(payload, phib))

    for (n, j), payload in tc.section.items():
        moved = transfer(payload, phib)
        # the tau twist and D^n_(j+1) act on the same payload: one twist pass
        divisor = scroll_divisor(bd.total_ring, n, j + 1)
        tau_p, d_p = twists(payload, [(tau, None), divisor])
        add_term(out.scroll, (n + 1, j), tau_p)
        add_term(out.section, (n, j), moved)
        correction = transfer(d_p, phib) - twists(moved, [divisor])[0]
        add_term(out.scroll, (n, j), correction)
    return out


# -- punctual classes -----------------------------------------------------------------


class PunctualClass:
    """Class on the punctual (small-diagonal) Hilbert scheme of degree m.

    interior: a BaseClass on the total space X (mixed degrees allowed);
    scroll[node][i] and section[node][i], i = 1..m-1: BaseClasses on the node
    base, the coefficients of C^m_i(theta) and (-Gamma).C^m_i(theta).
    """

    __slots__ = ("m", "interior", "scroll", "section")

    def __init__(self, m, interior, scroll, section):
        self.m, self.interior, self.scroll, self.section = m, interior, scroll, section

    def to_data(self):
        """The `punctual-chern` JSON: m, the interior and each node part i as text."""
        nodes = {
            nid: {name: {i: str(c) for i, c in getattr(self, name)[nid].items()}
                  for name in ("scroll", "section")}
            for nid in sorted(self.scroll)
        }
        return {"m": self.m, "interior": str(self.interior), "nodes": nodes}

    def __repr__(self):
        data = self.to_data()
        parts = [data["interior"]]
        for nid, node in data["nodes"].items():
            for i in range(1, self.m):
                for name, label in (("scroll", "C"), ("section", "(-Gamma).C")):
                    if node[name][i] != "0":
                        parts.append("%s^%d_%d(%s)[%s]" % (label, self.m, i, nid, node[name][i]))
        return "PunctualClass(m=%d: %s)" % (self.m, " + ".join(parts))


def psi_power_class(ring, m, i):
    """psi^m_i = psi_x^binom(m-i+1,2) * psi_y^binom(i,2) on the node base."""
    return BaseClass(ring, {(("psi_x", comb(m - i + 1, 2)), ("psi_y", comb(i, 2))): 1})


# -- Chern classes of tautological bundles on the punctual Hilbert scheme -------------


def punctual_chern(fam: FamilyDescriptor, m: int) -> PunctualClass:
    """Total Chern class of the rank-m tautological bundle of L on the punctual locus.

    The interior part is the product of (1 + L + (k-1) omega) for k = 1..m;
    each node's parts come from a closed recursion in m through the punctual
    spread, in the psi classes and theta^*(L).
    """
    checked_int(m, 1, "m")
    ring = fam.total_ring
    one, L, omega = BaseClass.unit(ring), BaseClass.gen(ring, "L"), BaseClass.gen(ring, "omega")
    interior = one
    for k in range(1, m + 1):
        interior = interior * (one + L + omega * (k - 1))
    tring = fam.node_base_ring
    scroll, section = {}, {}
    for node in fam.nodes:
        # tau = theta^*(1 + L): tauL, unless the node fixes it to zero
        tau = BaseClass.unit(tring) + (BaseClass.gen(tring, "tauL") if node.tau_L != 0 else 0)
        scroll[node.node_id], section[node.node_id] = _node_parts(tring, m, tau)
    return PunctualClass(m, interior, scroll, section)


def _spread(parts, m, i):
    """(m-i) X_i + i X_(i-1): what components i and i-1 of degree m-1 give to C^m_i."""
    return parts[i] * (m - i) + parts[i - 1] * i


def _node_parts(tring, m, tau):
    """One node's scroll and section parts {i: BaseClass}, i = 1..m-1, at degree m.

    Degree 1 has none.  At degree d, with psi_k = psi^(d-1)_k, component k of
    degree d-1 (scroll beta_k, section gamma_k) contributes
    F(k) = gamma_k psi_k (psi_(k+1) + tau) + (tau - psi_k) beta_k to the scrolls
    and G(k) = beta_k + gamma_k psi_k to the sections, each spread over C^d_k
    and C^d_(k+1); the scrolls also receive nu(d, i) tau^(d-1) from the interior.
    """
    scroll, section = {}, {}
    for d in range(2, m + 1):
        psi = {k: psi_power_class(tring, d - 1, k) for k in range(1, d)}
        # F(0) = F(d-1) = G(0) = G(d-1) = 0: degree d-1 has components 1..d-2
        f = [BaseClass(tring)] * d
        g = [BaseClass(tring)] * d
        for k in range(1, d - 1):
            gamma_psi = section[k] * psi[k]
            f[k] = gamma_psi * (psi[k + 1] + tau) + (tau - psi[k]) * scroll[k]
            g[k] = scroll[k] + gamma_psi
        # theta^*(alpha_(d-1)) = tau^(d-1) since omega restricts trivially
        interior_restr = tau ** (d - 1)
        scroll = {i: _spread(f, d, i) + interior_restr * nu_coeff(d, i) for i in range(1, d)}
        section = {i: _spread(g, d, i) for i in range(1, d)}
    return scroll, section


# -- contact loci: closed Pluecker-type formulas ---------------------------------------


def pluecker_s2(fam, m):
    """Closed form for the count of m-contact hyperplane sections (dim base 1).

    binom(m+1,2) L2 + m(m^2-1)/2 Lomega + m(m^2-1)(3m-2)/24 omega2
    - m(m^2-1)(m+2)/24 sigma: the sum over k = 1..m of the integrated steps
    of the second-Segre recursion, whose node-free part agrees with the jet count.
    """
    checked_int(m, 1, "m")
    checked_curve_base(fam, "the second-Segre contact recursion")
    return (
        fam.char("b") * comb(m + 1, 2)
        + fam.char("Lomega") * Fraction(m * (m * m - 1), 2)
        + fam.char("omega2") * Fraction(m * (m * m - 1) * (3 * m - 2), 24)
        - fam.sigma() * Fraction(m * (m * m - 1) * (m + 2), 24)
    )


def pluecker_c2(fam, m):
    """Closed form for c_2 of the tautological bundle on the punctual locus (dim base 1).

    The sum over k = 2..m of the integrated steps of the second-Chern recursion.
    """
    checked_int(m, 1, "m")
    checked_curve_base(fam, "the second-Chern contact recursion")
    return (
        fam.char("b") * comb(m, 2)
        + fam.char("omega2") * (3 * comb(m + 1, 4) - comb(m, 3))
        + fam.char("Lomega") * (3 * comb(m + 1, 3) - 2 * comb(m, 2))
        - fam.sigma() * (2 * comb(m + 2, 5))
    )
