"""Reference code the tests compare the engine against.

Closed forms, brute forces and second routes that no part of the package runs:
the codimensions a class holds, the integral of a product of classes over a
fiber product, the integrated steps of the second-Segre contact recursion, the
discriminant powers on a scroll through the polarized rank-2 structure, the
transfer of a node section resolved through D^n_j, the interior omega part of
the formal discriminant, the distributions up to a weight and the labelled
block partitions of one, the per-pair union of the ordered model, and the four
rank-3 Chern numbers with every flag monomial pushed down on its own, the
discriminant powers by plain iteration with their zero classes dropped
afterwards, the discriminant action uniting every index pair of blocks
with its e-twists built as classes before Gamma is subtracted, the flag
pushdown with one Horner chain per (a_i, rest) instead of one per rest, and
the divisor twists with their norm part built one block at a time as classes,
and the fitted closed form of the plain sigma coefficient of the top-degree
discriminant integral over a curve base.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb

from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import chern_splitting, push_monomial
from hilbtaut.family import fiber_integral, theta_star
from hilbtaut.lincomb import add_term, exact, expand, merge_monos
from hilbtaut.oracle import OrderedTensor
from hilbtaut.partitions import enumerate_distributions
from hilbtaut.tautmod import (
    TautClass,
    _add_scaled,
    _finished,
    gamma_action,
    integrate,
    nu_coeff,
    phi_star,
    scroll_divisor,
    twists,
)
from hilbtaut.tensym import TensorClass
from hilbtaut.transfer import transfer


def codim_parts(cls):
    """The set of codimensions of the terms of a tautological class."""
    out = {cls._diag_codim(base_mono, blocks) for base_mono, blocks in cls.diag}
    for (_, n, _), p in cls.by_node("scroll").items():
        out |= {n + c for c in codim_parts(p)} or {n}
    for (_, n, _), p in cls.by_node("section").items():
        out |= {n + 1 + c for c in codim_parts(p)} or {n + 1}
    return out


def integrate_classes(fam, factors):
    """Top-degree integral over a fiber product of the family's total space.

    `factors` is a list of BaseClasses, one per fiber factor; `[cls]`
    integrates over the total space itself.  Raises ValueError on degree mismatch.
    """
    total = CharPoly()
    for slots, coeff in expand(factors):
        total.accumulate(fiber_integral(fam, slots), coeff)
    return total


def s2_contact_step(fam, m):
    """Integrated m-th step of the second-Segre recursion, base of dimension 1.

    The step's interior m L^2 + 3m(m-1)/2 L omega + (m-1) binom(m,2) omega^2
    integrates over X; its sections (-Gamma).C^m_i carry -i(m-i) at each node
    and project with degree one; its bare scrolls integrate to zero.
    """
    return (
        fam.char("b") * m
        + fam.char("Lomega") * Fraction(3 * m * (m - 1), 2)
        + fam.char("omega2") * ((m - 1) * comb(m, 2))
        - fam.sigma() * sum(i * (m - i) for i in range(1, m))
    )


def sigma_coefficient_fit(m):
    """The plain `sigma` coefficient of the integral of Gamma^(m+1) on Hilb^m, curve base.

    -m^(m-1) binom(m+1, 3) / 4 on `symbolic_family(1)`: a fit through m = 2..8
    that the engine matches at m = 9, 10 and 11, not a derived formula.
    """
    return Fraction(-(m ** (m - 1)) * comb(m + 1, 3), 4)


def mult_e(payload, n, j):
    """e^n_j P = D^n_j P - Gamma P on a boundary payload P."""
    out = twists(payload, [scroll_divisor(payload.ring, n, j)])[0]
    if payload.m >= 2:
        out.accumulate(gamma_action(payload), -1)
    return out


def gamma_power_on_scroll(fam, m, node_id, n, j, payload, ell):
    """(-Gamma)^ell applied to the twisted scroll F^{n,m}_j(node)[payload].

    Closed form through the polarized rank-2 structure:
    (-G)^ell F[P] = (-G) F[h_{ell-1}(e_j, e_{j+1}) P] - F[e_j e_{j+1} h_{ell-2}(e) P]
    with h_k the complete homogeneous symmetric polynomial of degree k,
    h_i = e_j h_(i-1) + e_(j+1)^i.
    """
    out = TautClass(fam, m)
    if ell == 0:
        out.add_node("scroll", node_id, n, j, payload)
        return out
    h = [payload]
    power = payload
    for _ in range(ell - 1):
        power = mult_e(power, n, j + 1)
        h.append(mult_e(h[-1], n, j) + power)
    out.add_node("section", node_id, n, j, h[ell - 1])
    if ell >= 2:
        out.add_node("scroll", node_id, n, j, -mult_e(mult_e(h[ell - 2], n, j + 1), n, j))
    return out


def transfer_through_dj(tc, beta=None):
    """`transfer` with each node section resolved through D^n_j instead of D^n_(j+1).

    The section (-Gamma).F^{n,m}_j[P] goes to F^{n+1,m+1}_(j+1)[theta^*(beta) P]
    + (-Gamma).F^{n,m+1}_j[T P] + F^{n,m+1}_j[T(D^n_j P) - D^n_j T P], with T
    the transfer twisted by phi^*(beta); the engine's rule puts the first term
    on F^{n+1,m+1}_j and uses D^n_(j+1).  The two agree as cycle classes.
    """
    if beta is None:
        beta = BaseClass.unit(tc.ring)
    out = transfer(tc._like(tc.diag, tc.scroll, {}), beta)
    bd = tc.fam.boundary_family()
    phib = BaseClass(bd.total_ring)
    for mono, c in beta.terms.items():
        phib.accumulate(phi_star(bd.total_ring, mono), c)
    tau = BaseClass(
        bd.total_ring,
        {t: c for mono, c in beta.terms.items() if (t := theta_star(mono)) is not None},
    )
    for (n, j), payload in tc.section.items():
        moved = transfer(payload, phib)
        divisor = scroll_divisor(bd.total_ring, n, j)
        tau_p, d_p = twists(payload, [(tau, None), divisor])
        add_term(out.scroll, (n + 1, j + 1), tau_p)
        add_term(out.section, (n, j), moved)
        add_term(out.scroll, (n, j), transfer(d_p, phib) - twists(moved, [divisor])[0])
    return out


def u_omega_total(alpha):
    """Multiply the factor of each n-block (n >= 2) by omega, with coefficient binom(n, 2).

    The interior omega part of the formal discriminant of `tensym`: the
    discriminant of a tensor is `discriminant_op(alpha) - u_omega_total(alpha)`.
    """
    ring = alpha.ring
    out = TensorClass(ring)
    for key, c in alpha.terms.items():
        for i, (n, mono) in enumerate(key):
            if n < 2:
                continue
            prod = ring.merge(mono, (("omega", 1),))
            if prod is None:
                continue
            sign, imono = prod
            out._add(key[:i] + key[i + 1 :] + ((n, imono),), c * sign * comb(n, 2))
    return out


def unreduced_gamma_power(fam, m, k):
    """k discriminant steps from the fundamental class, keeping every term."""
    out = TautClass.fundamental(fam, m)
    for _ in range(k):
        out = gamma_action(out)
    return out


def drop_zero_classes(cls):
    """`cls` without its diagonal terms whose base monomial is above the base dimension.

    Such a term is pulled back from a class of degree above dim_b on the base
    of its family, so it is zero.  Each node's payload is reduced on its own
    and kept only when something is left.
    """
    out = TautClass(cls.fam, cls.m)
    for (base_mono, blocks), coeff in cls.diag.items():
        if sum(p for _, p in base_mono) <= cls.fam.dim_b:
            out.diag[base_mono, blocks] = coeff
    for sector in ("scroll", "section"):
        for (node_id, n, j), payload in cls.by_node(sector).items():
            out.add_node(sector, node_id, n, j, drop_zero_classes(payload))
    return out


def distributions_up_to(maxweight):
    """Every distribution of weight <= maxweight, by weight."""
    return [mu for weight in range(maxweight + 1) for mu in enumerate_distributions(weight)]


def block_partitions(mu):
    """The distinct set partitions of {1..m} into blocks of the sizes mu.

    Brute force: cut every permutation of {1..m} into consecutive blocks of
    sizes mu and keep each resulting set of blocks once.
    """
    out = set()
    for perm in permutations(range(1, sum(mu) + 1)):
        blocks, start = [], 0
        for n in mu:
            blocks.append(frozenset(perm[start : start + n]))
            start += n
        out.add(frozenset(blocks))
    return out


def ordered_union(t, i, j):
    """Unite slots i < j (0-based) of an ordered tensor by ring multiplication."""
    out = OrderedTensor(t.ring)
    for (labels, monos), c in t.terms.items():
        prod = t.ring.merge(monos[i], monos[j])
        if prod is None:
            continue
        sign, mono = prod
        new_labels = tuple(
            lab | labels[j] if k == i else lab
            for k, lab in enumerate(labels)
            if k != j
        )
        new_monos = tuple(
            mono if k == i else m for k, m in enumerate(monos) if k != j
        )
        out._add((new_labels, new_monos), c * sign)
    return out


def accumulate(t, other, factor=1):
    """Add factor * other into the ordered tensor t in place; returns t."""
    for key, c in other.terms.items():
        t._add(key, c * factor)
    return t


def chern_numbers_per_monomial(fam):
    """`chern_numbers_w3` with each distinct flag monomial pushed down and integrated once."""
    c1, c2, c3 = (chern_splitting(3).graded_part(k) for k in (1, 2, 3))
    polys = {"c1^4": c1 ** 4, "c1^2c2": c1 * c1 * c2, "c1c3": c1 * c3, "c2^2": c2 * c2}
    values = {}
    out = {}
    for name, poly in polys.items():
        total = CharPoly()
        for key, c in poly.terms.items():
            if key not in values:
                values[key] = integrate(push_monomial(fam, 3, key))
            total.accumulate(values[key], c)
        out[name] = total
    return out


def pushdown_per_twist(fam, m, terms):
    """`chern.pushdown` of {flag monomial: coefficient}, one chain per (a_i, rest).

    At stage i the groups sharing (a_i, rest) run their own Horner chain,
    acc <- Gamma acc + transfer(class_k, L^(a_i)), and the chains of one rest
    are summed afterwards: Gamma runs max k_i times per (a_i, rest).
    """
    ell = BaseClass.gen(fam.total_ring, "L")
    groups = {}
    for key, c in terms.items():
        powers = dict(key)
        a = [powers.pop("L%d" % i, 0) for i in range(1, m + 1)]
        k = [powers.pop("G%d" % i, 0) for i in range(2, m + 1)]
        seed = TautClass.from_twists(fam, [(1, ell ** a[0])]).scale(c)
        suffix = tuple(zip(a[1:], k))
        groups.setdefault(suffix, TautClass(fam, 1)).accumulate(seed)
    for i in range(2, m + 1):
        by_power = {}  # (a_i, rest) -> {k_i: class on degree i-1}
        for ((a, k), *rest), cls in groups.items():
            if cls:
                by_power.setdefault((a, tuple(rest)), {})[k] = cls
        shorter = {}
        for (a, rest), classes in by_power.items():
            acc = TautClass(fam, i)
            ks = sorted(classes, reverse=True)
            for k, lower in zip(ks, ks[1:] + [0]):
                acc.accumulate(transfer(classes[k], ell ** a))
                for _ in range(k - lower):
                    if not acc:
                        break
                    acc = gamma_action(acc)
            shorter.setdefault(rest, TautClass(fam, i)).accumulate(acc)
        groups = shorter
    return groups.get((), TautClass(fam, m))


def gamma_action_per_index_pair(tc):
    """`gamma_action` visiting every index pair of blocks, with two-step e-twists.

    The union and the interior and boundary terms run once per block index,
    identical blocks included; a node section's e^n_j P is the twisted class
    D^n_j P with Gamma P subtracted afterwards, and e_j P + e_(j+1) P is added
    as whole classes.
    """
    fam, m = tc.fam, tc.m
    top = tc.space_dim()
    out = TautClass(fam, m)
    diag = {}  # owned accumulator: key -> {character monomial: scalar}

    for (base_mono, blocks), coeff in tc.diag.items():
        mult = Counter(n for n, _ in blocks)
        # the union and interior terms have codimension one more than the key
        if tc._diag_codim(base_mono, blocks) < top:
            # unite pairs of blocks
            for i in range(len(blocks)):
                for k in range(i + 1, len(blocks)):
                    (n1, mono1), (n2, mono2) = blocks[i], blocks[k]
                    rest = blocks[:i] + blocks[i + 1 : k] + blocks[k + 1 :]
                    sign, key = tc._rekeyed(base_mono, rest, n1 + n2, mono1, mono2)
                    if not sign:
                        continue
                    # aut(united) / aut(mu); mult[n2] drops by one once the n1 block is gone
                    num = sign * n1 * n2 * (mult[n1 + n2] + 1)
                    factor = exact(Fraction(num, mult[n1] * (mult[n2] - (n1 == n2))))
                    _add_scaled(diag, key, coeff, factor)
            # interior multiplication by omega within each block
            for i, (n, mono) in enumerate(blocks):
                if n < 2:
                    continue
                rest = blocks[:i] + blocks[i + 1 :]
                sign, key = tc._rekeyed(base_mono, rest, n, mono, (("omega", 1),))
                if sign:
                    _add_scaled(diag, key, coeff, -sign * comb(n, 2))
        # boundary terms: per block of size >= 2, one payload on the shared
        # boundary family, scaled by sum weight * tag over the nodes, per j
        if not fam.nodes:
            continue
        for i, (n, mono) in enumerate(blocks):
            tau = theta_star(mono) if n >= 2 else None
            if tau is None:
                continue
            bd = fam.boundary_family()
            # the other blocks pulled back, the whole term twisted by tau
            pairs = [(nb, phi_star(bd.total_ring, mb)) for nb, mb in blocks[:i] + blocks[i + 1 :]]
            base = BaseClass(bd.total_ring, {merge_monos(tau, base_mono): 1})
            payload = TautClass.from_twists(bd, pairs, base=base)
            if not payload:
                continue
            tagged = coeff * fam.tagged_weight
            for j in range(1, n):
                factor = tagged * exact(Fraction(nu_coeff(n, j), mult[n]))
                add_term(out.scroll, (n, j), payload.scale(factor))
    out.diag = _finished(diag)

    # scrolls: Gamma . F = -((-Gamma) . F)
    for (n, j), payload in tc.scroll.items():
        add_term(out.section, (n, j), -payload)

    # sections: Gamma . (-Gamma)F[P] = -(-Gamma)^2 F[P]
    #         = -(-Gamma)F[(e_j + e_{j+1}) P] + F[e_j e_{j+1} P]
    for (n, j), payload in tc.section.items():
        ej_p, ej1_p = _mult_e_two_step(payload, n, (j, j + 1))
        add_term(out.section, (n, j), -(ej_p + ej1_p))
        add_term(out.scroll, (n, j), _mult_e_two_step(ej1_p, n, (j,))[0])
    return out


def _mult_e_two_step(tc, n, js):
    """[e^n_j tc for j in js], e^n_j = D^n_j - Gamma: one twist pass, one Gamma tc."""
    out = twists(tc, [scroll_divisor(tc.ring, n, j) for j in js])
    if tc.m < 2:
        return out
    gamma_tc = gamma_action_per_index_pair(tc)
    return [cls.accumulate(gamma_tc, -1) for cls in out]


def twists_per_block(tc, divisors, gamma_shares=()):
    """`twists` with the norm entering every block, identical ones included, as a class.

    For each key, the pullback multiplies the base monomial through
    `add_diag`, and for each block the norm times that block's twist is a
    `from_twists` class beside the other blocks, weighted by the block's size;
    both drop their terms above top codimension there.  A Gamma share adds
    that multiple of `gamma_action(tc)` as a whole class.
    """
    fam, m, ring = tc.fam, tc.m, tc.ring
    out = []
    for d, (pullback, norm) in enumerate(divisors):
        cls = TautClass(fam, m)
        for (base_mono, blocks), coeff in tc.diag.items():
            for mono, c in (pullback.terms.items() if pullback else ()):
                cls.add_diag(merge_monos(base_mono, mono), blocks, coeff * c)
            if not norm:
                continue
            base = BaseClass(ring, {base_mono: 1})
            pairs = [(n, BaseClass(ring, {mono: 1})) for n, mono in blocks]
            for i, (n, twist) in enumerate(pairs):
                normed = pairs[:i] + [(n, twist * norm)] + pairs[i + 1 :]
                cls.accumulate(TautClass.from_twists(fam, normed, base=base), coeff * n)
        if d < len(gamma_shares) and gamma_shares[d]:
            cls.accumulate(gamma_action(tc), gamma_shares[d])
        out.append(cls)
    return out
