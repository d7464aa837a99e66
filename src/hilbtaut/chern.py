"""Chern classes of tautological bundles, the full-flag evaluation pipeline,
and the enumerative applications (trisecants, double points into P^n).

A polynomial in the flag classes L_1..L_m and the discriminants of degrees
2..m is a CharPoly in the symbols L1..Lm and G2..Gm.  It evaluates by pushing
down the tower of flaglet correspondences: at each stage the accumulated
class is transferred with the new point's twist and multiplied by the
stage's discriminant powers.  Pushing the fundamental class through the
whole tower multiplies by m!, which is the degree of the full flag over the
Hilbert scheme; flag-level numbers are therefore m! times the
Hilbert-scheme numbers: `integrate(pushdown(fam, m, expr))`.  Chern classes of
tautological bundles are pushed down one factor per stage, never expanded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .basering import BaseClass
from .charpoly import CharPoly, from_terms, split_tags
from .family import FamilyDescriptor, checked_curve_base, checked_int
from .lincomb import mono_str
from .partitions import enumerate_distributions
from .tautmod import TautClass, gamma_action, integrate
from .transfer import transfer

# -- polynomials on the full flag ---------------------------------------------------


def flag_L(i) -> CharPoly:
    """The class L_i of the i-th point's line bundle on the full flag."""
    return CharPoly.symbol("L%d" % i)


def flag_G(i) -> CharPoly:
    """The pullback G_i of the degree-i discriminant; degrees 0 and 1 vanish."""
    return CharPoly.symbol("G%d" % i) if i >= 2 else CharPoly()


# -- pushing flag polynomials down to the Hilbert scheme ----------------------------


def pushdown(fam: FamilyDescriptor, m, expr: CharPoly) -> TautClass:
    """Push a flag polynomial in L1..Lm, G2..Gm down to the degree-m Hilbert scheme.

    The result is m! times the Hilbert-scheme class.  Stage i transfers the
    class accumulated on degree i-1 with twist L^(a_i), the exponent of L_i,
    then applies the degree-i discriminant k_i times, the exponent of G_i.
    Transfer and discriminant are linear, so the monomials whose remaining
    stages agree are summed and pushed as one class: the groups are keyed by
    the unprocessed suffix ((a_i, k_i), ..., (a_m, k_m)).  Stage i transfers
    each group with its own L^(a_i), sums the results by (rest, k_i) into S_k
    and runs one Horner chain per rest, acc <- Gamma^(k - lower)(acc + S_k) for
    k from the highest k_i down to 0: Gamma runs max k_i times per rest.
    """
    checked_int(m, 1, "flag length")
    return _push_terms(fam, m, expr.terms)


def _push_terms(fam: FamilyDescriptor, m, terms) -> TautClass:
    """`pushdown` of the flag polynomial {flag monomial: coefficient}.

    A coefficient may be a scalar or a CharPoly: it rides along the stages.
    """
    ring = fam.total_ring
    ell_power = cache(BaseClass.gen(ring, "L").__pow__)  # L^a, built once per exponent
    groups = {}
    for key, c in terms.items():
        powers = dict(key)
        for name, p in key:
            if type(p) is not int or p < 1:
                raise ValueError(
                    "flag monomial %s has exponent %r of %s; exponents are integers >= 1"
                    % (mono_str(key), p, name)
                )
        a = [powers.pop("L%d" % i, 0) for i in range(1, m + 1)]
        k = [powers.pop("G%d" % i, 0) for i in range(2, m + 1)]
        if powers:
            raise ValueError(
                "flag monomial %s has symbols outside L1..L%d, G2..G%d" % (mono_str(key), m, m)
            )
        group = groups.setdefault(tuple(zip(a[1:], k)), TautClass(fam, 1))
        for mono, e in ell_power(a[0]).terms.items():
            base_mono, fiber = ring.split((), mono)
            group.add_diag(base_mono, ((1, fiber),), c * e)
    for i in range(2, m + 1):
        by_rest = {}  # rest -> {k_i: sum over a_i of transfer(class, L^(a_i))}
        for ((a, k), *rest), cls in groups.items():
            if cls:
                moved = transfer(cls, ell_power(a))
                sums = by_rest.setdefault(tuple(rest), {})
                sums[k] = sums[k].accumulate(moved) if k in sums else moved
        groups = {}
        for rest, sums in by_rest.items():
            acc = TautClass(fam, i)
            ks = sorted(sums, reverse=True)
            for k, lower in zip(ks, ks[1:] + [0]):
                acc.accumulate(sums[k])
                for _ in range(k - lower):
                    if not acc:
                        break
                    acc = gamma_action(acc)
            groups[rest] = acc
    return groups.get((), TautClass(fam, m))


def push_monomial(fam: FamilyDescriptor, m, key) -> TautClass:
    """Push one flag monomial down: the one-term case of `pushdown`."""
    return pushdown(fam, m, CharPoly({key: 1}))


W3_SYMBOLS = ("L1", "L2", "L3", "G2", "G3")  # the order of `w3_monomial`'s exponents


def w3_monomial(fam: FamilyDescriptor, exponents) -> CharPoly:
    """Evaluate a degree-4 monomial in L1, L2, L3, G2, G3 on the 3-step flag.

    `exponents` is (a1, a2, a3, k2, k3); requires a 1-dimensional base.
    """
    checked_curve_base(fam, "the 3-step flag formulary")
    if len(exponents) != len(W3_SYMBOLS):
        raise ValueError("exponents %r are not five, (a1, a2, a3, k2, k3)" % (tuple(exponents),))
    if sum(exponents) != 4:
        raise ValueError("degree must be 4")
    mono = tuple(sorted((name, e) for name, e in zip(W3_SYMBOLS, exponents) if e))
    return integrate(push_monomial(fam, 3, mono))


# -- Chern classes of tautological bundles ------------------------------------------


def chern_splitting(m) -> CharPoly:
    """Total Chern class of the rank-m tautological bundle of a line bundle.

    The pullback to the full flag factors as the product over stages of
    (1 + L_i - G_i + G_{i-1}).  Only the rank-3 Chern numbers expand it;
    `chern_class_on_hilb` pushes it down one factor per stage.
    """
    out = CharPoly.const(1)
    for i in range(1, m + 1):
        out = out * (CharPoly.const(1) + flag_L(i) - flag_G(i) + flag_G(i - 1))
    return out


def chern_class_on_hilb(fam: FamilyDescriptor, m) -> TautClass:
    """Total Chern class of the tautological bundle on the Hilbert scheme.

    `chern_splitting(m)` pushed down one factor per stage: C_m / m! with
    C_1 = 1 + L and C_(i+1) = transfer(C_i, 1 + L) + transfer(Gamma C_i)
    - Gamma transfer(C_i) (docs/CONVENTIONS.md, "Flag polynomials").
    """
    checked_int(m, 1, "flag length")
    one_plus_l = BaseClass.unit(fam.total_ring) + BaseClass.gen(fam.total_ring, "L")
    cls = TautClass.from_twists(fam, [(1, one_plus_l)])
    for _ in range(1, m):
        step = transfer(cls, one_plus_l).accumulate(transfer(gamma_action(cls)))
        cls = step.accumulate(gamma_action(transfer(cls)), -1)
    return cls.scale(Fraction(1, factorial(m)))


def chern_closed_form(fam: FamilyDescriptor, m) -> TautClass:
    """Closed-form diagonal part of the total Chern class.

    Sum over distributions of weight m of prod_n ((-1)^(n-1) / n)^(mu(n))
    times the reduced diagonal class with a (1 + L) twist in every block.
    In the unreduced ordered normalization the coefficient picks up the
    factor aut(mu) * chi(mu) familiar from the symmetrized statement, where
    chi(mu) = prod over the blocks of (n-1)!.  It is the whole diagonal
    sector of `chern_class_on_hilb`.  On node families that class may also
    hold node terms, but each diagonal term of their payloads carries a base
    monomial above the boundary base's dimension: they are zero classes.
    """
    checked_int(m, 1, "m")
    ring = fam.total_ring
    one_plus_l = BaseClass.unit(ring) + BaseClass.gen(ring, "L")
    total = TautClass(fam, m)
    for sizes in enumerate_distributions(m):
        coeff = Fraction(1)
        for n in sizes:
            coeff *= Fraction((-1) ** (n - 1), n)
        pairs = [(n, one_plus_l) for n in sizes]
        total.accumulate(TautClass.from_twists(fam, pairs), coeff)
    return total


# -- Chern numbers on the 3-step flag and trisecants ---------------------------------


@cache
def _rank3():
    """The tags #name and tagged flag map of `chern_numbers_w3`, and c1 c2 - c3; built once."""
    total = chern_splitting(3)
    c1, c2, c3 = total.graded_part(1), total.graded_part(2), total.graded_part(3)
    polys = {"#c1^4": c1 ** 4, "#c1^2c2": c1 * c1 * c2, "#c1c3": c1 * c3, "#c2^2": c2 * c2}
    terms = {}  # flag monomial -> {tag monomial: coefficient}
    for tag, poly in polys.items():
        for key, c in poly.terms.items():
            terms.setdefault(key, {})[((tag, 1),)] = c
    return tuple(polys), {key: from_terms(t) for key, t in terms.items()}, c1 * c2 - c3


def chern_numbers_w3(fam: FamilyDescriptor):
    """The four degree-4 Chern numbers of the rank-3 tautological bundle.

    Returned on the 3-step flag (3! times the Hilbert-scheme numbers), as a
    dict with keys c1^4, c1^2c2, c1c3, c2^2; requires a 1-dimensional base.
    The four polynomials share most of their flag monomials (66 distinct of
    144), so they go down the tower in one pass: the coefficient of each
    monomial is sum_name c_name * #name, with one tag symbol #name per number
    that no descriptor can spell (built once, `_rank3`); the integral splits by tag.
    """
    checked_curve_base(fam, "the degree-4 Chern-number pushdown")
    tags, terms, _ = _rank3()
    parts = split_tags(integrate(_push_terms(fam, 3, terms)), tags)
    return {tag[1:]: parts.get(tag, CharPoly()) for tag in tags}


def trisecant_count(fam: FamilyDescriptor) -> CharPoly:
    """Count of ordered trisecant lines to the fibers of a map to P^5.

    The degeneracy combination c1^4 - 3 c1^2 c2 + 2 c1 c3 + c2^2 of the
    rank-3 tautological bundle's Chern numbers (`chern_numbers_w3`), on the
    3-step flag: six times the number of unordered trisecants.
    """
    n = chern_numbers_w3(fam)
    return n["c1^4"] - n["c1^2c2"] * 3 + n["c1c3"] * 2 + n["c2^2"]


def trisecant_grand_total(fam: FamilyDescriptor) -> CharPoly:
    """Closed polynomial for the ordered trisecant count in the characters."""
    d = fam.char("d")
    b = fam.char("b")
    lw = fam.char("Lomega")
    w2 = fam.char("omega2")
    tg = fam.char("twogm2")
    sg = fam.sigma()
    return (
        (d * d * 3 - d * 27 + CharPoly.const(60)) * b
        + (d * (-12) + CharPoly.const(72)) * lw
        + (d * (-3) + CharPoly.const(28)) * w2
        - b * tg * 3
        + (d * 3 - CharPoly.const(20)) * sg
    )


def single_curve_trisecant_scroll(chars=None) -> CharPoly:
    """Virtual degree of the trisecant scroll of one smooth space curve.

    Degree of c3 of the second exterior power of the rank-3 tautological
    bundle on the length-3 Hilbert scheme of a single curve: with rank 3,
    c3(wedge^2 E) = c1 c2 - c3.
    """
    fam = FamilyDescriptor(0, chars=chars or {}, label="X")
    flag_number = integrate(pushdown(fam, 3, _rank3()[2]))
    return flag_number / 6


def single_curve_trisecant_formula(chars=None) -> CharPoly:
    fam = FamilyDescriptor(0, chars=chars or {}, label="X")
    d = fam.char("d")
    tg = fam.char("twogm2")
    return (
        d * d * d * 2 - d * d * 12 + d * 16 - d * tg * 3 + tg * 6
    ) / 6


# -- double points -------------------------------------------------------------------


def double_point_class(fam: FamilyDescriptor, n) -> TautClass:
    """Virtual double-point class of a fiberwise map to projective n-space.

    Computed on the length-2 Hilbert scheme as the descent of
    (f x f)^* (diagonal of P^n) + sum_{i>=1} (-Gamma)^i c_{n-i}(T),
    pushed down the 2-step flag as the flag polynomial
    sum_a L_1^a L_2^(n-a) + sum_{i>=1} (-1)^i binom(n+1, n-i) L_1^(n-i) G_2^i
    and divided by 2!.  For i >= 1 the class Gamma^i lives on the diagonal,
    where both points carry the same class, so c_{n-i}(T) can sit on L_1.
    The sign of the diagonal-excess sum is pinned by the Segre-class route
    and the classical per-fiber count (d-1)(d-2)/2 - g for plane maps; the
    count of ordered double points is twice this class's degree.  For
    n > 2 + dim_b the flag polynomial is above top degree: the zero class,
    returned before anything is built.
    """
    if checked_int(n, 0, "n") > 2 + fam.dim_b:
        return TautClass(fam, 2)
    l1, l2, g2 = flag_L(1), flag_L(2), flag_G(2)
    expr = CharPoly()
    for a in range(n + 1):
        expr.accumulate(l1 ** a * l2 ** (n - a))
    for i in range(1, n + 1):
        expr.accumulate(l1 ** (n - i) * g2 ** i, comb(n + 1, n - i) * (-1) ** i)
    return pushdown(fam, 2, expr).scale(Fraction(1, 2))


def double_point_segre_route(fam: FamilyDescriptor, n) -> TautClass:
    """The same double-point class through the Segre-class degeneracy route.

    The n-th Segre class of the dual tautological bundle pulls back to the
    2-step flag as sum_i L_1^(n-i) (L_2 - G_2)^i, pushed down and divided by
    2!.  The two routes are different flag polynomials that agree only after
    the pushdown.  Above top degree, n > 2 + dim_b, it is the zero class.
    """
    if checked_int(n, 0, "n") > 2 + fam.dim_b:
        return TautClass(fam, 2)
    l1, l2, g2 = flag_L(1), flag_L(2), flag_G(2)
    expr = CharPoly()
    for i in range(n + 1):
        expr.accumulate(l1 ** (n - i) * (l2 - g2) ** i)
    return pushdown(fam, 2, expr).scale(Fraction(1, 2))
