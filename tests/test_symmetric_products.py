"""Classical closed forms for families without nodes, computed with no engine code.

On the symmetric product C^(m) of one smooth curve of genus g the
discriminant is Gamma = Delta/2 = (m+g-1)x - theta, the norm divisor of a
line bundle L of degree d is N(L) = d x, and
integral x^(m-k) theta^k = g!/(g-k)! (Macdonald, "Symmetric products of an
algebraic curve", Topology 1 (1962); Arbarello-Cornalba-Griffiths-Harris,
Geometry of Algebraic Curves I, ch. VIII).  Over the product family C x P^1
the relative Hilbert scheme is C^(m) x P^1, where Gamma is pulled back from
C^(m), so its power of degree m + 1 vanishes.  There L^[m] is the secant
bundle of L_C pulled back, twisted by O(e) from P^1, so every Chern number of
L^[3] is a number on C^(3) times e.  Over the surface base of C x P^2 the
Hilbert scheme is C^(m) x P^2 and N(L) = N(L_C) + m e h, so a power of N(L)
keeps the part in h^2 = pt.

The tautological (secant) bundle L^[m] of a line bundle of degree d has total
Chern class c(L^[m]) = (1 - x)^(m+g-1-d) exp(theta / (1 - x)) (ACGH I,
ch. VIII), which checks the stage-by-stage pushdown of the Chern splitting
up to m = 10.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbtaut.family import FamilyDescriptor
from hilbtaut.basering import BaseClass
from hilbtaut.chern import chern_class_on_hilb, chern_numbers_w3
from hilbtaut.tautmod import TautClass, gamma_power, integrate, twists


def macdonald(g, d, m, a):
    """integral over C^(m) of N(L)^a Gamma^(m-a), with N(L) = d x and Gamma = (m+g-1)x - theta."""
    return d**a * sum(
        comb(m - a, k) * (m + g - 1) ** (m - a - k) * (-1) ** k * factorial(g) // factorial(g - k)
        for k in range(min(m - a, g) + 1)
    )


# (m, a): Hilbert degree m <= 10 and the power a <= m of the norm divisor N(L)
degree_and_norm_power = st.integers(1, 10).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, m))
)


@pytest.mark.parametrize("g", range(7))
@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 6), ma=degree_and_norm_power)
@example(d=1, ma=(10, 0))
@example(d=6, ma=(10, 10))
@example(d=3, ma=(7, 3))
def test_macdonald_gamma_power(g, d, ma):
    m, a = ma
    fam = FamilyDescriptor(0, chars={"twogm2": 2 * g - 2, "d": d})
    cls = gamma_power(fam, m, m - a)
    for _ in range(a):
        cls = twists(cls, [(None, BaseClass.gen(cls.ring, "L"))])[0]
    assert integrate(cls) == macdonald(g, d, m, a)


def binom(n, r):
    """Binomial coefficient n choose r for any integer n (also negative), r >= 0."""
    out = Fraction(1)
    for i in range(r):
        out = out * (n - i) / (i + 1)
    return out


def secant_chern_number(g, d, m, k):
    """integral over C^(m) of c_k(L^[m]) N(L)^(m-k), with N(L) = d x.

    The degree-k part of (1 - x)^(m+g-1-d) exp(theta / (1 - x)) is
    sum_t theta^t / t! * binom(m+g-1-d-t, k-t) (-x)^(k-t), and
    integral x^(m-t) theta^t = g!/(g-t)!, so theta^t / t! integrates to binom(g, t).
    """
    n = m + g - 1 - d
    return d ** (m - k) * sum(
        (-1) ** (k - t) * binom(n - t, k - t) * comb(g, t) for t in range(min(k, g) + 1)
    )


def assert_secant_chern_numbers(g, d, m):
    fam = FamilyDescriptor(0, chars={"twogm2": 2 * g - 2, "d": d})
    total = chern_class_on_hilb(fam, m)
    assert not total.scroll and not total.section
    ring, ell = fam.total_ring, BaseClass.gen(fam.total_ring, "L")
    for k in range(m + 1):
        ck = TautClass(fam, m)
        for (base, blocks), c in total.diag.items():
            if sum(n - 1 + ring.degree(mono) for n, mono in blocks) == k:
                ck.add_diag(base, blocks, c)
        for _ in range(m - k):
            ck = twists(ck, [(None, ell)])[0]
        assert integrate(ck) == secant_chern_number(g, d, m, k), (g, d, m, k)


@settings(max_examples=15, deadline=None)
@given(g=st.integers(0, 4), d=st.integers(1, 9), m=st.integers(1, 8))
@example(g=4, d=9, m=6)
def test_secant_bundle_chern_numbers(g, d, m):
    assert_secant_chern_numbers(g, d, m)


def test_secant_bundle_chern_numbers_m7():
    assert_secant_chern_numbers(3, 5, 7)


@pytest.mark.parametrize("g, d, m", [(3, 5, 8), (4, 9, 9), (2, 7, 10), (0, 1, 10)])
def test_secant_bundle_chern_numbers_up_to_m10(g, d, m):
    assert_secant_chern_numbers(g, d, m)


def product_family(g, d, e):
    """C x P^1 polarized by L = d (point) + e (fiber): L^2 = 2de, L.omega = e(2g-2), omega^2 = 0."""
    chars = {"d": d, "b": 2 * d * e, "Lomega": e * (2 * g - 2), "omega2": 0, "twogm2": 2 * g - 2}
    return FamilyDescriptor(1, chars=chars)


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("e", [1, 2])
def test_product_family_top_gamma_power_vanishes(g, d, e):
    fam = product_family(g, d, e)
    for m in range(1, 7):
        assert not integrate(gamma_power(fam, m, m + 1)), (g, d, e, m)


def secant_chern_numbers_m3(g, d):
    """integral over C^(3) of c1^3, c1 c2 and c3 of the secant bundle F = L_C^[3].

    c_k(F) = sum_t theta^t / t! * binom(g+2-d-t, k-t) (-x)^(k-t); a product is
    a dict {(i, t): coefficient of x^i theta^t}, and x^(3-t) theta^t
    integrates to g!/(g-t)!.
    """
    n = g + 2 - d
    c1, c2, c3 = (
        {(k - t, t): (-1) ** (k - t) * binom(n - t, k - t) / factorial(t) for t in range(k + 1)}
        for k in (1, 2, 3)
    )

    def times(p, q):
        out = {}
        for (i1, t1), a in p.items():
            for (i2, t2), b in q.items():
                out[i1 + i2, t1 + t2] = out.get((i1 + i2, t1 + t2), 0) + a * b
        return out

    def integral(p):
        return sum(c * (factorial(g) // factorial(g - t)) for (_, t), c in p.items() if t <= g)

    return integral(times(times(c1, c1), c1)), integral(times(c1, c2)), integral(c3)


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("e", [1, 2])
def test_product_family_chern_numbers(g, d, e):
    # L^[3] = F x O(e) on C^(3) x P^1: with h the point class of P^1,
    # c(L^[3]) = prod (1 + f_i + e h), so c1 = c1F + 3eh, c2 = c2F + 2eh c1F,
    # c3 = c3F + eh c2F, and each number keeps the part linear in h
    c1_3, c1c2, c3 = secant_chern_numbers_m3(g, d)
    expected = {
        "c1^4": 12 * e * c1_3,
        "c1^2c2": 2 * e * c1_3 + 6 * e * c1c2,
        "c1c3": e * c1c2 + 3 * e * c3,
        "c2^2": 4 * e * c1c2,
    }
    numbers = chern_numbers_w3(product_family(g, d, e))
    # flag level: 3! times the numbers on the Hilbert scheme
    assert {k: v.constant_value() for k, v in numbers.items()} == {
        k: 6 * Fraction(v) for k, v in expected.items()
    }


# -- the surface base of C x P^2 ---------------------------------------------------------


def surface_family(g, d):
    """C x P^2 -> P^2 with L = L_C (degree d) boxtimes O(e): only d and 2g - 2 are characters."""
    return FamilyDescriptor(2, chars={"d": d, "twogm2": 2 * g - 2})


def pushed_to_p2(factor, g, d, e):
    """The coefficient of pi_*(L^a omega^b) on P^2 for the factor text `L^a*omega^b`.

    With omega = (2g-2) pt boxtimes 1 and pt^2 = 0 on C: pi_*(L^a) =
    a d e^(a-1) H^(a-1), pi_*(L^a omega) = (2g-2) e^a H^a, and 0 for b >= 2.
    """
    powers = {}
    for part in factor.split("*"):
        name, _, power = part.partition("^")
        powers[name] = int(power or 1)
    a, b = powers.pop("L", 0), powers.pop("omega", 0)
    assert not powers, factor
    if b == 0:
        return a * d * e ** (a - 1)
    return (2 * g - 2) * e**a if b == 1 else 0


def bind_surface_integrals(poly, g, d, e):
    """`poly` with each IT[X/B|1|f_1;...;f_r] bound on C x P^2.

    The symbol is the integral over P^2 of the product of the pushforwards
    of its factors, H^(deg f_i - 1) each; by degree the product is a multiple
    of H^2, and integral H^2 = 1.
    """
    bindings = {}
    for mono in poly.terms:
        for name, _ in mono:
            assert name.startswith("IT[X/B|1|") and name.endswith("]"), name
            value = 1
            for factor in name[len("IT[X/B|1|") : -1].split(";"):
                value *= pushed_to_p2(factor, g, d, e)
            bindings[name] = value
    out = poly.substitute(bindings)
    assert out.is_constant(), out
    return out.constant_value()


def assert_surface_base_identity(g, d, e, m):
    """integral Gamma^(m-a) N(L)^(a+2) = binom(a+2, 2) (m e)^2 macdonald(g, d, m, a), all a <= m.

    Gamma is pulled back from C^(m), so its top power Gamma^(m+2) is zero too.
    """
    fam = surface_family(g, d)
    assert not bind_surface_integrals(integrate(gamma_power(fam, m, m + 2)), g, d, e)
    ell = BaseClass.gen(fam.total_ring, "L")
    for a in range(m + 1):
        cls = gamma_power(fam, m, m - a)
        for _ in range(a + 2):
            cls = twists(cls, [(None, ell)])[0]
        expected = comb(a + 2, 2) * (m * e) ** 2 * macdonald(g, d, m, a)
        assert bind_surface_integrals(integrate(cls), g, d, e) == expected, (g, d, e, m, a)


@pytest.mark.parametrize("g", range(3))
@pytest.mark.parametrize("d, e", [(1, 1), (3, 2), (2, 5)])
def test_surface_base_norm_powers(g, d, e):
    for m in range(1, 5):
        assert_surface_base_identity(g, d, e, m)
