"""Classical closed forms for families without nodes, computed with no engine code.

On the symmetric product C^(m) of one smooth curve of genus g the
discriminant is Gamma = Delta/2 = (m+g-1)x - theta, the norm divisor of a
line bundle L of degree d is N(L) = d x, and
integral x^(m-k) theta^k = g!/(g-k)! (Macdonald, "Symmetric products of an
algebraic curve", Topology 1 (1962); Arbarello-Cornalba-Griffiths-Harris,
Geometry of Algebraic Curves I, ch. VIII).  Over the product family C x P^1
the relative Hilbert scheme is C^(m) x P^1, where Gamma is pulled back from
C^(m), so its power of degree m + 1 vanishes.
"""

from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbtaut.family import FamilyDescriptor
from hilbtaut.basering import BaseClass
from hilbtaut.tautmod import gamma_power, integrate, twist


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
        cls = twist(cls, norm=BaseClass.gen(cls.ring, "L"))
    assert integrate(cls) == macdonald(g, d, m, a)


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("e", [1, 2])
def test_product_family_top_gamma_power_vanishes(g, d, e):
    # C x P^1 polarized by L = d (point) + e (fiber): L^2 = 2de, L.omega = e(2g-2), omega^2 = 0
    chars = {"d": d, "b": 2 * d * e, "Lomega": e * (2 * g - 2), "omega2": 0, "twogm2": 2 * g - 2}
    fam = FamilyDescriptor(1, chars=chars)
    for m in range(1, 7):
        assert integrate(gamma_power(fam, m, m + 1)).is_zero(), (g, d, e, m)
