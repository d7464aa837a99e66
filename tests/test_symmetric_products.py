"""Classical closed forms for families without nodes, computed with no engine code.

On the symmetric product C^(m) of one smooth curve of genus g the
discriminant is Gamma = Delta/2 = (m+g-1)x - theta, and
integral x^(m-k) theta^k = g!/(g-k)! (Macdonald, "Symmetric products of an
algebraic curve", Topology 1 (1962); Arbarello-Cornalba-Griffiths-Harris,
Geometry of Algebraic Curves I, ch. VIII).  Over the product family C x P^1
the relative Hilbert scheme is C^(m) x P^1, where Gamma is pulled back from
C^(m), so its power of degree m + 1 vanishes.
"""

from math import comb, factorial

import pytest

from hilbtaut.family import FamilyDescriptor
from hilbtaut.tautmod import gamma_power, integrate


def macdonald_gamma_power(g, m):
    """integral over C^(m) of Gamma^m, from the binomial expansion of ((m+g-1)x - theta)^m."""
    return sum(
        comb(m, k) * (m + g - 1) ** (m - k) * (-1) ** k * factorial(g) // factorial(g - k)
        for k in range(min(m, g) + 1)
    )


@pytest.mark.parametrize("g", range(7))
def test_macdonald_gamma_power(g):
    fam = FamilyDescriptor(0, chars={"twogm2": 2 * g - 2})
    for m in range(1, 11):
        assert integrate(gamma_power(fam, m, m)) == macdonald_gamma_power(g, m), (g, m)


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("e", [1, 2])
def test_product_family_top_gamma_power_vanishes(g, d, e):
    # C x P^1 polarized by L = d (point) + e (fiber): L^2 = 2de, L.omega = e(2g-2), omega^2 = 0
    chars = {"d": d, "b": 2 * d * e, "Lomega": e * (2 * g - 2), "omega2": 0, "twogm2": 2 * g - 2}
    fam = FamilyDescriptor(1, chars=chars)
    for m in range(1, 7):
        assert integrate(gamma_power(fam, m, m + 1)).is_zero(), (g, d, e, m)
