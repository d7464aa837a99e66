"""The linear-combination core: the operations never change their inputs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.family import symbolic_family
from hilbtaut.tautmod import TautClass, gamma_as_class, gamma_power, to_data

small = st.integers(min_value=-3, max_value=3)
FAM = symbolic_family(1)


def charpoly(vals):
    out = CharPoly.zero()
    for name, v in zip(["b", "d", "sigma", "omega2"], vals):
        out.accumulate(CharPoly.symbol(name), v)
    return out


def baseclass(vals):
    monos = [(), (("L", 1),), (("omega", 1),), (("L", 1), ("omega", 1))]
    return BaseClass(FAM.total_ring, dict(zip(monos, vals)))


def tautclass(vals):
    # diagonal terms, node scrolls and node sections; `+` shares the payloads
    out = gamma_power(FAM, 3, 2).scale(vals[0])
    return out + gamma_power(FAM, 3, 3).scale(vals[1]) + gamma_as_class(FAM, 3).scale(vals[2])


def snapshot(value):
    """A deep copy of everything a combination holds, payloads included."""
    return to_data(value) if isinstance(value, TautClass) else dict(value.terms)


@given(st.sampled_from([charpoly, baseclass, tautclass]),
       st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=4, max_size=4),
       small)
@settings(max_examples=40, deadline=None)
def test_operations_leave_their_inputs_unchanged(make, avals, bvals, factor):
    a, b = make(avals), make(bvals)
    before = snapshot(a), snapshot(b)
    total = a + b
    diff = a - b
    scaled = a.scale(Fraction(factor, 2))
    acc = a.scale(0)
    acc.accumulate(a)
    acc.accumulate(b, factor)
    acc.accumulate(total, -1)
    assert (snapshot(a), snapshot(b)) == before
    assert total - b == a and diff + b == a
    assert scaled.scale(2) == a.scale(factor)
    assert acc == b.scale(factor - 1)



@given(st.sampled_from([charpoly, baseclass]), st.lists(small, min_size=4, max_size=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_power_and_graded_parts(make, vals, n):
    # monomial-keyed combinations: x^0 is the unit (the empty monomial),
    # x^(n+1) = x^n * x, and the graded parts of x^n add up to x^n
    x = make(vals) + 1
    assert (x ** 0).terms == {(): 1}
    assert x ** (n + 1) == x ** n * x
    power = x ** n
    parts = [power.graded_part(d) for d in range(2 * n + 1)]
    assert sum(parts[1:], parts[0]) == power
    assert all(sum(p for _, p in mono) == d for d, part in enumerate(parts) for mono in part.terms)
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
