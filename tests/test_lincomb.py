"""The linear-combination core: the operations never change their inputs."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbtaut.basering import BaseClass
from hilbtaut.charpoly import CharPoly
from hilbtaut.family import symbolic_family
from hilbtaut.lincomb import expand
from hilbtaut.tautmod import TautClass, gamma_power, to_data
from hilbtaut.tensym import TensorClass
from reference import graded_part

small = st.integers(min_value=-3, max_value=3)
FAM = symbolic_family(1)


def charpoly(vals):
    out = CharPoly()
    for name, v in zip(["b", "d", "sigma", "omega2"], vals):
        out.accumulate(CharPoly.symbol(name), v)
    return out


def baseclass(vals):
    monos = [(), (("L", 1),), (("omega", 1),), (("L", 1), ("omega", 1))]
    return BaseClass(FAM.total_ring, dict(zip(monos, vals)))


def tautclass(vals):
    # diagonal terms, node scrolls and node sections; `+` shares the payloads
    out = gamma_power(FAM, 3, 2).scale(vals[0])
    return out + gamma_power(FAM, 3, 3).scale(vals[1]) + gamma_power(FAM, 3, 1).scale(vals[2])


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


def test_classes_of_two_families_do_not_add():
    # two families with the same characters are still two total spaces
    other = symbolic_family(1)
    with pytest.raises(ValueError, match="mixed TautClass spaces: fam"):
        gamma_power(FAM, 2, 1) + gamma_power(other, 2, 1)


def test_expand_unit_and_zero():
    assert expand([]) == [((), 1)]
    one = BaseClass.unit(FAM.total_ring)
    assert expand([one, BaseClass(FAM.total_ring), one]) == []
    assert expand([CharPoly()]) == []


def test_expand_multiplies_coefficients_in_factor_order():
    b, d = (("b", 1),), (("d", 1),)
    x = CharPoly({b: 2, d: Fraction(1, 3)})
    y = CharPoly({(): -5})
    assert expand([x, y]) == [((b, ()), -10), ((d, ()), Fraction(-5, 3))]
    assert expand([y, x]) == [(((), b), -10), (((), d), Fraction(-5, 3))]
    # one key per factor, even when two factors are the same combination
    assert expand([x, x]) == [
        ((b, b), 4), ((b, d), Fraction(2, 3)), ((d, b), Fraction(2, 3)), ((d, d), Fraction(1, 9))
    ]


def test_expand_three_mixed_factors_by_hand():
    ring = FAM.total_ring
    L, w = BaseClass.gen(ring, "L"), BaseClass.gen(ring, "omega")
    x, y, z = L + 1, w * 2 - 3, L - w
    # (1 + L)(2w - 3)(L - w) = -3L + 3w - 3L^2 + 5Lw - 2w^2 + (degree 3, zero on X)
    by_hand = BaseClass(ring, {
        (("L", 1),): -3, (("omega", 1),): 3,
        (("L", 2),): -3, (("L", 1), ("omega", 1)): 5, (("omega", 2),): -2,
    })
    assert x * y * z == by_hand
    expanded = BaseClass(ring)
    for keys, c in expand([x, y, z]):
        expanded.accumulate(BaseClass(ring, {sum(keys, ()): c}))
    assert expanded == by_hand
    assert len(expand([x, y, z])) == 2 * 2 * 2


@given(st.lists(st.lists(small, min_size=4, max_size=4), min_size=0, max_size=3))
@settings(max_examples=40, deadline=None)
def test_expand_sums_to_the_product(vals):
    factors = [baseclass(v) for v in vals]
    ring = FAM.total_ring
    expanded = BaseClass(ring)
    for keys, c in expand(factors):
        assert len(keys) == len(factors)
        assert all(key in f.terms for key, f in zip(keys, factors))
        expanded.accumulate(BaseClass(ring, {sum(keys, ()): c}))
    product = BaseClass.unit(ring)
    for f in factors:
        product = product * f
    assert expanded == product


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
    parts = [graded_part(power, d) for d in range(2 * n + 1)]
    assert sum(parts[1:], parts[0]) == power
    assert all(sum(p for _, p in mono) == d for d, part in enumerate(parts) for mono in part.terms)
    with pytest.raises(ValueError, match="negative power"):
        x ** -1


def test_a_foreign_operand_is_refused():
    # a float is no exact coefficient: each operator returns NotImplemented, so Python
    # refuses the sum and product, and equality falls back to identity
    poly, cls = CharPoly.const(1), BaseClass.unit(FAM.total_ring)
    for value in (poly, cls):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(value, 1.5)
        with pytest.raises(TypeError):
            1.5 * value
        assert value != 1.5


def test_each_value_prints_its_type_and_terms():
    ring = FAM.total_ring
    one, L = BaseClass.unit(ring), BaseClass.gen(ring, "L")
    assert repr(ring) == "Ring(X/B(dim 1), dim=2)"
    assert repr(one + L * 2) == "BaseClass<X/B(dim 1)>(1 + 2*L)"
    assert repr(FAM.nodes[0]) == "Node(s, weight=sigma)"
    assert repr(TautClass(FAM, 2)) == "TautClass(m=2: 0)"
    assert repr(TautClass.from_twists(FAM, [(1, L), (1, one)])) == (
        "TautClass(m=2: (1)*Gamma_(1,1)[1, L])"
    )
    assert repr(TensorClass(ring)) == "TensorClass(0)"
    assert repr(TensorClass.simple(ring, [(2, L * 3), (1, one + L)])) == (
        "TensorClass((3)[2:L (x) 1:1] + (3)[2:L (x) 1:L])"
    )
