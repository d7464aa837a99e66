from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hilbtaut.charpoly import CharPoly


def test_basic_arithmetic():
    b = CharPoly.symbol("b")
    d = CharPoly.symbol("d")
    poly = (b + d) * (b - d)
    assert poly == b * b - d * d
    assert not (poly - poly)
    assert CharPoly.const(Fraction(3, 2)) * 2 == CharPoly.const(3)


def test_substitute():
    b, d = CharPoly.symbol("b"), CharPoly.symbol("d")
    poly = b * d * 2 + d ** 2
    out = poly.substitute({"b": CharPoly.const(3)})
    assert out == d * 6 + d * d
    num = poly.substitute({"b": CharPoly.const(1), "d": CharPoly.const(Fraction(1, 2))})
    assert num == CharPoly.const(Fraction(5, 4))


def test_constant_value_guard():
    b = CharPoly.symbol("b")
    assert CharPoly.const(7).constant_value() == 7
    try:
        b.constant_value()
    except ValueError:
        pass
    else:
        raise AssertionError("expected a ValueError")


def test_string_forms():
    b, s = CharPoly.symbol("b"), CharPoly.symbol("sigma")
    assert str(b * 13 - s * 9) == "13*b - 9*sigma"
    assert str(CharPoly()) == "0"
    assert str(CharPoly.const(Fraction(-1, 2))) == "-1/2"


small = st.integers(min_value=-4, max_value=4)


@given(st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=4, max_size=4))
@settings(max_examples=50)
def test_ring_laws(avals, bvals):
    names = ["b", "d", "sigma", "omega2"]
    a = sum((CharPoly.symbol(n) * v for n, v in zip(names, avals)), CharPoly())
    b = sum((CharPoly.symbol(n) * v for n, v in zip(names, bvals)), CharPoly())
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + b) == a * b * 2
    assert (a - b) + b == a


def test_hashable_and_equal_hashes_equal():
    b, d = CharPoly.symbol("b"), CharPoly.symbol("d")
    first = (b + d) * (b - d)
    second = b * b - d * d
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert hash(CharPoly.const(0)) == hash(CharPoly())
