from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hilbtaut.charpoly import CharPoly
from hilbtaut.lincomb import merge_monos


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


# -- the coefficient rule: an int when integral, a Fraction otherwise -----------------

scalars = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
nonzero_scalars = scalars.filter(bool)
MONOS = [(), (("b", 1),), (("d", 1),), (("b", 1), ("d", 2))]
coeff_maps = st.dictionaries(st.sampled_from(MONOS), scalars, max_size=4)


def _ref(terms):
    """A coefficient map in all-Fraction arithmetic, zero terms dropped."""
    return {k: Fraction(c) for k, c in terms.items() if c}


def _ref_add(p, q, factor=1):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, Fraction(0)) + c * Fraction(factor)
    return _ref(out)


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = merge_monos(m1, m2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _ref(out)


def _assert_matches(poly, ref):
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    assert poly.terms == ref
    assert poly == CharPoly(ref)
    assert str(poly) == str(CharPoly(ref))


@given(coeff_maps, coeff_maps, nonzero_scalars, st.integers(min_value=0, max_value=3))
@settings(max_examples=200)
def test_coefficients_are_exact_ints_or_fractions(pmap, qmap, s, k):
    p, q = CharPoly(pmap), CharPoly(qmap)
    pr, qr = _ref(pmap), _ref(qmap)
    _assert_matches(p, pr)
    _assert_matches(p + q, _ref_add(pr, qr))
    _assert_matches(p - q, _ref_add(pr, qr, -1))
    _assert_matches(-p, _ref_add({}, pr, -1))
    scaled = _ref({key: c * Fraction(s) for key, c in pr.items()})
    _assert_matches(p.scale(s), scaled)
    _assert_matches(p * s, scaled)
    _assert_matches(s * p, scaled)
    _assert_matches(p * q, _ref_mul(pr, qr))
    _assert_matches(p / s, _ref({key: c / Fraction(s) for key, c in pr.items()}))
    power = {(): Fraction(1)}
    for _ in range(k):
        power = _ref_mul(power, pr)
    _assert_matches(p ** k, power)
    value = CharPoly.const(s).constant_value()
    assert type(value) is Fraction and value == s


def test_integer_division_stays_exact():
    quotient = CharPoly.const(5) / 6
    assert quotient == CharPoly.const(Fraction(5, 6))
    assert type(quotient.terms[()]) is Fraction
    assert type((CharPoly.const(6) / 3).terms[()]) is int
    assert type(CharPoly.const(4).constant_value()) is Fraction
    assert type(CharPoly().constant_value()) is Fraction
