"""The memos that every family of one base dimension shares do not change results.

Rings are interned per shape and dimension, and the monomial products, key
splits, pullbacks, scroll divisors and the per-key table of the discriminant
action are memoized per ring: a family reads what another family left there.
The shape memo holds whole classes per total-space ring and node flag, built
on a stand-in family, which each call binds to its own family.
The rank-3 memo, holding the tagged flag polynomial of the Chern numbers and
c1 c2 - c3, is built once per process for every family.  Results computed
from empty caches must equal those computed after a family with other
characters and other nodes has filled them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbtaut import basering, chern, tautmod
from hilbtaut.basering import BaseClass, Ring
from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import (
    chern_class_on_hilb,
    chern_numbers_w3,
    double_point_class,
    single_curve_trisecant_formula,
    single_curve_trisecant_scroll,
    trisecant_count,
)
from hilbtaut.family import FamilyDescriptor, Node
from hilbtaut.tautmod import gamma_power, integrate, to_data
from hilbtaut.transfer import transfer
from reference import chern_numbers_per_monomial

RING_CONSTRUCTORS = [
    basering.make_total_space_ring,
    basering.make_boundary_ring,
    basering.make_node_base_ring,
]
PER_RING_MEMOS = [
    Ring.merge,
    Ring.split,
    tautmod.phi_star,
    tautmod.scroll_divisor,
    tautmod._minus_divisor_pair,
    tautmod._gamma_table,
]
MEMOS = PER_RING_MEMOS + [tautmod._shape_memo]


def outputs(fam):
    """Serialized results of the operators that read the shared memos, on `fam`."""
    power = gamma_power(fam, 4, 4 + fam.dim_b)
    ring = fam.total_ring
    beta = BaseClass.unit(ring) + BaseClass.gen(ring, "L") - BaseClass.gen(ring, "omega")
    return {
        "gamma_power": to_data(power),
        "integral": str(integrate(power)),
        "chern": to_data(chern_class_on_hilb(fam, 4)),
        # three Gamma steps give scroll and section terms to transfer
        "transfer": to_data(transfer(gamma_power(fam, 3, 3), beta)),
    }


@pytest.mark.parametrize("dim_b", [1, 2])
def test_memos_warmed_by_another_family_give_the_same_results(dim_b):
    tau = 0 if dim_b == 1 else None
    fam = FamilyDescriptor(dim_b, chars={"d": 3, "b": 2}, nodes=[Node("s", 1, tau_L=tau)])
    other = FamilyDescriptor(
        dim_b,
        chars={"d": 7, "omega2": -5, "twogm2": 4},
        nodes=[Node("p", 2, tau_L=tau), Node("q", 3, tau_L=tau)],
    )
    for cached in RING_CONSTRUCTORS + MEMOS:
        cached.cache_clear()
    cold = outputs(fam)
    assert other.total_ring is fam.total_ring
    outputs(other)
    hits = tautmod._shape_memo.cache_info().hits
    assert outputs(fam) == cold
    assert tautmod._shape_memo.cache_info().hits > hits
    # with the shape memo cleared, each class is built again on the stand-in,
    # from the per-ring memos that the earlier calls filled
    tautmod._shape_memo.cache_clear()
    hits = [memo.cache_info().hits for memo in PER_RING_MEMOS]
    assert outputs(fam) == cold
    assert all(memo.cache_info().hits > h for memo, h in zip(PER_RING_MEMOS, hits))


RANK3_MEMOS = [chern._rank3]


def rank3_outputs(fam):
    """The rank-3 Chern numbers and trisecant count on `fam`, as values and text."""
    numbers = chern_numbers_w3(fam)
    count = trisecant_count(fam)
    return numbers, count, {name: str(v) for name, v in numbers.items()}, str(count)


def test_rank3_memos_warmed_by_other_families_give_the_same_results():
    fam = FamilyDescriptor(1, chars={"d": 3, "b": 2}, nodes=[Node("s", 1, tau_L=0)])
    other = FamilyDescriptor(
        1, chars={"d": 7, "omega2": -5, "twogm2": 4}, nodes=[Node("p", 2), Node("q", 3)]
    )
    tagged = FamilyDescriptor(1, chars={"d": CharPoly.symbol("#c1^4")})
    for cached in RANK3_MEMOS:
        cached.cache_clear()
    cold = rank3_outputs(fam)
    rank3_outputs(other)
    with pytest.raises(ValueError, match="does not carry exactly one of the tags"):
        chern_numbers_w3(tagged)
    assert single_curve_trisecant_scroll({"d": 4}) == single_curve_trisecant_formula({"d": 4})
    assert rank3_outputs(fam) == cold
    assert all(memo.cache_info().hits > 0 for memo in RANK3_MEMOS)
    assert chern_numbers_w3(fam) == chern_numbers_per_monomial(fam)


@st.composite
def shaped_calls(draw):
    """(family, [(decorated entry point, arguments)]): dim_b 1-2, 0-3 nodes.

    Weights are numeric or symbolic, and theta^*L is unbound, 0 or 3.
    """
    dim_b = draw(st.integers(1, 2))
    chars = {"d": 3, "b": Fraction(1, 2)} if draw(st.booleans()) else {}
    nodes = [
        Node(
            "n%d" % i,
            draw(st.sampled_from([1, Fraction(2, 3), CharPoly.symbol("w%d" % i)])),
            tau_L=draw(st.sampled_from([None, 0, 3])),
        )
        for i in range(draw(st.integers(0, 3)))
    ]
    m = draw(st.integers(1, 4))
    calls = [
        (gamma_power, (m, draw(st.integers(0, m + dim_b)))),
        (chern_class_on_hilb, (draw(st.integers(1, 3)),)),
        (double_point_class, (draw(st.integers(0, 4)),)),
        (chern._rank3_push, ()),
    ]
    return FamilyDescriptor(dim_b, chars=chars, nodes=nodes), calls


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shaped_calls())
def test_the_shape_memo_binds_what_the_family_itself_gives(case):
    fam, calls = case
    # another family of the same shape fills the memo first
    other = FamilyDescriptor(
        fam.dim_b,
        chars={"d": 7, "omega2": -5},
        nodes=[Node("p", 5), Node("q", CharPoly.symbol("v"))] if fam.nodes else [],
    )
    for fn, args in calls:
        fn(other, *args)
        hits = tautmod._shape_memo.cache_info().hits
        got = fn(fam, *args)
        assert tautmod._shape_memo.cache_info().hits == hits + 1
        want = fn.__wrapped__(fam, *args)
        assert got == want
        assert to_data(got) == to_data(want)
        # the caller owns every dict it is given: the next call is unchanged
        got.accumulate(got)
        for sector in (got.scroll, got.section):
            for payload in sector.values():
                payload.accumulate(payload)
        assert fn(fam, *args) == want


@pytest.mark.parametrize(
    "fn, args, at, what",
    [
        (gamma_power, (1, 2), 0, "m"),
        (gamma_power, (1, 2), 1, "k"),
        (chern_class_on_hilb, (1,), 0, "flag length"),
        (double_point_class, (1,), 0, "n"),
    ],
    ids=["gamma_power-m", "gamma_power-k", "chern_class_on_hilb", "double_point_class"],
)
@pytest.mark.parametrize("bad", [True, 1.0, [1]], ids=["bool", "float", "list"])
def test_a_warm_shape_memo_still_checks_each_argument(fn, args, at, what, bad):
    # a bool or a float equal to a cached argument, or an unhashable one, is
    # refused before the memo lookup, with the undecorated entry's message
    fam = FamilyDescriptor(1, nodes=[Node("s", 1)])
    fn(fam, *args)
    args = args[:at] + (bad,) + args[at + 1 :]
    with pytest.raises(ValueError, match="%s must be an integer" % what):
        fn(fam, *args)


def test_a_warm_rank3_push_still_checks_the_base():
    chern_numbers_w3(FamilyDescriptor(1, nodes=[Node("s", 1)]))
    for count in (chern_numbers_w3, trisecant_count):
        with pytest.raises(ValueError, match="needs a 1-dimensional base, got dim_b = 2"):
            count(FamilyDescriptor(2, nodes=[Node("s", 1)]))
