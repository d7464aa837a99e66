"""The memos that every family of one base dimension shares do not change results.

Rings are interned per shape and dimension, and the monomial products, key
splits, pullbacks, scroll divisors and the per-key table of the discriminant
action are memoized per ring: a family reads what another family left there.
The rank-3 memo, holding the tagged flag polynomial of the Chern numbers and
c1 c2 - c3, is built once per process for every family.  Results computed
from empty caches must equal those computed after a family with other
characters and other nodes has filled them.
"""

import pytest

from hilbtaut import basering, chern, tautmod
from hilbtaut.basering import BaseClass, Ring
from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import (
    chern_class_on_hilb,
    chern_numbers_w3,
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
MEMOS = [
    Ring.merge,
    Ring.split,
    tautmod.phi_star,
    tautmod.scroll_divisor,
    tautmod._minus_divisor_pair,
    tautmod._gamma_table,
]


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
    hits = [memo.cache_info().hits for memo in MEMOS]
    assert outputs(fam) == cold
    assert all(memo.cache_info().hits > h for memo, h in zip(MEMOS, hits))


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
