from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from hilbtaut.basering import BaseClass, make_total_space_ring
from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import chern_closed_form
from hilbtaut.family import FamilyDescriptor
from hilbtaut.partitions import (
    BPartition,
    Distribution,
    aut_count,
    enumerate_distributions,
)
from hilbtaut.oracle import count_block_permutations, enumerate_bpartitions
from hilbtaut.tautmod import TautClass
from hilbtaut.tensym import TensorClass, discriminant_op


def partition_count(n):
    # Euler's pentagonal-number recurrence, independent of the generator
    p = [1] + [0] * n
    for i in range(1, n + 1):
        k, sign, total = 1, 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > i and g2 > i:
                break
            if g1 <= i:
                total += sign * p[i - g1]
            if g2 <= i:
                total += sign * p[i - g2]
            k += 1
            sign = -sign
        p[i] = total
    return p[n]


def united_shapes(parts):
    """Distributions reached by uniting two blocks of mu, read off the discriminant."""
    r = make_total_space_ring(1)
    one = BaseClass.unit(r)
    out = discriminant_op(TensorClass.simple(r, [(n, one) for n in parts]))
    shapes = {}
    for key, c in out.terms.items():
        united = Distribution.from_parts(n for n, _ in key)
        shapes[united] = shapes.get(united, 0) + c
    return shapes


def test_weight_degree_blocks_identity():
    # the reduced diagonal of mu has codimension weight - number of blocks
    fam = FamilyDescriptor(1)
    for mu in enumerate_distributions(6):
        parts = mu.parts()
        one = BaseClass.unit(fam.total_ring)
        cls = TautClass.from_twists(fam, mu.weight(), [(n, one) for n in parts])
        assert cls.codim_parts() == {mu.weight() - len(parts)}, mu


def test_aut_count_examples():
    assert aut_count(Distribution.singletons(5)) == 120
    assert aut_count(Distribution.from_parts([2, 1, 1])) == 2
    assert aut_count(Distribution.from_parts([2, 2])) == 2


def test_aut_count_matches_bruteforce():
    for mu in enumerate_distributions(6):
        if mu.weight() == 0:
            continue
        bps = enumerate_bpartitions(mu.weight(), mu)
        assert bps, mu
        for bp in bps[:2]:
            assert count_block_permutations(bp.blocks) == aut_count(mu)


def test_bpartition_counts_against_multinomial():
    # number of b-partitions of {1..4} with one 2-block and two singletons
    mu = Distribution.from_parts([2, 1, 1])
    assert len(enumerate_bpartitions(4, mu)) == 6


def test_chi_values():
    # chi(mu) = prod over the blocks of (n-1)!; the closed-form Chern class puts
    # (-1)^(n-1) chi / n! = (-1)^(n-1) / n on each block of the untwisted diagonal
    fam = FamilyDescriptor(1)
    for parts, chi in [((1,) * 7, 1), ((3,), 2), ((3, 2), 2), ((4, 3), 12)]:
        total = chern_closed_form(fam, sum(parts))
        coeff = total.diag[((), tuple((n, ()) for n in parts))]
        for n in parts:
            coeff = coeff * Fraction((-1) ** (n - 1) * factorial(n))
        assert coeff == CharPoly.const(chi), parts


def test_union_blocks():
    assert set(united_shapes([1, 1, 1, 1])) == {Distribution.from_parts([2, 1, 1])}
    assert set(united_shapes([2, 1, 1])) == {
        Distribution.from_parts([3, 1]),
        Distribution.from_parts([2, 2]),
    }
    assert set(united_shapes([3, 1])) == {Distribution.from_parts([4])}
    assert united_shapes([3]) == {}


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=6))
def test_union_conserves_weight(parts):
    mu = Distribution.from_parts(parts)
    shapes = united_shapes(parts)
    for united in shapes:
        assert united.weight() == mu.weight()
        assert len(united.parts()) == len(parts) - 1
    # each unordered pair of blocks is united once, with coefficient n1 * n2
    pair_sum = sum(a * b for i, a in enumerate(parts) for b in parts[i + 1 :])
    assert sum(shapes.values()) == pair_sum


def test_enumerate_distributions():
    zero = enumerate_distributions(0)
    assert zero == [Distribution()]
    upto3 = enumerate_distributions(3)
    exactly3 = [mu for mu in upto3 if mu.weight() == 3]
    assert len(exactly3) == 3
    assert {tuple(mu.parts()) for mu in exactly3} == {(3,), (2, 1), (1, 1, 1)}
    for m in range(1, 8):
        exact = [mu for mu in enumerate_distributions(m) if mu.weight() == m]
        assert len(exact) == partition_count(m)
    # deterministic and duplicate-free
    listed = enumerate_distributions(5)
    assert listed == enumerate_distributions(5)
    assert len(listed) == len(set(listed))
    assert len([mu for mu in listed if mu.weight() == 5]) == 7


def test_bpartition_validation():
    with pytest.raises(ValueError):
        BPartition([{1, 2}, {2, 3}])
    with pytest.raises(ValueError):
        BPartition([{1}, {3}])
    bp = BPartition([{1, 3}, {2}])
    assert bp.distribution() == Distribution.from_parts([2, 1])
