from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from hilbtaut.basering import BaseClass, make_total_space_ring
from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import chern_closed_form
from hilbtaut.family import FamilyDescriptor
from hilbtaut.partitions import aut_count, enumerate_distributions
from hilbtaut.tautmod import TautClass
from hilbtaut.tensym import TensorClass, discriminant_op
from reference import block_partitions, codim_parts, distributions_up_to


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
    """Block sizes reached by uniting two blocks of mu, read off the discriminant."""
    r = make_total_space_ring(1)
    one = BaseClass.unit(r)
    out = discriminant_op(TensorClass.simple(r, [(n, one) for n in parts]))
    shapes = {}
    for key, c in out.terms.items():
        united = tuple(n for n, _ in key)
        shapes[united] = shapes.get(united, 0) + c
    return shapes


def test_weight_degree_blocks_identity():
    # the reduced diagonal of mu has codimension weight - number of blocks
    fam = FamilyDescriptor(1)
    for mu in distributions_up_to(6):
        one = BaseClass.unit(fam.total_ring)
        cls = TautClass.from_twists(fam, [(n, one) for n in mu])
        assert codim_parts(cls) == {sum(mu) - len(mu)}, mu


def test_aut_count_examples():
    assert aut_count((1,) * 5) == 120
    assert aut_count((2, 1, 1)) == 2
    assert aut_count((2, 2)) == 2
    # any order of the same sizes, from any iterable
    assert aut_count((1, 2, 1)) == 2
    assert aut_count(iter([1, 3, 1, 3, 1])) == aut_count((3, 3, 1, 1, 1)) == 12


def test_aut_count_matches_bruteforce():
    # the orderings of the blocks that keep every block size in place
    for mu in distributions_up_to(6):
        assert sum(p == mu for p in permutations(mu)) == aut_count(mu), mu


def test_bpartition_counts_against_multinomial():
    # number of b-partitions of {1..4} with one 2-block and two singletons
    assert len(block_partitions((2, 1, 1))) == 6


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
    assert set(united_shapes([1, 1, 1, 1])) == {(2, 1, 1)}
    assert set(united_shapes([2, 1, 1])) == {(3, 1), (2, 2)}
    assert set(united_shapes([3, 1])) == {(4,)}
    assert united_shapes([3]) == {}


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=6))
def test_union_conserves_weight(parts):
    shapes = united_shapes(parts)
    for united in shapes:
        assert sum(united) == sum(parts)
        assert len(united) == len(parts) - 1
    # each unordered pair of blocks is united once, with coefficient n1 * n2
    pair_sum = sum(a * b for i, a in enumerate(parts) for b in parts[i + 1 :])
    assert sum(shapes.values()) == pair_sum


def test_enumerate_distributions():
    assert enumerate_distributions(0) == [()]
    assert enumerate_distributions(3) == [(1, 1, 1), (2, 1), (3,)]
    for m in range(1, 8):
        listed = enumerate_distributions(m)
        assert len(listed) == len(set(listed)) == partition_count(m)
        assert all(sum(mu) == m and list(mu) == sorted(mu, reverse=True) for mu in listed)
    assert len(enumerate_distributions(5)) == 7
    with pytest.raises(ValueError, match="weight"):
        enumerate_distributions(-1)
