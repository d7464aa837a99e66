from fractions import Fraction
from collections import Counter
from itertools import combinations
from math import factorial

from hilbtaut.basering import BaseClass, make_total_space_ring
from hilbtaut.oracle import OrderedTensor, symmetrize
from hilbtaut.tensym import TensorClass, discriminant_op
from reference import accumulate, block_partitions, ordered_union, u_omega_total


def ring():
    return make_total_space_ring(2)  # roomy cap so products stay visible


def gens(r):
    return BaseClass.unit(r), BaseClass.gen(r, "L"), BaseClass.gen(r, "omega")


# The lift of a list of factors to a block shape (sum over the groupings of
# the factors into blocks, each block twisted by the product of its factors) is
# what the ordered model computes: unite slots, then symmetrize.  These check
# that it lands on the TensorClass keys.


def test_d_dagger_singletons_identity():
    r = ring()
    one, L, w = gens(r)
    out = symmetrize(OrderedTensor.pure(r, [L, w, one]))
    assert out == TensorClass.simple(r, [(1, L), (1, w), (1, one)]).terms


def test_d_dagger_pair_unique_lift():
    r = ring()
    _, L, w = gens(r)
    out = symmetrize(ordered_union(OrderedTensor.pure(r, [L, w]), 0, 1))
    assert out == TensorClass.simple(r, [(2, L * w)]).terms


def test_d_dagger_three_lifts():
    # brute force: groupings of three labeled factors into a 2-block and a 1-block
    r = ring()
    _, L, w = gens(r)
    factors = [L, w, L + w]
    labels = list(range(3))
    expected = TensorClass(r)
    for pair in combinations(labels, 2):
        rest = [i for i in labels if i not in pair][0]
        expected = expected + TensorClass.simple(
            r, [(2, factors[pair[0]] * factors[pair[1]]), (1, factors[rest])]
        )
    pure = OrderedTensor.pure(r, factors)
    lifts = OrderedTensor(r)
    for i, k in combinations(labels, 2):
        accumulate(lifts, ordered_union(pure, i, k))
    assert symmetrize(lifts) == expected.terms


def test_d_dagger_after_forget_projection_factor():
    # forgetting the blocks and lifting back to the same shape multiplies by
    # the number of groupings of m labeled factors with that shape,
    # m! / (prod_n (n!)^mu(n) mu(n)!): the b-partitions of shape mu.  Frozen
    # for weight <= 5.
    frozen = {
        (1, 1, 1): 1,
        (2, 1): 3,
        (3,): 1,
        (2, 2): 3,
        (2, 1, 1): 6,
        (3, 1): 4,
        (3, 2): 10,
        (4, 1): 5,
        (2, 2, 1): 15,
    }
    for mu_parts, expected in frozen.items():
        assert len(block_partitions(mu_parts)) == expected, mu_parts
        count = factorial(sum(mu_parts))
        for n, k in Counter(mu_parts).items():
            count //= factorial(n) ** k * factorial(k)
        assert expected == count


def test_union_examples():
    r = ring()
    one, L, w = gens(r)
    # the 2-block meets each unit singleton (2 * 1), the singletons meet each other
    alpha = TensorClass.simple(r, [(2, L), (1, one), (1, one)])
    assert discriminant_op(alpha) == (
        TensorClass.simple(r, [(3, L), (1, one)]).scale(4)
        + TensorClass.simple(r, [(2, L), (2, one)])
    )
    # every pair of singletons on distinct twists, with coefficient 1 * 1
    beta = TensorClass.simple(r, [(1, L), (1, w), (1, one)])
    assert discriminant_op(beta) == (
        TensorClass.simple(r, [(2, L * w), (1, one)])
        + TensorClass.simple(r, [(2, L), (1, w)])
        + TensorClass.simple(r, [(2, w), (1, L)])
    )
    # a lone block has nothing to unite with
    assert not discriminant_op(TensorClass.simple(r, [(3, L)]))


def test_interior_mult():
    r = ring()
    one, L, w = gens(r)
    # singletons are left alone; each 2-block gets omega once
    alpha = TensorClass.simple(r, [(2, L), (1, one), (1, one)])
    assert u_omega_total(alpha) == TensorClass.simple(r, [(2, L * w), (1, one), (1, one)])
    twins = TensorClass.simple(r, [(2, L), (2, one)])
    assert u_omega_total(twins) == (
        TensorClass.simple(r, [(2, L * w), (2, one)]) + TensorClass.simple(r, [(2, L), (2, w)])
    )
    assert not u_omega_total(TensorClass.simple(r, [(1, one), (1, one)]))
    # omega times a twist already of the top degree vanishes
    top = TensorClass.simple(r, [(2, w * w * w)])
    assert top and not u_omega_total(top)


def test_discriminant_op():
    r = ring()
    one, L, w = gens(r)
    assert not discriminant_op(TensorClass.simple(r, [(1, L)]))
    pair = TensorClass.simple(r, [(1, L), (1, w)])
    assert discriminant_op(pair) == TensorClass.simple(r, [(2, L * w)])
    mixed = TensorClass.simple(r, [(2, L), (1, w)])
    assert discriminant_op(mixed) == TensorClass.simple(r, [(3, L * w)]).scale(2)
    # equal non-singleton blocks: each unordered pair once, with coefficient 2 * 2
    twins = TensorClass.simple(r, [(2, L), (2, w)])
    assert discriminant_op(twins) == TensorClass.simple(r, [(4, L * w)]).scale(4)
    triplets = TensorClass.simple(r, [(2, L), (2, one), (2, one)])
    assert discriminant_op(triplets) == (
        TensorClass.simple(r, [(4, one), (2, L)]).scale(4)
        + TensorClass.simple(r, [(4, L), (2, one)]).scale(8)
    )


def test_u_omega_total():
    r = ring()
    one, L, w = gens(r)
    assert not u_omega_total(TensorClass.simple(r, [(1, L), (1, L)]))
    assert u_omega_total(TensorClass.simple(r, [(2, L)])) == TensorClass.simple(
        r, [(2, L * w)]
    )
    assert u_omega_total(TensorClass.simple(r, [(3, L)])) == TensorClass.simple(
        r, [(3, L * w)]
    ).scale(3)


def test_weight_conservation():
    r = ring()
    one, L, w = gens(r)
    alpha = TensorClass.simple(r, [(2, L), (1, w), (1, one)])
    for out in (discriminant_op(alpha), u_omega_total(alpha)):
        assert out.terms
        for key in out.terms:
            assert sum(n for n, _ in key) == 4, key


def test_linearity():
    r = ring()
    one, L, w = gens(r)
    a = TensorClass.simple(r, [(2, L), (1, one)])
    b = TensorClass.simple(r, [(2, w), (1, L)])
    combo = a.scale(Fraction(2, 3)) + b.scale(-5)
    assert discriminant_op(combo) == discriminant_op(a).scale(Fraction(2, 3)) + (
        discriminant_op(b).scale(-5)
    )
    assert u_omega_total(combo) == u_omega_total(a).scale(Fraction(2, 3)) + (
        u_omega_total(b).scale(-5)
    )
