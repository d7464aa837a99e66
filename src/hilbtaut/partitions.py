"""Block-size tuples (distributions) and their automorphism counts.

A distribution is the nonincreasing tuple of its block sizes, e.g. (2, 1, 1);
size n occurs mu(n) times.  Diagonal loci in the Hilbert scheme are indexed by
distributions; the ordered checker model labels the points of each block
instead, and `aut_count` is the degree that forgetting the labels divides by.
"""

from __future__ import annotations

from collections import Counter
from math import factorial


def aut_count(sizes) -> int:
    """Number of block permutations preserving a b-partition with these block sizes.

    aut(mu) = prod_n mu(n)!, for the block sizes in any order.  Equals the
    degree of the symmetrization map from the ordered polydiagonal onto the
    unordered one.
    """
    out = 1
    for k in Counter(sizes).values():
        out *= factorial(k)
    return out


def enumerate_distributions(weight: int):
    """All distributions of the given weight as size tuples, each once, in lexicographic order."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    return sorted(_partitions_of(weight, weight))


def _partitions_of(n, cap):
    """Nonincreasing integer partitions of n into parts <= cap, as tuples."""
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return out
