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


def enumerate_distributions(maxweight: int):
    """All distributions of weight <= maxweight as size tuples, each once.

    Ordered by weight, then lexicographically on the nonincreasing part list.
    """
    if maxweight < 0:
        raise ValueError("maxweight must be >= 0")
    out = []
    for w in range(maxweight + 1):
        out.extend(sorted(_partitions_of(w)))
    return out


def _partitions_of(n, cap=None):
    """Nonincreasing integer partitions of n as tuples."""
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return out
