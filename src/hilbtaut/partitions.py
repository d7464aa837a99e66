"""Distributions (partitions as block-size multiplicity functions) and b-partitions.

A distribution records how many blocks of each size a partition has: size n
occurs mult[n] times.  Diagonal loci in the Hilbert scheme are indexed by
distributions; the ordered checker model uses labelled b-partitions instead.
"""

from __future__ import annotations

from math import factorial


class Distribution:
    """Immutable multiplicity function n -> number of blocks of size n (n >= 1)."""

    __slots__ = ("mult",)

    def __init__(self, mult=()):
        if isinstance(mult, dict):
            items = mult.items()
        else:
            items = mult
        clean = {}
        for n, k in items:
            n = int(n)
            k = int(k)
            if n < 1:
                raise ValueError("block size must be positive, got %d" % n)
            if k < 0:
                raise ValueError("multiplicity must be nonnegative, got %d" % k)
            if k:
                clean[n] = clean.get(n, 0) + k
        self.mult = tuple(sorted(clean.items(), reverse=True))

    @staticmethod
    def from_parts(parts):
        """Build from explicit block sizes, e.g. [2, 1, 1]."""
        counts = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        return Distribution(counts)

    @staticmethod
    def singletons(m):
        """The trivial distribution 1^m."""
        return Distribution({1: m} if m else {})

    def parts(self):
        """Nonincreasing list of block sizes."""
        out = []
        for n, k in self.mult:
            out.extend([n] * k)
        return out

    def get(self, n):
        for size, k in self.mult:
            if size == n:
                return k
        return 0

    def weight(self):
        return sum(n * k for n, k in self.mult)

    def remove_block(self, n):
        """Distribution with one n-block removed, or None if absent."""
        if self.get(n) == 0:
            return None
        d = dict(self.mult)
        d[n] -= 1
        return Distribution(d)

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.mult == other.mult

    def __hash__(self):
        return hash(self.mult)

    def __lt__(self, other):
        return self.parts() < other.parts()

    def __repr__(self):
        return "Distribution(%r)" % (self.parts(),)

    def __str__(self):
        if not self.mult:
            return "()"
        return "(" + ",".join(str(p) for p in self.parts()) + ")"


class BPartition:
    """Ordered block partition of {1..m}: disjoint nonempty blocks covering all."""

    __slots__ = ("blocks", "m")

    def __init__(self, blocks):
        blocks = tuple(frozenset(b) for b in blocks)
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("blocks are not disjoint")
            seen |= b
        if seen and seen != set(range(1, max(seen) + 1)):
            raise ValueError("blocks must cover {1..m}")
        self.blocks = blocks
        self.m = len(seen)

    def distribution(self):
        return Distribution.from_parts(len(b) for b in self.blocks)

    def __eq__(self, other):
        return isinstance(other, BPartition) and sorted(map(sorted, self.blocks)) == sorted(
            map(sorted, other.blocks)
        )

    def __repr__(self):
        return "BPartition(%r)" % ([sorted(b) for b in self.blocks],)


def aut_count(mu: Distribution) -> int:
    """Number of block permutations preserving a b-partition of shape mu.

    Equals the degree of the symmetrization map from the ordered polydiagonal
    onto the unordered one.
    """
    out = 1
    for _, k in mu.mult:
        out *= factorial(k)
    return out


def enumerate_distributions(maxweight: int):
    """All distributions of weight <= maxweight, each once, deterministic order.

    Ordered by weight, then lexicographically on the nonincreasing part list.
    """
    if maxweight < 0:
        raise ValueError("maxweight must be >= 0")
    out = []
    for w in range(maxweight + 1):
        out.extend(sorted(_partitions_of(w)))
    return [Distribution.from_parts(p) for p in out]


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
