"""The tensymmetric algebra TS(R) and the pair-union part of its discriminant.

Elements are Q-combinations of block-symmetric simple tensors: for each block
size n a multiset of mu(n) ring classes.  The discriminant unites each pair of
blocks with coefficient n1 * n2 and multiplies one factor of each n-block by
omega with coefficient binom(n, 2), with no symmetrization weights.  On the
singleton tensors of `oracle-check` only the union acts, so this module holds
that part alone; the tests keep the omega part as a reference.
"""

from __future__ import annotations

from itertools import combinations

from .lincomb import LinComb, add_term, exact, expand, mono_str


class TensorClass(LinComb):
    """Q-combination of simple tensors, keyed by ((n, monomial), ...) sorted."""

    __slots__ = ("ring", "terms")
    _space = ("ring",)

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._add(key, exact(coeff))

    def _add(self, key, coeff):
        """Add a term whose blocks may come in any order."""
        add_term(self.terms, tuple(sorted(key, key=lambda b: (-b[0], b[1]))), coeff)

    @staticmethod
    def simple(ring, blocks):
        """Simple tensor from (size, BaseClass) pairs, expanded multilinearly."""
        sizes = [n for n, _ in blocks]
        out = TensorClass(ring)
        for monos, c in expand([twist for _, twist in blocks]):
            out._add(tuple(zip(sizes, monos)), c)
        return out

    def __repr__(self):
        if not self.terms:
            return "TensorClass(0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            body = " (x) ".join("%d:%s" % (n, mono_str(mono)) for n, mono in key)
            bits.append("(%s)[%s]" % (c, body))
        return "TensorClass(" + " + ".join(bits) + ")"


def discriminant_op(alpha: TensorClass) -> TensorClass:
    """Unite every unordered pair of blocks, with coefficient n1 * n2."""
    ring = alpha.ring
    out = TensorClass(ring)
    for key, c in alpha.terms.items():
        for i, k in combinations(range(len(key)), 2):
            (n1, m1), (n2, m2) = key[i], key[k]
            prod = ring.merge(m1, m2)
            if prod is None:
                continue
            sign, mono = prod
            rest = key[:i] + key[i + 1 : k] + key[k + 1 :]
            out._add(rest + ((n1 + n2, mono),), c * sign * (n1 * n2))
    return out

