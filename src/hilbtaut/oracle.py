"""Independent brute-force checkers for the unordered calculus.

The ordered model works on plain tensors (lists of ring classes) with the
big-diagonal action as a sum of pair unions minus interior omega terms; its
symmetrization must match the unordered operators.  Everything here is coded
directly on lists, sharing nothing with the tensymmetric module it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class OrderedTensor:
    """Q-combination of pure tensors: keys are tuples of slot monomials.

    Slots may be merged, in which case a parallel tuple of labels tracks which
    original positions were united (the b-partition of the diagonal locus).
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = dict(terms or {})
        self.terms = {k: c for k, c in self.terms.items() if c}

    @staticmethod
    def pure(ring, classes):
        """Tensor with one BaseClass per slot, expanded multilinearly."""
        combos = [((), Fraction(1))]
        for cls in classes:
            combos = [
                (key + ((frozenset([len(key) + 1]), mono),), c * mc)
                for key, c in combos
                for mono, mc in cls.terms.items()
            ]
        # relabel: slot i gets label {i+1}
        out = OrderedTensor(ring)
        for key, c in combos:
            labels = tuple(frozenset([i + 1]) for i in range(len(key)))
            monos = tuple(mono for _, mono in key)
            out._add((labels, monos), c)
        return out

    def _add(self, key, coeff):
        if not coeff:
            return
        self.terms[key] = self.terms.get(key, Fraction(0)) + coeff
        if not self.terms[key]:
            del self.terms[key]

    def accumulate(self, other, factor=1):
        """Add factor * other into this tensor in place; returns self."""
        for key, c in other.terms.items():
            self._add(key, c * factor)
        return self


def ordered_union(t: OrderedTensor, i: int, j: int) -> OrderedTensor:
    """Unite slots i < j (0-based) by ring multiplication."""
    out = OrderedTensor(t.ring)
    for (labels, monos), c in t.terms.items():
        prod = t.ring.merge(monos[i], monos[j])
        if prod is None:
            continue
        sign, mono = prod
        new_labels = tuple(
            lab | labels[j] if k == i else lab
            for k, lab in enumerate(labels)
            if k != j
        )
        new_monos = tuple(
            mono if k == i else m for k, m in enumerate(monos) if k != j
        )
        out._add((new_labels, new_monos), c * sign)
    return out


def ordered_disc(t: OrderedTensor) -> OrderedTensor:
    """Big-diagonal action on the ordered model.

    Sum over slot pairs of the union, weighted by the product of the slot
    multiplicities (the number of underlying points each slot carries), minus
    the interior omega terms with one binomial per slot.
    """
    ring = t.ring
    omega_mono = (("omega", 1),)
    out = OrderedTensor(ring)
    for (labels, monos), c in t.terms.items():
        k = len(labels)
        base = OrderedTensor(ring, {(labels, monos): c})
        for i, j in combinations(range(k), 2):
            ni, nj = len(labels[i]), len(labels[j])
            out.accumulate(ordered_union(base, i, j), ni * nj)
        for i in range(k):
            n = len(labels[i])
            if n < 2:
                continue
            prod = ring.merge(monos[i], omega_mono)
            if prod is None:
                continue
            sign, mono = prod
            out._add(
                (labels, monos[:i] + (mono,) + monos[i + 1 :]),
                -c * sign * Fraction(n * (n - 1), 2),
            )
    return out


def symmetrize(t: OrderedTensor):
    """Push an ordered tensor to the unordered model: canonical block keys.

    Returns a dict mapping ((n, monomial), ...) sorted keys to coefficients;
    labels are forgotten, so equivalent orderings accumulate.
    """
    out = {}
    for (labels, monos), c in t.terms.items():
        key = tuple(sorted(((len(lab), mono) for lab, mono in zip(labels, monos)),
                           key=lambda b: (-b[0], b[1])))
        out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}
