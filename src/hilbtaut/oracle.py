"""Independent brute-force checker for the unordered calculus.

The ordered model works on labeled tensors: every slot carries the set of
original positions it unites and one ring monomial.  One Gamma step is a single
pass over the input terms, writing each pair union and each interior omega
term straight into the output.  Its symmetrization must match the unordered
operators.  Coefficients stay in Python's own int/Fraction arithmetic and the
only package code borrowed is the ring's monomial product `Ring.merge`, so
nothing here is shared with the tensymmetric module it checks.  The per-pair
union the tests compare this pass against lives in tests/reference.py.
"""

from __future__ import annotations

from itertools import combinations

OMEGA = (("omega", 1),)


class OrderedTensor:
    """Q-combination of pure tensors: keys are (labels, monomials) tuples.

    Slots may be merged, in which case a parallel tuple of labels tracks which
    original positions were united (the b-partition of the diagonal locus).
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @staticmethod
    def pure(ring, classes):
        """Tensor with one BaseClass per slot, expanded multilinearly; slot i
        gets the label {i+1}."""
        combos = [((), 1)]
        for cls in classes:
            combos = [
                (monos + (mono,), c * mc)
                for monos, c in combos
                for mono, mc in cls.terms.items()
            ]
        labels = tuple(frozenset([i + 1]) for i in range(len(classes)))
        return OrderedTensor(ring, {(labels, monos): c for monos, c in combos})

    def _add(self, key, coeff):
        """Add coeff at key in place, dropping a zero sum."""
        coeff += self.terms.get(key, 0)
        if coeff:
            self.terms[key] = coeff
        else:
            self.terms.pop(key, None)


def ordered_disc(t: OrderedTensor) -> OrderedTensor:
    """Big-diagonal action on the ordered model.

    Sum over slot pairs i < j of the union (slot i takes the product of both
    monomials and both labels, slot j goes), weighted by the product of the
    slot multiplicities (the number of underlying points each slot carries),
    minus the interior omega terms with one binomial per slot.
    """
    merge = t.ring.merge
    out = OrderedTensor(t.ring)
    for (labels, monos), c in t.terms.items():
        for i, j in combinations(range(len(labels)), 2):
            prod = merge(monos[i], monos[j])
            if prod is None:
                continue
            sign, mono = prod
            out._add(
                (
                    labels[:i] + (labels[i] | labels[j],) + labels[i + 1 : j] + labels[j + 1 :],
                    monos[:i] + (mono,) + monos[i + 1 : j] + monos[j + 1 :],
                ),
                c * sign * len(labels[i]) * len(labels[j]),
            )
        for i, lab in enumerate(labels):
            n = len(lab)
            if n < 2:
                continue
            prod = merge(monos[i], OMEGA)
            if prod is None:
                continue
            sign, mono = prod
            out._add((labels, monos[:i] + (mono,) + monos[i + 1 :]), -c * sign * (n * (n - 1) // 2))
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
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}
