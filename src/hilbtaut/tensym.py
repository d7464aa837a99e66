"""The tensymmetric algebra TS(R) and its formal diagonal/discriminant operators.

Elements are Q-combinations of block-symmetric simple tensors: for each block
size n a multiset of mu(n) ring classes.  The operators here are the purely
formal ones (no symmetrization weights): block unions with coefficient
n1 * n2, interior multiplication extended as a derivation, and the
discriminant operator assembled from them.  The geometric engine applies the
same operators with the pushforward normalization factors; this module is the
formal model and the home of the norm elements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .basering import BaseClass
from .lincomb import LinComb, add_term, fraction, mono_str
from .partitions import Distribution


def _sorted_blocks(blocks):
    return tuple(sorted(blocks, key=lambda b: (-b[0], b[1])))


class TensorClass(LinComb):
    """Q-combination of simple tensors, keyed by ((n, monomial), ...) sorted."""

    __slots__ = ("ring", "terms")
    _space = ("ring",)

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._add(key, fraction(coeff))

    def _add(self, key, coeff):
        """Add a term whose blocks may come in any order."""
        add_term(self.terms, _sorted_blocks(key), coeff)

    @staticmethod
    def zero(ring):
        return TensorClass(ring)

    @staticmethod
    def simple(ring, blocks, coeff=1):
        """Simple tensor from (size, BaseClass-or-monomial) pairs, multilinearly."""
        combos = [((), fraction(coeff))]
        for n, twist in blocks:
            if isinstance(twist, BaseClass):
                items = list(twist.terms.items())
            else:
                norm = ring.normalize_monomial(twist)
                items = [] if norm is None else [(norm[1], norm[0])]
            combos = [
                (key + ((n, mono),), c * mc) for key, c in combos for mono, mc in items
            ]
        out = TensorClass(ring)
        for key, c in combos:
            out._add(key, c)
        return out

    def component(self, mu: Distribution):
        """Part of the class lying in the mu-graded piece."""
        return self._like(
            {
                key: c
                for key, c in self.terms.items()
                if Distribution.from_parts(n for n, _ in key) == mu
            }
        )

    def weight_parts(self):
        return {sum(n for n, _ in key) for key in self.terms}

    def __repr__(self):
        if not self.terms:
            return "TensorClass(0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            body = " (x) ".join("%d:%s" % (n, mono_str(mono)) for n, mono in key)
            bits.append("(%s)[%s]" % (c, body))
        return "TensorClass(" + " + ".join(bits) + ")"


# -- projection and forgetful maps ----------------------------------------------------


def d_dagger(ring, mu: Distribution, factors) -> TensorClass:
    """Sum over all groupings of the m factors into blocks matching mu.

    `factors` is a list of m BaseClasses (the decomposable element of the m-th
    symmetric power); each grouping multiplies the factors inside every block
    in the ring.
    """
    factors = list(factors)
    m = len(factors)
    if mu.weight() != m:
        raise ValueError("weight mismatch: %d factors for %s" % (m, mu))
    out = TensorClass(ring)
    for grouping in _set_partitions_shaped(tuple(range(m)), mu.parts()):
        blocks = []
        for group in grouping:
            prod = BaseClass.unit(ring)
            for i in group:
                prod = prod * factors[i]
            blocks.append((len(group), prod))
        out.accumulate(TensorClass.simple(ring, blocks))
    return out


def _set_partitions_shaped(indices, sizes):
    """Set partitions of `indices` into unlabeled blocks of the given sizes.

    The smallest remaining index anchors its block; iterating over distinct
    block sizes for it avoids double counting among equal-size blocks.
    """
    if not sizes:
        yield ()
        return
    sizes = sorted(sizes, reverse=True)
    first = indices[0]
    seen = set()
    for pos, n in enumerate(sizes):
        if n in seen:
            continue
        seen.add(n)
        rest_sizes = sizes[:pos] + sizes[pos + 1 :]
        for others in combinations(indices[1:], n - 1):
            block = (first,) + others
            remaining = tuple(i for i in indices if i != first and i not in block)
            for rest in _set_partitions_shaped(remaining, rest_sizes):
                yield (block,) + rest


def d_forget(alpha: TensorClass):
    """Pad each n-block with n-1 unit factors: a list of factors per term.

    Returns a list of (coefficient, [BaseClass factors]) giving the image in
    the symmetric power of weight w(mu).
    """
    out = []
    for key, c in alpha.terms.items():
        factors = []
        for n, mono in key:
            factors.append(BaseClass(alpha.ring, {mono: Fraction(1)}))
            factors.extend(BaseClass.unit(alpha.ring) for _ in range(n - 1))
        out.append((c, factors))
    return out


# -- union and interior operators ------------------------------------------------------


def union_op(alpha: TensorClass, n1: int, n2: int) -> TensorClass:
    """Unite one n1-block with one n2-block, summing over all factor pairs."""
    ring = alpha.ring
    out = TensorClass(ring)
    for key, c in alpha.terms.items():
        slots = list(key)
        for i in range(len(slots)):
            for k in range(len(slots)):
                if i == k:
                    continue
                if n1 == n2 and not i < k:
                    continue
                if slots[i][0] != n1 or slots[k][0] != n2:
                    continue
                prod = ring.merge(slots[i][1], slots[k][1])
                if prod is None:
                    continue
                sign, mono = prod
                rest = [slots[t] for t in range(len(slots)) if t not in (i, k)]
                out._add(tuple(rest) + ((n1 + n2, mono),), c * sign)
    return out


def interior_mult(alpha: TensorClass, n: int, g) -> TensorClass:
    """Apply a linear map g to one factor of the n-block in all possible ways.

    `g` maps a monomial to a BaseClass (e.g. multiplication by a fixed class,
    or a symbol substitution), extended as a derivation inside the block.
    """
    ring = alpha.ring
    out = TensorClass(ring)
    for key, c in alpha.terms.items():
        slots = list(key)
        for i, (size, mono) in enumerate(slots):
            if size != n:
                continue
            image = g(mono)
            for imono, ic in image.terms.items():
                rest = slots[:i] + slots[i + 1 :]
                out._add(tuple(rest) + ((n, imono),), c * ic)
    return out


def mult_by(ring, cls: BaseClass):
    """Interior-multiplication map: monomial -> monomial * cls."""

    def g(mono):
        return BaseClass(ring, {mono: Fraction(1)}) * cls

    return g


def discriminant_op(alpha: TensorClass) -> TensorClass:
    """Sum over size pairs n1 >= n2 of n1*n2 times the block union."""
    out = TensorClass.zero(alpha.ring)
    sizes = set()
    for key in alpha.terms:
        sizes |= {n for n, _ in key}
    for n1 in sorted(sizes, reverse=True):
        for n2 in sorted(s for s in sizes if s <= n1):
            out.accumulate(union_op(alpha, n1, n2), n1 * n2)
    return out


def u_omega_total(alpha: TensorClass) -> TensorClass:
    """Sum over n of binom(n, 2) times interior multiplication by omega."""
    ring = alpha.ring
    omega = BaseClass.gen(ring, "omega")
    out = TensorClass.zero(ring)
    sizes = set()
    for key in alpha.terms:
        sizes |= {n for n, _ in key}
    for n in sizes:
        if n >= 2:
            out.accumulate(interior_mult(alpha, n, mult_by(ring, omega)), comb(n, 2))
    return out


# -- norm elements -----------------------------------------------------------------------


def norm_elem(ring, m: int, cls: BaseClass, s: int = 1) -> TensorClass:
    """The element cls^(x s) . 1^(m-s) in the trivial-distribution component."""
    if s > m:
        raise ValueError("norm power s=%d exceeds weight m=%d" % (s, m))
    blocks = [(1, cls) for _ in range(s)] + [(1, BaseClass.unit(ring)) for _ in range(m - s)]
    return TensorClass.simple(ring, blocks)


def norm_power_expand(ring, k: int, theta: str, t: int) -> TensorClass:
    """Formal expansion of the t-th power of the norm element of a section.

    Expands into the s-fold refinements with coefficients s^t - (s-1)^t and
    psi powers from the section self-intersection:
        sum_{s=1}^{min(k,t)} (s^t - (s-1)^t) (-psi)^(t-s) [k]^s(theta).
    """
    if t < 1:
        raise ValueError("t >= 1 required")
    psi = ring.psi_of[theta]
    out = TensorClass.zero(ring)
    for s in range(1, min(k, t) + 1):
        coeff = Fraction(s**t - (s - 1) ** t)
        sign = Fraction(-1) ** (t - s)
        psi_mono = ((psi, t - s),) if t > s else ()
        term = TensorClass.zero(ring)
        base = norm_elem(ring, k, BaseClass.gen(ring, theta), s)
        for key, c in base.terms.items():
            # attach the psi factor to the first theta slot
            new_key = []
            attached = False
            for n, mono in key:
                if not attached and any(name == theta for name, _ in mono):
                    norm = ring.merge(mono, psi_mono)
                    if norm is None:
                        new_key = None
                        break
                    csign, mono = norm
                    c = c * csign
                    attached = True
                new_key.append((n, mono))
            if new_key is not None:
                term._add(tuple(new_key), c)
        out.accumulate(term, coeff * sign)
    return out
