"""Graded commutative Q-algebras of named base symbols with built-in relations.

Three ring shapes occur:

* the ring over the total space X of the family (symbols L, omega, and a point
  class when the base is a point),
* the ring over a boundary family X^theta (adds the two marked sections
  theta_x, theta_y plus pullbacks psi_x, psi_y, tauL from the boundary base),
* the ring over the boundary base T itself (psi_x, psi_y, tauL).

Relations enforced in canonical form: theta_x * theta_y = 0, the section
self-intersection theta^r = (-psi)^(r-1) * theta, omega * theta = psi * theta,
and truncation above the dimension of the underlying space.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .lincomb import LinComb, add_term, exact, format_sum, merge_monos, mono_str


class Ring:
    """A ring instance; symbols and relations are fixed at construction.

    Every symbol has degree 1.  `base` names the symbols pulled back from the
    base of the fibration (T); the `fiber` symbols are the ring's own classes.

    `merge` and `split` are memoized by `functools.cache`, one cache per method
    for all rings, keyed by the ring and the monomials.  The constructors below
    intern their rings, one per shape and dimension, so those caches hold only
    a few rings, and every family of one base dimension shares them.
    """

    def __init__(self, label, dim, fiber, base=(), psi_of=None):
        self.label = label
        self.dim = dim  # dimension of the underlying space; higher degrees vanish
        self.base = frozenset(base)
        self.symbols = frozenset(fiber) | self.base
        # section symbol name -> its psi symbol name
        self.psi_of = dict(psi_of or {})

    @staticmethod
    def degree(mono):
        return sum(p for _, p in mono)

    @cache
    def split(self, base_mono, mono):
        """(base_mono times the pulled-back symbols of `mono`, the rest of `mono`); memoized."""
        pulled = tuple((n, p) for n, p in mono if n in self.base)
        rest = tuple((n, p) for n, p in mono if n not in self.base)
        return merge_monos(base_mono, pulled), rest

    def normalize_monomial(self, mono):
        """Canonical (sign, monomial) for a raw exponent map, or None if zero.

        The sign is the int 1 or -1, and the monomial has the degree of `mono`.
        """
        powers = {}
        for name, p in mono:
            if name not in self.symbols:
                raise KeyError("symbol %r not in ring %s" % (name, self.label))
            if p:
                powers[name] = powers.get(name, 0) + p
        sign = 1
        sections = [s for s in self.psi_of if powers.get(s)]
        if len(sections) > 1:
            return None  # disjoint sections: theta_x * theta_y = 0
        if sections:
            theta = sections[0]
            psi = self.psi_of[theta]
            # theta^r = (-psi)^(r-1) theta
            r = powers[theta]
            if r > 1:
                powers[theta] = 1
                powers[psi] = powers.get(psi, 0) + (r - 1)
                if (r - 1) % 2:
                    sign = -sign
            # omega restricted to the section is psi
            w = powers.get("omega", 0)
            if w:
                del powers["omega"]
                powers[psi] = powers.get(psi, 0) + w
        mono = tuple(sorted((n, p) for n, p in powers.items() if p))
        if self.degree(mono) > self.dim:
            return None
        return sign, mono

    @cache
    def merge(self, m1, m2):
        """Canonical (sign, monomial) of the product of two monomials, or None if zero.

        Memoized: the operators merge the same few pairs many times.  Only
        results are kept, so a symbol outside the ring raises KeyError on
        every call.
        """
        # normalize_monomial adds the exponents of repeated symbols and sorts
        return self.normalize_monomial(m1 + m2)

    def __repr__(self):
        return "Ring(%s, dim=%d)" % (self.label, self.dim)


class BaseClass(LinComb):
    """Finite Q-linear combination of canonical monomials of one ring.

    Mixed degrees are allowed (total Chern classes); graded pieces are
    extracted with `graded_part`.
    """

    __slots__ = ("ring", "terms")
    _space = ("ring",)

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                norm = ring.normalize_monomial(mono)
                if norm is not None:
                    add_term(self.terms, norm[1], norm[0] * exact(coeff))

    @staticmethod
    def unit(ring, coeff=1):
        return BaseClass(ring, {(): coeff})

    @staticmethod
    def gen(ring, name):
        return BaseClass(ring, {((name, 1),): 1})

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return BaseClass.unit(self.ring, other)
        return other if isinstance(other, BaseClass) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, BaseClass):
            return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                norm = self.ring.merge(m1, m2)
                if norm is not None:
                    add_term(out, norm[1], norm[0] * c1 * c2)
        return self._like(out)

    __rmul__ = __mul__

    def __str__(self):
        return format_sum([(mono_str(mono), c) for mono, c in sorted(self.terms.items())])

    def __repr__(self):
        return "BaseClass<%s>(%s)" % (self.ring.label, self)


@cache
def make_total_space_ring(dim_b: int) -> Ring:
    """Ring over the total space X of the family (dimension dim_b + 1).

    Over a point base the total space is one curve and carries a point class.
    """
    fiber = ("L", "omega", "pt") if dim_b == 0 else ("L", "omega")
    return Ring("X/B(dim %d)" % dim_b, dim_b + 1, fiber)


@cache
def make_boundary_ring(dim_b: int) -> Ring:
    """Ring over the normalized boundary family X^theta (dimension dim_b)."""
    return Ring(
        "X^theta",
        dim_b,
        ("L", "omega", "theta_x", "theta_y"),
        base=("psi_x", "psi_y", "tauL"),
        psi_of={"theta_x": "psi_x", "theta_y": "psi_y"},
    )


@cache
def make_node_base_ring(dim_b: int) -> Ring:
    """Ring over the boundary base T that every node shares (dimension dim_b - 1)."""
    return Ring("T", dim_b - 1, ("psi_x", "psi_y", "tauL"))
