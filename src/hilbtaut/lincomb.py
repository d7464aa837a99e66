"""The linear-combination core shared by every container of the calculus.

Polynomials in the characters, base-ring classes, formal tensors, flag
polynomials and tautological classes are all finite linear combinations: a
map from keys to nonzero coefficients.  `LinComb` owns that map and its
additive structure once.  A container may keep several maps side by side
(the sectors of a tautological class); each is a plain dict.

A scalar coefficient is an `int` when integral and a `Fraction` otherwise
(`exact`): most coefficients are integers, and int arithmetic is far cheaper.

Coefficients are values, never mutated in place: only a container's own
dicts change, because coefficients (CharPolys, boundary payloads) are shared
by reference between containers.  The in-place operations (`add_term`,
`accumulate`) are for accumulators the calling function built itself.

Monomials, the keys of most containers, are sorted tuples of
(symbol, exponent) pairs; the raw merge and the printer for them live here
too.
"""

from __future__ import annotations

from fractions import Fraction


def exact(value):
    """The scalar `value` as a coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def add_term(terms, key, coeff):
    """Add `coeff` at `key` of the dict `terms` in place, dropping a zero sum."""
    old = terms.get(key)
    if old is not None:
        coeff = old + coeff
    if coeff:
        if type(coeff) is Fraction and coeff.denominator == 1:
            coeff = coeff.numerator
        terms[key] = coeff
    elif old is not None:
        del terms[key]


def scaled(terms, factor):
    """A new dict: every coefficient of `terms` times the nonzero `factor`."""
    out = {}
    for key, coeff in terms.items():
        coeff = coeff * factor
        if type(coeff) is Fraction and coeff.denominator == 1:
            coeff = coeff.numerator
        out[key] = coeff
    return out


class LinComb:
    """Finite linear combination: key -> nonzero coefficient, in one dict per sector.

    Subclasses name the attributes fixing the space they live on (`_space`;
    only combinations on equal spaces add) and the attributes holding their
    dicts (`_sectors`).  Keys are canonical on entry: constructors that take
    outside input normalize them, and the operations here never do again.
    The plain constructor gives the zero, and `not c` tests for it.
    """

    __slots__ = ()
    _space = ()
    _sectors = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                add_term(self.terms, key, exact(coeff))

    def _like(self, *sectors):
        """A combination on the same space holding the given canonical dicts."""
        out = object.__new__(type(self))
        for name in self._space:
            setattr(out, name, getattr(self, name))
        for i, name in enumerate(self._sectors):
            setattr(out, name, sectors[i] if sectors else {})
        return out

    def _coerce(self, other):
        return other if isinstance(other, type(self)) else NotImplemented

    def _check(self, other):
        for name in self._space:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(
                    "mixed %s spaces: %s %r vs %r"
                    % (type(self).__name__, name, getattr(self, name), getattr(other, name))
                )

    # -- in place, on the caller's own accumulators -----------------------------------

    def accumulate(self, other, factor=None):
        """Add `factor * other` (default `other`) into this combination in place."""
        self._check(other)
        if factor is not None and not factor:
            return self
        for name in self._sectors:
            terms = getattr(self, name)
            for key, coeff in getattr(other, name).items():
                add_term(terms, key, coeff if factor is None else coeff * factor)
        return self

    # -- values ----------------------------------------------------------------------

    def scale(self, factor):
        """Every coefficient times `factor` (a scalar of the coefficient ring)."""
        if not factor:
            return self._like()
        return self._like(*(scaled(getattr(self, name), factor) for name in self._sectors))

    # scaling a coefficient that is itself a combination (a boundary payload)
    # goes through `*`; containers with a ring product override it
    __mul__ = scale

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = self._like(*(dict(getattr(self, name)) for name in self._sectors))
        return out.accumulate(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = self._like(*(dict(getattr(self, name)) for name in self._sectors))
        return out.accumulate(other, -1)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._space + self._sectors
        )

    def __bool__(self):
        for name in self._sectors:
            if getattr(self, name):
                return True
        return False

    # -- monomial-keyed combinations (one sector, keys from `merge_monos`) -----------

    def __pow__(self, n):
        """The n-th power by repeated products, from the unit (the empty monomial).

        Stops once the power is zero, so a huge n of a nilpotent class is quick.
        """
        if n < 0:
            raise ValueError("negative power %d of a polynomial" % n)
        out = self._like({(): 1})
        for _ in range(n):
            if not out:
                break
            out = out * self
        return out


def expand(factors):
    """The terms of a product of combinations, multiplied out: (keys, coefficient).

    `keys` holds one key per factor, in factor order, and the coefficient is
    the product of theirs.  No factors give the unit term `((), 1)`; a zero
    factor gives no terms.
    """
    out = [((), 1)]
    for factor in factors:
        out = [(keys + (key,), c * fc) for keys, c in out for key, fc in factor.terms.items()]
    return out


# -- monomials -------------------------------------------------------------------------


def merge_monos(m1, m2):
    """Product of two monomials as a sorted tuple of (symbol, exponent) pairs."""
    powers = dict(m1)
    for name, p in m2:
        powers[name] = powers.get(name, 0) + p
    return tuple(sorted(powers.items()))


def mono_str(mono, unit="1"):
    """Text form `a*b^2` of a monomial; `unit` for the empty one."""
    return "*".join(n if p == 1 else "%s^%s" % (n, p) for n, p in mono) or unit


def format_sum(items):
    """`2*a - b + 1/2` from (monomial text, coefficient) pairs in display order.

    An empty monomial text prints the bare coefficient.
    """
    if not items:
        return "0"
    pieces = []
    for body, coeff in items:
        if not body:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(body)
        elif coeff == -1:
            pieces.append("-" + body)
        else:
            pieces.append("%s*%s" % (coeff, body))
    text = pieces[0]
    for piece in pieces[1:]:
        text += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return text
