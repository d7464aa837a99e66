"""Exact multivariate polynomials over Q, used as the value domain for characters.

Every zero-dimensional class in the calculus evaluates to a polynomial in the
numerical characters of the family (b, d, Lomega, omega2, sigma, twogm2, ...).
Characters may be bound to rational numbers or left symbolic, so the common
value type is a polynomial with exact rational coefficients (ints when
integral, Fractions otherwise: see `lincomb.exact`).
"""

from __future__ import annotations

from fractions import Fraction

from .lincomb import LinComb, add_term, format_sum, merge_monos, mono_str, scaled

# Preferred display order for the standard character symbols; everything else
# sorts alphabetically after these.
_SYMBOL_ORDER = ["b", "d", "g", "L2", "Lomega", "omega2", "sigma", "twogm2", "tauL"]


def _symbol_key(name):
    try:
        return (0, _SYMBOL_ORDER.index(name), name)
    except ValueError:
        return (1, 0, name)


class CharPoly(LinComb):
    """Polynomial in named character symbols with exact rational coefficients.

    Immutable in practice: all operations return new instances.  A monomial is
    a tuple of (symbol, exponent) pairs sorted by symbol.
    """

    __slots__ = ("terms",)

    @staticmethod
    def const(value):
        return CharPoly({(): value})

    @staticmethod
    def symbol(name):
        return CharPoly({((name, 1),): 1})

    def _coerce(self, other):
        return _coerce(other)

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self):
        """The value of a constant polynomial, always as a Fraction."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return Fraction(self.terms.get((), 0))

    # the scalar operations build the dict directly: they run once per
    # coefficient of every class the engine builds

    def scale(self, factor):
        """Every coefficient times the scalar `factor`."""
        if not factor:
            return CharPoly()
        return from_terms(scaled(self.terms, factor))

    def __add__(self, other):
        if type(other) is not CharPoly:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            add_term(terms, mono, coeff)
        return from_terms(terms)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            return self.scale(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_constant():
            return self.scale(other.terms.get((), 0))
        if self.is_constant():
            return other.scale(self.terms.get((), 0))
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_term(out, merge_monos(m1, m2), c1 * c2)
        return from_terms(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        # 1 / int would be a float
        return self.scale(1 / Fraction(scalar))

    def substitute(self, bindings):
        """Replace symbols by CharPoly/Fraction values given in `bindings`."""
        out = CharPoly()
        for mono, coeff in self.terms.items():
            # the unbound symbols stay together as one monomial
            term = CharPoly({tuple(pair for pair in mono if pair[0] not in bindings): coeff})
            for name, power in mono:
                if name in bindings:
                    term = term * (_coerce(bindings[name]) ** power)
            out.accumulate(term)
        return out

    def _sorted_terms(self):
        def mono_key(mono):
            return (len(mono), [(_symbol_key(n), -p) for n, p in mono])

        return sorted(self.terms.items(), key=lambda item: mono_key(item[0]))

    def __str__(self):
        return format_sum([(mono_str(mono, ""), c) for mono, c in self._sorted_terms()])

    def __repr__(self):
        return "CharPoly(%s)" % self


def from_terms(terms):
    """A CharPoly holding the canonical dict `terms` (nonzero exact coefficients).

    The dict is taken over, not copied: the caller built it and gives it up.
    """
    out = object.__new__(CharPoly)
    out.terms = terms
    return out


def is_symbol(name):
    """Whether `name` spells a character symbol: alphanumeric but for `_`, no leading digit."""
    return name.replace("_", "").isalnum() and not name[0].isdigit()


def split_tags(poly, tags):
    """{tag: the terms of `poly` carrying the symbol `tag`, with it removed}.

    ValueError names a term that carries not exactly one of `tags`, or one squared.
    """
    out = {}
    for mono, coeff in poly.terms.items():
        tagged = [pair for pair in mono if pair[0] in tags]
        if len(tagged) != 1 or tagged[0][1] != 1:
            raise ValueError(
                "term %s does not carry exactly one of the tags %s"
                % (mono_str(mono), ", ".join(tags))
            )
        out.setdefault(tagged[0][0], {})[tuple(p for p in mono if p != tagged[0])] = coeff
    return {tag: from_terms(terms) for tag, terms in out.items()}


def _coerce(value):
    if isinstance(value, CharPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return CharPoly.const(value)
    return NotImplemented
