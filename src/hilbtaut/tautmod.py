"""The tautological module of a Hilbert scheme and the discriminant action.

Classes of Hilbert degree m are stored in three sectors:

* diagonal terms: twisted polyblock diagonal classes, indexed by a
  distribution together with one twisting monomial per block (plus a monomial
  pulled back from the base);
* node scroll terms F^{n,m}_j(theta)[P], indexed by (node_id, n, j) with a
  payload P of degree m-n on the boundary family that every node shares;
* node section terms (-Gamma) . F^{n,m}_j(theta)[P], same index shape.

Normalization of the diagonal sector: the stored coefficient of a key is the
coefficient of the class obtained by pushing the ordered twisted polydiagonal
down the symmetrization map and dividing by its degree aut(mu).  With this
normalization the untwisted key is the reduced class of the diagonal locus.

Multiplication by the discriminant polarization acts by

* uniting block pairs, with the combinatorial factor
  n1 * n2 * aut(united mu) / aut(mu) per pair of blocks; identical blocks
  are united once, times their number of index pairs,
* interior multiplication by -omega with binomial(n, 2) in each block,
* a boundary term per node and per block of size n >= 2, with multiplicity
  nu(n, j) = j (n-j) n / 2 on the scroll F^{n,m}_j, weight 1/mult(n), and the
  block's twist evaluated through the node section;

on scrolls it is minus a node section, and on node sections it expands
through the polarized rank-2 structure of the scroll with the classes
e^n_j = binom(n-j+1,2) psi_x + binom(j,2) psi_y
       - (n-j+1) [m-n]_* theta_x - j [m-n]_* theta_y - Gamma^(m-n).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache, wraps
from math import comb
from types import MappingProxyType

from .basering import BaseClass, make_boundary_ring
from .charpoly import CharPoly, from_terms, is_symbol
from .family import FamilyDescriptor, Node, checked_int, fiber_integral, theta_star
from .lincomb import LinComb, add_term, exact, expand, merge_monos, mono_str, scaled
from .partitions import aut_count


class TautClass(LinComb):
    """Formal tautological class of Hilbert degree m on a family's Hilbert scheme."""

    __slots__ = ("fam", "m", "diag", "scroll", "section")
    _space = ("fam", "m")
    _sectors = ("diag", "scroll", "section")

    def __init__(self, fam: FamilyDescriptor, m: int):
        self.fam = fam
        self.m = m
        self.diag = {}  # (base_mono, blocks) -> CharPoly
        self.scroll = {}  # (node_id, n, j) -> payload TautClass
        self.section = {}  # (node_id, n, j) -> payload TautClass

    # -- bookkeeping -----------------------------------------------------------

    @property
    def ring(self):
        return self.fam.total_ring

    def add_diag(self, base_mono, blocks, coeff):
        """Add an outside term: sort and weigh its blocks, drop it above top codimension."""
        if not coeff:
            return
        blocks = tuple(sorted(blocks, key=_block_order))
        if sum(n for n, _ in blocks) != self.m:
            raise ValueError("blocks of weight %s in degree-%d class" % (blocks, self.m))
        base_mono = tuple(sorted(base_mono))
        if _diag_codim(self.m, base_mono, blocks) > _top(self.ring, self.m):
            return
        if not isinstance(coeff, CharPoly):
            coeff = CharPoly.const(coeff)
        add_term(self.diag, (base_mono, blocks), coeff)

    def add_node(self, sector, node_id, n, j, payload):
        """Add an outside F^{n,m}_j(node)[payload] to "scroll" or "section"; check node, n, j."""
        if not (2 <= n <= self.m and 1 <= j <= n - 1):
            raise ValueError("bad scroll index n=%d j=%d for m=%d" % (n, j, self.m))
        add_term(getattr(self, sector), (self.fam.node(node_id).node_id, n, j), payload)

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def fundamental(fam, m):
        out = TautClass(fam, m)
        out.add_diag((), tuple((1, ()) for _ in range(m)), 1)
        return out

    @staticmethod
    def from_twists(fam, pairs, base=None):
        """Diagonal class with per-block BaseClass twists, expanded multilinearly.

        `pairs` lists (block size, BaseClass) entries, whose sizes sum to the
        degree; `base` is an optional BaseClass of pulled-back factors.
        """
        out = TautClass(fam, sum(n for n, _ in pairs))
        out.diag = _twisted_diag(fam.total_ring, pairs, base)
        return out

    # -- inspection ----------------------------------------------------------------

    def render(self):
        """Human-readable text form."""
        pieces = []
        for (base_mono, blocks), c in sorted(self.diag.items()):
            parts = ",".join(str(n) for n, _ in blocks)
            twists = ", ".join(mono_str(mono) for _, mono in blocks)
            body = "Gamma_(%s)[%s]" % (parts, twists)
            if base_mono:
                body = "%s*%s" % (mono_str(base_mono), body)
            pieces.append("(%s)*%s" % (c, body))
        for sector, prefix in (("scroll", ""), ("section", "(-Gamma).")):
            for (node_id, n, j), p in sorted(getattr(self, sector).items()):
                body = "F^{%d,%d}_%d(%s)[%s]" % (n, self.m, j, node_id, p.render())
                pieces.append(prefix + body)
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return "TautClass(m=%d: %s)" % (self.m, self.render())


def _block_order(block):
    """Sort key of a block: size down, then twist."""
    return -block[0], block[1]


def _top(ring, m):
    """Top codimension m + dim_b on Hilb^m of a family with total-space ring `ring`.

    Every family's total space has dimension dim_b + 1 = `ring.dim`.
    """
    return m + ring.dim - 1


def _diag_codim(m, base_mono, blocks):
    """Codimension on Hilb^m of the diagonal key (base_mono, blocks)."""
    d = m - len(blocks)  # the sum of n - 1 over blocks that weigh m
    for _, p in base_mono:
        d += p
    for _, mono in blocks:
        for _, p in mono:
            d += p
    return d


def _rekeyed(ring, base_mono, rest, n, block_mono, mono):
    """(sign, key) with block (n, block_mono * mono) put into `rest`; sign 0 if it vanishes."""
    prod = ring.merge(block_mono, mono)
    if prod is None:
        return 0, None
    sign, merged = prod
    new_base, fiber = ring.split(base_mono, merged)
    i = bisect_left(rest, (-n, fiber), key=_block_order)
    return sign, (new_base, rest[:i] + ((n, fiber),) + rest[i:])


def _twisted_diag(ring, pairs, base=None):
    """The diagonal sector of `from_twists` on `ring`: canonical key -> CharPoly.

    Keys are sorted and a term above top codimension drops, as `add_diag`
    does for outside input.
    """
    m = sum(n for n, _ in pairs)
    top = _top(ring, m)
    factors = [twist for _, twist in pairs] + ([] if base is None else [base])
    terms = {}
    for monos, c in expand(factors):
        base_mono = () if base is None else monos[-1]
        blocks = []
        for (n, _), mono in zip(pairs, monos):
            # move pulled-back symbols out of the slots
            base_mono, fiber = ring.split(base_mono, mono)
            blocks.append((n, fiber))
        blocks = tuple(sorted(blocks, key=_block_order))
        if _diag_codim(m, base_mono, blocks) <= top:
            add_term(terms, (base_mono, blocks), c)
    return {key: CharPoly.const(c) for key, c in terms.items()}


def _runs(blocks):
    """(first index, length) of each run of identical blocks, adjacent in a key."""
    return [(i, blocks.count(b)) for i, b in enumerate(blocks) if not i or b != blocks[i - 1]]


def _coeff_data(c: CharPoly):
    return sorted(
        [[[name, p] for name, p in mono], str(value)] for mono, value in c.terms.items()
    )


def _coeff_from_data(data):
    pairs = [_listed(pair, "coefficient pair") for pair in _listed(data, "coefficient")]
    terms = {_mono_from_data(mono): _rational_from_data(value) for mono, value in pairs}
    if not terms:
        raise ValueError("empty coefficient")
    if len(terms) != len(data):
        raise ValueError("coefficient %r repeats a monomial" % (data,))
    return CharPoly(terms)


def _rational_from_data(text):
    """A nonzero rational in the text `to_data` writes: `str` of a reduced Fraction."""
    if type(text) is str:
        value = Fraction(text)
        if value and str(value) == text:
            return value
    raise ValueError("coefficient %r is not a nonzero rational in lowest terms" % (text,))


def to_data(tc: TautClass):
    """Canonical nested-list serialization (deterministic, round-trippable)."""
    diag = []
    for (base_mono, blocks), c in sorted(tc.diag.items()):
        diag.append(
            {
                "base": [[n, p] for n, p in base_mono],
                "blocks": [[n, [[s, p] for s, p in mono]] for n, mono in blocks],
                "coeff": _coeff_data(c),
            }
        )
    out = {"m": tc.m, "diag": diag, "scroll": [], "section": []}
    for sector in ("scroll", "section"):
        for (node_id, n, j), payload in sorted(getattr(tc, sector).items()):
            out[sector].append(
                {"node": node_id, "n": n, "j": j, "payload": to_data(payload)}
            )
    return out


def from_data(fam: FamilyDescriptor, data) -> TautClass:
    """Rebuild a class from its serialization, on the given family.

    Raises ValueError on anything `to_data` does not write.
    """
    m, diag, scroll, section = _fields(data, "class", ("m",) + TautClass._sectors)
    tc = TautClass(fam, checked_int(m, 0, "m"))
    ring = tc.ring
    for term in _listed(diag, "sector diag"):
        base_data, blocks_data, coeff = _fields(term, "diagonal term", ("base", "blocks", "coeff"))
        base = _mono_from_data(base_data, ring.base)
        blocks = []
        for n, twist_data in _listed(blocks_data, "block list"):
            mono = _mono_from_data(twist_data, ring.symbols - ring.base)
            if ring.normalize_monomial(mono) != (1, mono):
                raise ValueError("twist %s is not canonical in %s" % (mono_str(mono), ring.label))
            blocks.append((checked_int(n, 1, "block size"), mono))
        tc.add_diag(base, blocks, _coeff_from_data(coeff))
    for sector, terms in (("scroll", scroll), ("section", section)):
        for term in _listed(terms, "sector " + sector):
            node_id, n, j, payload = _fields(term, "node term", ("node", "n", "j", "payload"))
            n = checked_int(n, 2, "scroll size n")
            payload = from_data(fam.boundary_family(), payload)
            if payload.m != tc.m - n:
                raise ValueError("payload of degree %d on F^{%d,%d}" % (payload.m, n, tc.m))
            tc.add_node(sector, node_id, n, checked_int(j, 1, "scroll index j"), payload)
    return tc


def _fields(data, what, keys):
    """The values at `keys` of the `what` object `data`, which holds no other key."""
    if type(data) is not dict:
        raise ValueError("%s is a %s, not an object" % (what, type(data).__name__))
    for key in sorted(set(data) ^ set(keys), key=str):
        raise ValueError("%s has %s key %r" % (what, "no" if key in keys else "the unknown", key))
    return [data[key] for key in keys]


def _listed(data, what):
    """`data` if it is a list; else a ValueError naming `what`."""
    if type(data) is not list:
        raise ValueError("%s is a %s, not a list" % (what, type(data).__name__))
    return data


def _mono_from_data(data, symbols=None):
    """A monomial [[name, exponent], ...]: names sorted, distinct, `is_symbol`, in `symbols`."""
    mono = tuple((name, checked_int(p, 1, "exponent")) for name, p in _listed(data, "monomial"))
    for name, _ in mono:
        if not (isinstance(name, str) and is_symbol(name) and (symbols is None or name in symbols)):
            raise ValueError("symbol %r not allowed in %r" % (name, data))
    if mono != tuple(sorted(dict(mono).items())):
        raise ValueError("monomial %r is not canonical" % (data,))
    return mono


# -- the discriminant action -------------------------------------------------------


def nu_coeff(n, j):
    """Exceptional multiplicity of the j-th scroll component for an n-fold point.

    An integer: j (n - j) is even when n is odd.
    """
    return j * (n - j) * n // 2


def gamma_action(tc: TautClass) -> TautClass:
    """Multiply a tautological class by the discriminant polarization."""
    fam, m, ring = tc.fam, tc.m, tc.ring
    out = TautClass(fam, m)
    diag = {}  # owned accumulator: key -> {character monomial: scalar}

    nodes = bool(fam.nodes)
    for key, coeff in tc.diag.items():
        moves, templates = _gamma_table(ring, key, nodes)
        for new_key, factor in moves:
            _add_scaled(diag, new_key, coeff, factor)
        # one payload on the shared boundary family per template, scaled per
        # node by its weight and by the template's multiplicity per j
        for n, payload_diag, nus in templates:
            payload = TautClass(fam.boundary_family(), m - n)
            payload.diag = payload_diag  # the table's view: only `scale`d copies leave
            for node in fam.nodes:
                weighted = coeff * node.weight
                for j, nu in nus:
                    add_term(out.scroll, (node.node_id, n, j), payload.scale(weighted * nu))
    out.diag = _finished(diag)

    # scrolls: Gamma . F = -((-Gamma) . F)
    for key, payload in tc.scroll.items():
        add_term(out.section, key, -payload)

    # sections: Gamma . (-Gamma)F[P] = -(-Gamma)^2 F[P]
    #         = -(-Gamma)F[(e_j + e_{j+1}) P] + F[e_j e_{j+1} P]
    # with e_i = D_i - Gamma: -(e_j + e_{j+1}) P = -(D_j + D_{j+1}) P + 2 Gamma P
    for key, payload in tc.section.items():
        _, n, j = key
        ring = payload.ring
        divisors = [_minus_divisor_pair(ring, n, j), scroll_divisor(ring, n, j + 1)]
        minus_sum_p, ej1_p = twists(payload, divisors, (2, -1))
        add_term(out.section, key, minus_sum_p)
        add_term(out.scroll, key, twists(ej1_p, [scroll_divisor(ring, n, j)], (-1,))[0])
    return out


def _add_scaled(acc, key, coeff, factor):
    """Add the CharPoly `coeff` times the scalar `factor` at `key` of `acc`.

    `acc` is an operator's own accumulator, key -> {monomial: scalar}, which
    `_finished` turns into CharPolys once: no CharPoly is built per term.
    """
    terms = acc.get(key)
    if terms is None:
        terms = acc[key] = {}
    for mono, c in coeff.terms.items():
        add_term(terms, mono, c * factor)


def _finished(acc):
    """The diagonal sector held by the accumulator `acc` of `_add_scaled`."""
    return {key: from_terms(terms) for key, terms in acc.items() if terms}


@lru_cache(maxsize=512)
def _gamma_table(ring, key, nodes):
    """Gamma on the diagonal key `key` of a class on `ring`, per unit coefficient; memoized.

    Returns (moves, templates).  `moves` lists the (new key, scalar) pairs of
    the block unions and the interior -omega terms.  `templates` lists one
    (n, payload diagonal sector, [(j, nu scalar), ...]) per distinct block
    of size n >= 2 with a node image: the boundary payload on the boundary
    family's ring and its scroll multiplicities; it is empty unless `nodes`
    says the family has nodes.  Nothing here reads a family, so every family
    of one base dimension shares the table.  It is bounded, because deep
    Gamma powers meet most keys only a few times.
    """
    base_mono, blocks = key
    m = sum(n for n, _ in blocks)
    mult = Counter(n for n, _ in blocks)
    runs = _runs(blocks)
    moves = []
    # the union and interior terms have codimension one more than the key
    if _diag_codim(m, base_mono, blocks) < _top(ring, m):
        # unite pairs of blocks: each distinct pair once, times its number of index pairs
        for a, (i, c) in enumerate(runs):
            for k, c2 in runs[a:]:
                if k == i:  # the block taken twice
                    index_pairs, k = comb(c, 2), i + 1
                else:
                    index_pairs = c * c2
                if not index_pairs:
                    continue
                (n1, mono1), (n2, mono2) = blocks[i], blocks[k]
                rest = blocks[:i] + blocks[i + 1 : k] + blocks[k + 1 :]
                sign, new_key = _rekeyed(ring, base_mono, rest, n1 + n2, mono1, mono2)
                if not sign:
                    continue
                # aut(united) / aut(mu); mult[n2] drops by one once the n1 block is gone
                num = index_pairs * sign * n1 * n2 * (mult[n1 + n2] + 1)
                moves.append((new_key, exact(Fraction(num, mult[n1] * (mult[n2] - (n1 == n2))))))
        # interior multiplication by omega within each block
        for i, c in runs:
            n, mono = blocks[i]
            if n < 2:
                continue
            rest = blocks[:i] + blocks[i + 1 :]
            sign, new_key = _rekeyed(ring, base_mono, rest, n, mono, (("omega", 1),))
            if sign:
                moves.append((new_key, -sign * comb(n, 2) * c))
    templates = []
    if nodes:
        bd_ring = make_boundary_ring(ring.dim - 1)  # the family's dim_b is ring.dim - 1
        for i, c in runs:
            n, mono = blocks[i]
            tau = theta_star(mono) if n >= 2 else None
            if tau is None:
                continue
            # the other blocks pulled back, the whole term twisted by tau
            pairs = [(nb, phi_star(bd_ring, mb)) for nb, mb in blocks[:i] + blocks[i + 1 :]]
            base = BaseClass(bd_ring, {merge_monos(tau, base_mono): 1})
            payload_diag = _twisted_diag(bd_ring, pairs, base)
            if payload_diag:
                nus = tuple((j, exact(Fraction(nu_coeff(n, j) * c, mult[n]))) for j in range(1, n))
                # every later call reads this one sector: a read-only view
                templates.append((n, MappingProxyType(payload_diag), nus))
    return tuple(moves), tuple(templates)


@cache
def phi_star(ring, mono):
    """Pull a total-space monomial back to the boundary family's `ring`; memoized.

    On the normalized boundary family X^theta the polarization pulls back to
    itself and the canonical class to omega + theta_x + theta_y.
    """
    images = {
        "L": BaseClass.gen(ring, "L"),
        "omega": BaseClass(ring, {(("omega", 1),): 1, (("theta_x", 1),): 1, (("theta_y", 1),): 1}),
    }
    image = BaseClass.unit(ring)
    for name, p in mono:
        image = image * (images[name] ** p)
    return image


# -- operators on boundary payloads ---------------------------------------------


def twists(tc: TautClass, divisors, gamma_shares=()) -> list:
    """[pi^* pullback + [m]_* norm + share * Gamma] tc for every (pullback, norm) of `divisors`.

    Both parts are BaseClasses on the class's total space, or None.  The
    pullback, in base symbols, multiplies the base monomial; the norm enters
    each block of a polyblock diagonal, weighted by its size, and a run of
    identical blocks re-keys once, times its length.  One pass serves every
    divisor: each output key is built once, and only its scalar differs.
    The Gamma shares, one per divisor, are added scalar by scalar from one
    Gamma tc: `gamma_action`'s node sections need them, `transfer` none.
    """
    if tc.scroll or tc.section:
        raise NotImplementedError("twist on nested node terms")
    ring, m = tc.ring, tc.m
    top = _top(ring, m)
    pulled = _monomial_table(ring, [pullback for pullback, _ in divisors])
    normed = _monomial_table(ring, [norm for _, norm in divisors])
    accs = [{} for _ in divisors]
    for (base_mono, blocks), coeff in tc.diag.items():
        # each monomial raises the codimension by its degree
        room = top - _diag_codim(m, base_mono, blocks)
        for mono, deg, coeffs in pulled:
            if deg > room:
                continue
            key = merge_monos(base_mono, mono), blocks
            for d, c in coeffs:
                _add_scaled(accs[d], key, coeff, c)
        runs = _runs(blocks)
        for mono, deg, coeffs in normed:
            if deg > room:
                continue
            for i, count in runs:
                n, twist = blocks[i]
                sign, key = _rekeyed(ring, base_mono, blocks[:i] + blocks[i + 1 :], n, twist, mono)
                if not sign:
                    continue
                for d, c in coeffs:
                    _add_scaled(accs[d], key, coeff, count * n * sign * c)
    # Gamma is zero below degree 2, and diagonal on a payload's node-free family
    if tc.m >= 2 and any(gamma_shares):
        gamma_tc = gamma_action(tc)
        for acc, share in zip(accs, gamma_shares):
            for key, coeff in gamma_tc.diag.items():
                _add_scaled(acc, key, coeff, share)
    return [tc._like(_finished(acc), {}, {}) for acc in accs]


def _monomial_table(ring, parts):
    """(monomial, degree, [(divisor index, coefficient), ...]) over the parts' monomials."""
    table = {}
    for d, part in enumerate(parts):
        if part:
            for mono, c in part.terms.items():
                table.setdefault(mono, []).append((d, c))
    return [(mono, ring.degree(mono), coeffs) for mono, coeffs in table.items()]


@cache
def scroll_divisor(ring, n, j):
    """D^n_j on the boundary family's `ring` as a (pullback, norm) pair for `twists`.

    D^n_j = binom(n-j+1, 2) psi_x + binom(j, 2) psi_y
            - (n-j+1) [m]_* theta_x - j [m]_* theta_y,
    built once per (ring, n, j).
    """
    return (
        BaseClass(ring, {(("psi_x", 1),): comb(n - j + 1, 2), (("psi_y", 1),): comb(j, 2)}),
        BaseClass(ring, {(("theta_x", 1),): -(n - j + 1), (("theta_y", 1),): -j}),
    )


@cache
def _minus_divisor_pair(ring, n, j):
    """-(D^n_j + D^n_(j+1)) for `twists`, the divisor part of -(e_j + e_(j+1)); built once."""
    (p1, n1), (p2, n2) = scroll_divisor(ring, n, j), scroll_divisor(ring, n, j + 1)
    return -(p1 + p2), -(n1 + n2)


# -- the shape memo ----------------------------------------------------------------


def shared(*bounds):
    """Decorator: `fn(fam, *args)` computed once per base shape, then bound to `fam`.

    A class built from the fundamental class or a flag polynomial reads the
    family only through its ring, its node flag and each node's weight, a
    factor of that node's payloads (docs/CONVENTIONS.md, "The shape memo").
    `bounds` holds one (name, minimum) per argument, checked by `checked_int`
    before the lookup.
    """

    def decorate(fn):
        @wraps(fn)
        def wrapper(fam, *args):
            for value, (what, minimum) in zip(args, bounds):
                checked_int(value, minimum, what)
            return _bound(_shape_memo(fn, fam.total_ring, bool(fam.nodes), args), fam)

        return wrapper

    return decorate


_SHAPE_NODE = Node("shape", 1)


@lru_cache(maxsize=32)
def _shape_memo(fn, ring, nodes, args):
    """`fn` on a stand-in family: total-space ring `ring`, no characters, `_SHAPE_NODE` if `nodes`."""
    fam = FamilyDescriptor(ring.dim - 1, nodes=[_SHAPE_NODE] if nodes else [], label="shape")
    fam.total_ring = ring  # the key names the ring, so a boundary family keeps its own
    return fn(fam, *args)


def _bound(tc, fam):
    """The stand-in's class `tc` on `fam`, sharing no dict with `tc`.

    Each node of `fam` gets the stand-in node's payloads times its weight;
    payloads, on a node-free boundary family, hold only diagonal terms.
    """
    out = TautClass(fam, tc.m)
    out.diag = dict(tc.diag)
    for sector in ("scroll", "section"):
        for (_, n, j), payload in getattr(tc, sector).items():
            for node in fam.nodes:
                bound = TautClass(fam.boundary_family(), payload.m)
                bound.diag = scaled(payload.diag, node.weight)
                getattr(out, sector)[node.node_id, n, j] = bound
    return out


# -- powers and integration -------------------------------------------------------


@shared(("m", 0), ("k", 0))
def gamma_power(fam, m, k) -> TautClass:
    """(Gamma^(m))^k fully expanded into the three sectors: k Gamma steps from 1.

    Each step's zero classes are dropped before the next one (`_without_zero_classes`).
    """
    out = TautClass.fundamental(fam, m)
    for _ in range(k):
        if not out:
            break
        out = _without_zero_classes(gamma_action(out))
    return out


def _without_zero_classes(tc: TautClass) -> TautClass:
    """`tc` without its diagonal terms whose base monomial has degree above dim_b.

    Such a term is pulled back from above the dimension of the base: a zero
    class.  No operator lowers the degree of a base monomial, so all its
    descendants are zero too.  A node key whose payload empties goes.
    """
    dim_b = tc.fam.dim_b
    diag = {key: c for key, c in tc.diag.items() if tc.ring.degree(key[0]) <= dim_b}
    out = tc._like(diag, {}, {})
    for sector in ("scroll", "section"):
        for key, payload in getattr(tc, sector).items():
            add_term(getattr(out, sector), key, _without_zero_classes(payload))
    return out


def integrate(tc: TautClass, node=None) -> CharPoly:
    """Exact degree of a zero-dimensional tautological class.

    Diagonal terms integrate over the fiber product of the family with the
    1/aut(mu) symmetrization normalization; node sections project with degree
    one onto the boundary Hilbert scheme; bare scrolls integrate to zero.
    A payload on the boundary family integrates with the data of `node`,
    the Node its section key names.
    """
    total = CharPoly()
    for (base_mono, blocks), coeff in tc.diag.items():
        value = fiber_integral(tc.fam, [mono for _, mono in blocks], base_mono, node)
        total.accumulate(value * coeff, Fraction(1, aut_count(n for n, _ in blocks)))
    for (node_id, _, _), payload in sorted(tc.section.items()):
        total.accumulate(integrate(payload, tc.fam.node(node_id)))
    # scroll terms are pulled back from the scroll base and die in top degree
    return total


def pushforward_to_base(tc: TautClass):
    """Image of a degree-2 tautological class on the base (interior, boundary).

    The interior part is expressed in pushforward symbols kappa_j = pi_*(
    omega^{j+1}), kappaL_j = pi_*(L^{j+1}), kappaLw_{i,j} = pi_*(L^{i+1}
    omega^{j+1}); the boundary part collects the node contributions as
    formal symbols per node.
    """
    if tc.m != 2:
        raise NotImplementedError("base pushforward implemented for degree 2")
    interior = CharPoly()
    boundary = CharPoly()
    for (_, blocks), coeff in tc.diag.items():
        value = CharPoly.const(1)
        for _, mono in blocks:
            value = value * _kappa_symbol(mono)
        interior.accumulate(value * coeff, Fraction(1, aut_count(n for n, _ in blocks)))
    # sections collapse onto the boundary base; scrolls push forward to zero
    for (node_id, _, _), payload in sorted(tc.section.items()):
        for (bmono, _), c in payload.diag.items():
            boundary.accumulate(CharPoly.symbol("delta[%s|%s]" % (node_id, mono_str(bmono))) * c)
    return interior, boundary


def _kappa_symbol(mono):
    powers = dict(mono)
    a = powers.pop("L", 0)
    b = powers.pop("omega", 0)
    if powers:
        raise NotImplementedError("kappa pushforward of %r" % (mono,))
    if a == 0 and b == 0:
        # pushforward of the fundamental class of a curve fibration
        return CharPoly()
    if a == 0:
        return CharPoly.symbol("kappa_%d" % (b - 1))
    if b == 0:
        return CharPoly.symbol("kappaL_%d" % (a - 1))
    return CharPoly.symbol("kappaLw_%d_%d" % (a - 1, b - 1))
