import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial

from hilbtaut.basering import BaseClass, make_total_space_ring
from hilbtaut.family import FamilyDescriptor
from hilbtaut.oracle import OrderedTensor, ordered_disc, symmetrize
from hilbtaut.partitions import aut_count
from hilbtaut.tensym import TensorClass, discriminant_op
from hilbtaut.tautmod import TautClass, gamma_power, integrate, twists
from reference import (
    accumulate,
    block_partitions,
    distributions_up_to,
    ordered_union,
    u_omega_total,
)


def ring():
    return make_total_space_ring(1)


def test_ordered_disc_single_pair():
    r = ring()
    L, w = BaseClass.gen(r, "L"), BaseClass.gen(r, "omega")
    t = OrderedTensor.pure(r, [L, w])
    out = ordered_disc(t)
    sym = symmetrize(out)
    assert sym == {((2, (("L", 1), ("omega", 1))),): Fraction(1)}


def test_ordered_term_counts():
    # three slots: three union terms; interior terms appear only on merged slots
    r = ring()
    one = BaseClass.unit(r)
    t = OrderedTensor.pure(r, [one, one, one])
    out = ordered_disc(t)
    assert sum(out.terms.values()) == 3
    merged = ordered_union(t, 0, 1)
    [(labels, _)] = [k for k in merged.terms]
    assert {len(lab) for lab in labels} == {1, 2}


def test_omega_term_sign_on_a_merged_slot():
    # one slot carrying two points: no pair to unite, only the interior term
    r = ring()
    t = OrderedTensor(r, {((frozenset({1, 2}),), ((),)): 1})
    assert ordered_disc(t).terms == {((frozenset({1, 2}),), ((("omega", 1),),)): -1}


def test_unions_and_omega_term_together():
    # three slots, the first merged: unions weighted n_i * n_j, one omega term
    r = ring()
    a, b, c, d = (frozenset({k}) for k in (1, 2, 3, 4))
    L = (("L", 1),)
    t = OrderedTensor(r, {((a | b, c, d), ((), L, ())): 1})
    assert ordered_disc(t).terms == {
        ((a | b | c, d), (L, ())): 2,
        ((a | b | d, c), ((), L)): 2,
        ((a | b, c | d), ((), L)): 1,
        ((a | b, c, d), ((("omega", 1),), L, ())): -1,
    }


def _random_classes(rng, r, m, dens=None):
    """m classes in 1, L, omega with coefficients in -3..3, each divided by a
    draw from dens when given."""
    gens = [BaseClass.unit(r), BaseClass.gen(r, "L"), BaseClass.gen(r, "omega")]
    out = []
    for _ in range(m):
        cls = BaseClass(r)
        for g in gens:
            coeff = Fraction(rng.randint(-3, 3))
            if dens:
                coeff /= rng.choice(dens)
            cls = cls + g * coeff
        out.append(cls)
    return out


def per_pair_disc(t):
    """One Gamma step as a sum of per-pair unions of one-term tensors.

    Each union is weighted by n_i * n_j; each merged slot of n points adds
    its interior omega term with the factor -binom(n, 2) as a Fraction.
    """
    out = OrderedTensor(t.ring)
    for (labels, monos), c in t.terms.items():
        base = OrderedTensor(t.ring, {(labels, monos): c})
        for i, j in combinations(range(len(labels)), 2):
            accumulate(out, ordered_union(base, i, j), len(labels[i]) * len(labels[j]))
        for i, lab in enumerate(labels):
            n = len(lab)
            prod = t.ring.merge(monos[i], (("omega", 1),))
            if n < 2 or prod is None:
                continue
            sign, mono = prod
            key = (labels, monos[:i] + (mono,) + monos[i + 1 :])
            out._add(key, -c * sign * Fraction(n * (n - 1), 2))
    return out


def test_single_pass_matches_per_pair_unions_with_labels():
    # unsymmetrized labeled terms, one and two steps, int and p/q inputs
    rng = random.Random(20261019)
    r = ring()
    fractions_seen = 0
    for m in (2, 3, 4, 5):
        for steps in (1, 2):
            for dens in (None, (2, 3, 5)):
                for _ in range(3):
                    classes = _random_classes(rng, r, m, dens)
                    fast = slow = OrderedTensor.pure(r, classes)
                    for _ in range(steps):
                        fast, slow = ordered_disc(fast), per_pair_disc(slow)
                    assert fast.terms == slow.terms, (m, steps, dens)
                    if dens is None:
                        assert all(type(c) is int for c in fast.terms.values())
                    else:
                        fractions_seen += any(
                            type(c) is Fraction and c.denominator > 1
                            for c in fast.terms.values()
                        )
    assert fractions_seen >= 20


def test_symmetrization_commutes_with_disc_randomized():
    # >= 200 randomized cases across weights up to 5
    rng = random.Random(20260810)
    r = ring()
    cases = 0
    while cases < 220:
        m = rng.randint(2, 5)
        classes = _random_classes(rng, r, m)
        t_ord = OrderedTensor.pure(r, classes)
        lhs = symmetrize(ordered_disc(t_ord))
        t_ts = TensorClass.simple(r, [(1, c) for c in classes])
        rhs = (discriminant_op(t_ts) - u_omega_total(t_ts)).terms
        assert lhs == rhs
        cases += 1
    assert cases >= 200


def test_symmetrization_commutes_iterated():
    # 25 cases of weight 3 to 5, then two of weight 6
    rng = random.Random(7)
    r = ring()
    for case in range(27):
        m = rng.randint(3, 5) if case < 25 else 6
        classes = _random_classes(rng, r, m)
        t_ord = ordered_disc(ordered_disc(OrderedTensor.pure(r, classes)))
        t_ts = TensorClass.simple(r, [(1, c) for c in classes])
        step = discriminant_op(t_ts) - u_omega_total(t_ts)
        step = discriminant_op(step) - u_omega_total(step)
        assert symmetrize(t_ord) == step.terms


def test_symmetrization_degrees():
    # diagonal loci push down with degree aut(mu); removing one n-block for a
    # scroll divides by the multiplicity of n
    for mu in distributions_up_to(5):
        if sum(mu) < 2:
            continue
        bps = block_partitions(mu)
        # the number of labeled models equals weight! / (aut * prod sizes!)
        expected = factorial(sum(mu))
        for n, k in Counter(mu).items():
            expected //= factorial(n) ** k
        expected //= aut_count(mu)
        assert len(bps) == expected
        for n, k in Counter(mu).items():
            reduced = list(mu)
            reduced.remove(n)
            assert aut_count(mu) // aut_count(reduced) == k


def test_node_free_gamma_powers_match_tensym():
    # the module-theorem engine degenerates to the plain operator calculus
    nofam = FamilyDescriptor(1, label="smooth")
    r = nofam.total_ring

    def phi(tc):
        out = {}
        for (base, blocks), c in tc.diag.items():
            assert not base
            out[blocks] = c.constant_value() / aut_count(n for n, _ in blocks)
        return out

    for m in (2, 3, 4):
        seed = TensorClass(r, phi(gamma_power(nofam, m, 1)))
        for k in (1, 2, 3, 4):
            cur = seed
            for _ in range(k - 1):
                cur = discriminant_op(cur) - u_omega_total(cur)
            pruned = {}
            for key, c in cur.terms.items():
                codim = sum((n - 1) + r.degree(mono) for n, mono in key)
                if codim <= m + 1:
                    pruned[key] = c
            assert phi(gamma_power(nofam, m, k)) == pruned, (m, k)


def test_node_free_random_twisted_powers():
    rng = random.Random(1234)
    nofam = FamilyDescriptor(1, label="smooth")
    r = nofam.total_ring

    def phi(tc):
        out = {}
        for (base, blocks), c in tc.diag.items():
            out[blocks] = c.constant_value() / aut_count(n for n, _ in blocks)
        return out

    for _ in range(30):
        m = rng.randint(2, 4)
        classes = _random_classes(rng, r, m)
        start = TautClass.from_twists(nofam, m, [(1, c) for c in classes])
        ts = TensorClass(r, phi(start))
        taut, form = start, ts
        for _ in range(rng.randint(1, 3)):
            from hilbtaut.tautmod import gamma_action

            taut = gamma_action(taut)
            form = discriminant_op(form) - u_omega_total(form)
        pruned = {}
        for key, c in form.terms.items():
            codim = sum((n - 1) + r.degree(mono) for n, mono in key)
            if codim <= m + 1:
                pruned[key] = c
        assert phi(taut) == pruned


def test_p1_engine_degrees_match_jets():
    # degrees of the multiple-point loci in the symmetric product of the line:
    # the first Chern number of the (n-1)-jet bundle of O(m), whose filtration
    # has graded pieces O(m - 2i)
    for m in range(2, 6):
        for n in range(2, m + 1):
            fam = FamilyDescriptor(0, chars={"d": 1}, label="line")
            cls = TautClass(fam, m)
            cls.add_diag((), ((n, ()),) + ((1, ()),) * (m - n), 1)
            for _ in range((m - n) + 1):
                cls = twists(cls, [(None, BaseClass.gen(cls.ring, "pt"))])[0]
            jets = sum(m - 2 * i for i in range(n))
            assert integrate(cls).constant_value() == jets == n * (m - n + 1), (m, n)
