import random
from collections import Counter
from fractions import Fraction
from math import factorial

from hilbtaut.basering import BaseClass, make_total_space_ring
from hilbtaut.family import FamilyDescriptor
from hilbtaut.oracle import OrderedTensor, ordered_disc, ordered_union, symmetrize
from hilbtaut.partitions import aut_count, enumerate_distributions
from hilbtaut.tensym import TensorClass, discriminant_op, u_omega_total
from hilbtaut.tautmod import TautClass, gamma_as_class, gamma_power, integrate, twists
from reference import block_partitions


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


def _random_classes(rng, r, m):
    gens = [BaseClass.unit(r), BaseClass.gen(r, "L"), BaseClass.gen(r, "omega")]
    out = []
    for _ in range(m):
        cls = BaseClass(r)
        for g in gens:
            cls = cls + g * Fraction(rng.randint(-3, 3))
        out.append(cls)
    return out


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
    rng = random.Random(7)
    r = ring()
    for _ in range(25):
        m = rng.randint(3, 5)
        classes = _random_classes(rng, r, m)
        t_ord = ordered_disc(ordered_disc(OrderedTensor.pure(r, classes)))
        t_ts = TensorClass.simple(r, [(1, c) for c in classes])
        step = discriminant_op(t_ts) - u_omega_total(t_ts)
        step = discriminant_op(step) - u_omega_total(step)
        assert symmetrize(t_ord) == step.terms


def test_symmetrization_degrees():
    # diagonal loci push down with degree aut(mu); removing one n-block for a
    # scroll divides by the multiplicity of n
    for mu in enumerate_distributions(5):
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
        seed = TensorClass(r, phi(gamma_as_class(nofam, m)))
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
