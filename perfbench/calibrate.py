"""Machine-speed calibration: a fixed slice of pure-Python work.

The sandboxes this benchmark runs in share their cores, and their speed
drifts by up to 1.7x over minutes.  Each pass times slices of this fixed
work between its jobs, and run.py reports timings scaled by
REFERENCE_S / (median slice time of the pass): seconds on a machine where
one slice takes REFERENCE_S.  The slice uses the operations hilbtaut spends
its time on but no hilbtaut code, so a change to the program cannot move it.

A slice has two parts.  The first does Fraction arithmetic on small tuples
and dicts that stay in cache; the second combines Fractions read at
scattered keys of a table of about 2 MB, which adds that much to every
pass's peak memory.  Contention slows the first part more than hilbtaut
and the second part less; their sum tracks hilbtaut's jobs more closely
than either part alone.
"""

import random
from fractions import Fraction

REFERENCE_S = 0.021  # one slice on the machine the baseline was recorded on, when quiet
TABLE_SIZE = 12000
UPDATES = 3000

_table = None


def prepare():
    """Build the scattered table; call before timing slices."""
    global _table
    rng = random.Random(0)
    table = {}
    for i in range(TABLE_SIZE):
        table[(i % 97, i // 97, i * 7 % 13)] = Fraction(rng.randint(1, 50), rng.randint(1, 9))
    keys = list(table)
    order = [(keys[rng.randrange(TABLE_SIZE)], keys[rng.randrange(TABLE_SIZE)])
             for _ in range(UPDATES)]
    _table = (table, order)


def work_slice(n=2000):
    acc = {}
    for i in range(n):
        key = tuple(sorted(((i % 7, 1), (i % 11, 2))))
        c = Fraction(i % 7 + 1, i % 5 + 1)
        acc[key] = acc.get(key, Fraction(0)) + c * c
    table, order = _table
    total = 0
    for j, (a, b) in enumerate(order):
        total += (table[a] + Fraction(j % 5 + 1, 3) * table[b]).denominator
    return len(acc) + total
