"""The four benchmark workloads: seeded inputs, set-up, and job lists.

Inputs are plain JSON data made from the workload seed alone
(`make_inputs`), so the same seed always gives the same inputs and the
program only ever sees the generated inputs.  `setup` builds the families a
pass needs and `jobs` returns the timed job list; both take the imported
hilbtaut modules as a dict, so that a traced pass sees patched module
attributes.  This module imports nothing from hilbtaut itself.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

WORKLOADS = ("deep_gamma", "flag_pushdown", "family_sweep", "oracle_check")

SWEEP_GAMMA = (4, 5)  # (m, k) of the gamma-power subcommand
SWEEP_PLUECKER_M = 6

# Subcommands run on every sweep descriptor, in this order.
SWEEP_COMMANDS = (
    ("gamma-power", ["gamma-power", "--m", str(SWEEP_GAMMA[0]), "--k", str(SWEEP_GAMMA[1]),
                     "--integrate"]),
    ("chern-numbers", ["chern-numbers"]),
    ("chern", ["chern", "--m", "3"]),
    ("pluecker", ["pluecker", "--which", "s2", "--m", str(SWEEP_PLUECKER_M)]),
    ("double-points", ["double-points", "--n", "2"]),
)


def make_inputs(workload, seed, smoke=False):
    """JSON-able inputs of one workload; `smoke` shrinks every size."""
    if workload == "deep_gamma":
        if smoke:
            return {"gamma": [["one_node", 3, 4], ["dim2", 2, 4], ["three_node", 3, 4]]}
        return {"gamma": [["one_node", 7, 8], ["dim2", 6, 8], ["three_node", 6, 7]]}
    if workload == "flag_pushdown":
        if smoke:
            return {"chern_m": 3, "punctual_m": 4}
        return {"chern_m": 5, "punctual_m": 12}
    if workload == "family_sweep":
        return {"descriptors": sweep_descriptors(seed, 4 if smoke else 20)}
    if workload == "oracle_check":
        return {"case_seeds": oracle_case_seeds(seed, smoke)}
    raise ValueError("unknown workload %r" % (workload,))


# -- family_sweep inputs -------------------------------------------------------------


def _rational(rng, lo, hi, den):
    return str(Fraction(rng.randint(lo, hi), rng.randint(1, den)))


def sweep_descriptors(seed, count):
    """`count` distinct numeric descriptors over a 1-dimensional base.

    Node count drives the cost of every subcommand, so each count 0..3 occurs
    equally often (in seeded order); genus, characters and weights are drawn
    freely.  Equal node counts keep a pass's work nearly the same across
    seeds, which keeps run-to-run spread small.
    """
    rng = random.Random("family_sweep:%d" % seed)
    node_counts = [i % 4 for i in range(count)]
    rng.shuffle(node_counts)
    out, seen = [], set()
    for i, nodes in enumerate(node_counts):
        while True:
            desc = {
                "name": "fam%02d" % i,
                "genus": rng.randint(0, 5),
                "chars": {
                    "d": str(rng.randint(1, 12)),
                    "b": _rational(rng, -12, 12, 6),
                    "Lomega": _rational(rng, -12, 12, 6),
                    "omega2": _rational(rng, -12, 12, 6),
                },
                "weights": {"n%d" % j: _rational(rng, 1, 6, 4) for j in range(nodes)},
            }
            text = descriptor_text(desc)
            if text not in seen:
                seen.add(text)
                out.append(desc)
                break
    return out


def descriptor_text(desc):
    """The descriptor file for one sweep family, in the CLI's format."""
    lines = ["[family]", "dim_b = 1", "genus = %d" % desc["genus"], "", "[characters]"]
    lines += ["%s = %s" % item for item in desc["chars"].items()]
    for node_id, weight in desc["weights"].items():
        lines += ["", "[node.%s]" % node_id, "weight = %s" % weight]
    return "\n".join(lines) + "\n"


# -- oracle_check inputs -------------------------------------------------------------


GENERATOR_PAIRS = (0b011, 0b101, 0b110)  # {1, L}, {1, omega}, {L, omega}


def oracle_case_shape(case_seed):
    """(m, sorted nonzero-generator masks) of `oracle-check --cases 1 --seed s`.

    Replays the random draws the CLI makes for its first case: the Hilbert
    degree, then one coefficient in -2..2 per slot and generator (1, L,
    omega).  Bit i of a slot's mask says generator i is nonzero.  A case's
    cost is set by its shape: it grows steeply with the number of nonzero
    terms, from under a millisecond to most of a second.
    """
    rng = random.Random(case_seed)
    m = rng.randint(2, 5)
    masks = []
    for _ in range(m):
        masks.append(sum(1 << g for g in range(3) if rng.randint(-2, 2) != 0))
    return m, tuple(sorted(masks))


def oracle_case_seeds(seed, smoke=False):
    """CLI seeds for single-case oracle checks with a fixed mix of shapes.

    A target (m, k) has k slots with all three generators nonzero and m - k
    slots with the pairs of GENERATOR_PAIRS in turn.  One `--cases 60` call
    varies 1.1-4.3 s over seeds 0-7, because a few heavy cases dominate;
    fixing the shapes and drawing only the seeds (hence the coefficients)
    keeps every pass, and each latency percentile, nearly the same for
    every workload seed.
    """
    if smoke:
        targets = [(m, k) for m in (2, 3) for k in (0, 1)]
        repeats = 1
    else:
        targets = [(m, k) for m in (2, 3, 4, 5) for k in range(min(m, 4) + 1)]
        repeats = 3
    rng = random.Random("oracle_check:%d" % seed)
    seeds, taken = [], set()
    for m, k in targets:
        pairs = [GENERATOR_PAIRS[i % 3] for i in range(m - k)]
        want = (m, tuple(sorted(pairs + [0b111] * k)))
        for _ in range(repeats):
            for _ in range(1000000):
                case_seed = rng.randrange(2**31)
                if case_seed not in taken and oracle_case_shape(case_seed) == want:
                    break
            else:
                raise RuntimeError("no oracle case of shape %r found" % (want,))
            taken.add(case_seed)
            seeds.append(case_seed)
    rng.shuffle(seeds)
    return seeds


# -- set-up and jobs ------------------------------------------------------------------


def setup(workload, inputs, mods):
    """Build the families a pass needs (part of the timed set-up)."""
    family = mods["family"]
    charpoly = mods["charpoly"]
    if workload in ("deep_gamma", "flag_pushdown"):
        weights = {n: charpoly.CharPoly.symbol("w_" + n) for n in "pqr"}
        fams = {
            "one_node": family.symbolic_family(1),
            "three_node": family.FamilyDescriptor(
                1,
                nodes=[family.Node(n, w, tau_L=0) for n, w in weights.items()],
                label="X3/B",
            ),
        }
        if workload == "deep_gamma":
            fams["dim2"] = family.symbolic_family(2)
        return fams
    return {}


def run_cli(mods, argv):
    """One in-process CLI invocation; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        mods["cli"].main(argv, standalone_mode=False)
    return buf.getvalue()


def degree4_keys():
    """The 70 exponent vectors (a1, a2, a3, k2, k3) of total degree 4."""
    keys = []
    for a1 in range(5):
        for a2 in range(5 - a1):
            for a3 in range(5 - a1 - a2):
                for k2 in range(5 - a1 - a2 - a3):
                    keys.append((a1, a2, a3, k2, 4 - a1 - a2 - a3 - k2))
    return keys


def jobs(workload, inputs, fams, mods, paths=None):
    """The timed job list: (name, callable) pairs.

    Callables look module attributes up when they run, so a traced pass goes
    through the patched names.  `paths` maps sweep descriptor names to files.
    """
    tautmod, chern, transfer = mods["tautmod"], mods["chern"], mods["transfer"]
    out = []
    if workload == "deep_gamma":
        for fam_name, m, k in inputs["gamma"]:
            fam = fams[fam_name]
            out.append(
                ("gamma:%s:%d:%d" % (fam_name, m, k),
                 lambda fam=fam, m=m, k=k: tautmod.integrate(tautmod.gamma_power(fam, m, k)))
            )
    elif workload == "flag_pushdown":
        cm = inputs["chern_m"]
        one = fams["one_node"]
        for fam_name in ("one_node", "three_node"):
            out.append(
                ("chern:%s:%d" % (fam_name, cm),
                 lambda fam=fams[fam_name]: chern.chern_class_on_hilb(fam, cm))
            )
        out.append(("trisecant_count", lambda: chern.trisecant_count(one)))
        for key in degree4_keys():
            out.append(
                ("w3:%s" % "".join(map(str, key)), lambda key=key: chern.w3_monomial(one, key))
            )
        out.append(("single_curve_trisecant_scroll", lambda: chern.single_curve_trisecant_scroll()))
        pm = inputs["punctual_m"]
        out.append(("punctual_chern:%d" % pm, lambda: transfer.punctual_chern(one, pm)))
    elif workload == "family_sweep":
        for desc in inputs["descriptors"]:
            for cmd_name, argv in SWEEP_COMMANDS:
                full = argv + ["--output", "json", paths[desc["name"]]]
                out.append(("%s:%s" % (desc["name"], cmd_name),
                            lambda full=full: run_cli(mods, full)))
    elif workload == "oracle_check":
        for case_seed in inputs["case_seeds"]:
            argv = ["oracle-check", "--cases", "1", "--seed", str(case_seed), "--output", "json"]
            out.append(("oracle:%d" % case_seed, lambda argv=argv: run_cli(mods, argv)))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return out
