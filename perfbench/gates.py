"""Exact-result gates, applied outside the timed passes.

`check` takes one pass's canonical results (see worker.canonical) and
returns, for every job, None when the result is exact and otherwise a
one-line reason.  Fixed-input workloads compare against digests pinned from
the seed code (goldens.json) and against identities the engine must satisfy;
seeded workloads need no golden file, so any seed can be checked.
"""

from __future__ import annotations

import json
from fractions import Fraction

import workloads
from worker import digest


def poly_from_data(mods, data):
    return mods["charpoly"].CharPoly(
        {tuple((name, p) for name, p in mono): Fraction(c) for mono, c in data}
    )


def _poly(mods, value):
    return poly_from_data(mods, value["poly"])


def _number(text):
    return Fraction(json.loads(text))


def check(workload, inputs, values, mods, goldens=None):
    """Map job name -> None or a mismatch reason.

    `values` maps job names to canonical results; `goldens` maps job names to
    pinned digests, or is None when the inputs are not the pinned ones.
    """
    problems = {}
    if goldens is not None:
        for name, value in values.items():
            if digest(value) != goldens.get(name):
                problems[name] = "differs from the result pinned at the seed commit"
    extra = {
        "deep_gamma": _check_deep_gamma,
        "flag_pushdown": _check_flag_pushdown,
        "family_sweep": _check_sweep,
        "oracle_check": _check_oracle,
    }[workload](inputs, values, mods)
    for name, problem in extra.items():
        problems.setdefault(name, problem)
    return {name: problems.get(name) for name in values}


def _check_deep_gamma(inputs, values, mods):
    """Three nodes of weights w_p, w_q, w_r act like one node of weight their sum."""
    CharPoly = mods["charpoly"].CharPoly
    tautmod, family = mods["tautmod"], mods["family"]
    out = {}
    for fam_name, m, k in inputs["gamma"]:
        if fam_name != "three_node":
            continue
        name = "gamma:three_node:%d:%d" % (m, k)
        if name not in values:
            continue
        one = tautmod.integrate(tautmod.gamma_power(family.symbolic_family(1), m, k))
        total = CharPoly.symbol("w_p") + CharPoly.symbol("w_q") + CharPoly.symbol("w_r")
        if _poly(mods, values[name]) != one.substitute({"sigma": total}):
            out[name] = "three-node value is not the one-node value at sigma = w_p + w_q + w_r"
    return out


def _check_flag_pushdown(inputs, values, mods):
    chern, family = mods["chern"], mods["family"]
    expected = {
        "trisecant_count": (chern.trisecant_grand_total(family.symbolic_family(1)),
                            "differs from trisecant_grand_total"),
        "single_curve_trisecant_scroll": (chern.single_curve_trisecant_formula(),
                                          "differs from single_curve_trisecant_formula"),
    }
    return {name: reason for name, (want, reason) in expected.items()
            if name in values and _poly(mods, values[name]) != want}


def sweep_family(mods, desc):
    """The family a sweep descriptor describes, built without the CLI's parser."""
    family = mods["family"]
    chars = {key: Fraction(v) for key, v in desc["chars"].items()}
    chars["twogm2"] = Fraction(2 * desc["genus"] - 2)
    nodes = [family.Node(n, Fraction(w), tau_L=0) for n, w in desc["weights"].items()]
    return family.FamilyDescriptor(1, chars=chars, nodes=nodes, label=desc["name"])


def _check_sweep(inputs, values, mods):
    tautmod, chern, family = mods["tautmod"], mods["chern"], mods["family"]
    transfer = mods["transfer"]
    symbolic = tautmod.integrate(
        tautmod.gamma_power(family.symbolic_family(1), *workloads.SWEEP_GAMMA)
    )

    def gamma_power(fam, text):
        bindings = dict(fam.chars, sigma=fam.sigma())
        if _number(text) != symbolic.substitute(bindings).constant_value():
            return "differs from the symbolic value with the characters substituted"

    def chern_numbers(fam, text):
        n = {k: Fraction(v) for k, v in json.loads(text).items()}
        if (n["c1^4"] - 3 * n["c1^2c2"] + 2 * n["c1c3"] + n["c2^2"]
                != chern.trisecant_grand_total(fam).constant_value()):
            return "Chern numbers do not combine to trisecant_grand_total"

    def chern_class(fam, text):
        data = json.loads(text)
        cls = tautmod.from_data(fam, data)
        again = json.loads(json.dumps(tautmod.to_data(cls)))
        if again != data or cls != chern.chern_class_on_hilb(fam, 3):
            return "JSON does not round-trip to chern_class_on_hilb"

    def pluecker(fam, text):
        # the command itself checks its recursion against the closed form
        if _number(text) != transfer.pluecker_s2(fam, workloads.SWEEP_PLUECKER_M).constant_value():
            return "differs from pluecker_s2 on the generated family"

    def double_points(fam, text):
        if tautmod.from_data(fam, json.loads(text)) != chern.double_point_segre_route(fam, 2):
            return "differs from the Segre-class route"

    gates = {"gamma-power": gamma_power, "chern-numbers": chern_numbers,
             "chern": chern_class, "pluecker": pluecker, "double-points": double_points}
    out = {}
    for desc in inputs["descriptors"]:
        fam = sweep_family(mods, desc)
        for cmd, _ in workloads.SWEEP_COMMANDS:
            name = "%s:%s" % (desc["name"], cmd)
            try:
                out[name] = gates[cmd](fam, values[name]["text"])
            except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
                out[name] = "unreadable output: %r" % (exc,)
    return {name: problem for name, problem in out.items() if problem}


def _check_oracle(inputs, values, mods):
    out = {}
    for name, value in values.items():
        if json.loads(value["text"]) != {"cases": 1, "failures": 0}:
            out[name] = "oracle reported a disagreement"
    return out
