"""Command-line front end: descriptor ingestion, query dispatch, dual output.

The descriptor is a flat key-value text file with sections [family],
[node.<id>] and [characters]; values are exact rationals written p/q, or bare
identifiers for symbolic characters.  Every subcommand accepts an optional
descriptor path (default: the fully symbolic one-node family over a
1-dimensional base) and an output mode.

Exit codes: 0 success, 1 bad input (the descriptor or an option value), 2 engine
fault, including a disagreement found by a cross-check.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from itertools import product

import click

from .basering import BaseClass, make_total_space_ring
from .charpoly import CharPoly, is_symbol
from .family import FamilyDescriptor, Node, integral_key, symbolic_family
from .lincomb import merge_monos, mono_str
from .oracle import OrderedTensor, ordered_disc, symmetrize
from .tautmod import TautClass, from_data, gamma_power, integrate, pushforward_to_base, to_data
from .transfer import PunctualClass, pluecker_c2, pluecker_s2, punctual_chern, transfer
from . import chern as chern_mod


class DescriptorError(Exception):
    pass


def _rational(text):
    """`text` as an exact rational p/q, or None when it is not one."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _parse_value(text, where):
    text = text.strip()
    value = _rational(text)
    if value is not None:
        return CharPoly.const(value)
    if is_symbol(text):
        return CharPoly.symbol(text)
    raise DescriptorError("%s: cannot parse value %r (rational p/q or symbol)" % (where, text))


def _integer(section, key, minimum):
    """`key`'s value in a descriptor section: any p/q equal to an integer >= `minimum`."""
    text, where = section[key]
    value = _rational(text)
    if value is None or value.denominator != 1:
        raise DescriptorError("%s: %s must be an integer, got %r" % (where, key, text))
    if value < minimum:
        raise DescriptorError("%s: %s must be >= %d" % (where, key, minimum))
    return int(value)


# the keys each section accepts: [characters] takes the names the engine reads,
# a node section its integral keys IT[<node id>|<base monomial>|<pushed factors>]
_SECTION_KEYS = {
    "family": ("dim_b", "genus"),
    "characters": ("d", "b", "Lomega", "omega2", "twogm2"),
    "node": ("weight", "tauL", "IT[...]"),
}


def _monomial(text, symbols):
    """The monomial `a*b^2` of names in `symbols` (`1` the unit), or None.

    Spaces, repeated names and leading zeros are read, and zero powers drop out.
    A power is ASCII digits; one of more than 18 digits past its leading zeros
    reads as 10^18, above every ring's dimension, so int() never meets its limit.
    """
    text = text.strip()
    mono = ()
    for factor in [] if text == "1" else text.split("*"):
        name, caret, power = (part.strip() for part in factor.partition("^"))
        power = power if caret else "1"
        if name not in symbols or not (power.isascii() and power.isdigit()):
            return None
        exponent = int(power) if len(power.lstrip("0")) <= 18 else 10**18
        mono = merge_monos(mono, ((name, exponent),))
    return tuple((name, p) for name, p in mono if p)


def _is_integral_key(key, node_id):
    """Whether `key` is an integral of node `node_id` exactly as `integral_key` writes it."""
    match = re.fullmatch(r"IT\[%s\|([^|]*)\|([^|]*)\]" % re.escape(node_id), key)
    if not match:
        return False
    base = _monomial(match[1], ("psi_x", "psi_y", "tauL"))
    pushed = [_monomial(f, ("L", "omega")) for f in match[2].split(";")] if match[2] else []
    return base is not None and all(pushed) and key == integral_key(node_id, base, pushed)


def load_descriptor(path) -> FamilyDescriptor:
    """Parse and validate a family descriptor file."""
    sections = {"family": {}, "characters": {}}
    node_sections = {}
    seen = set()
    current = allowed = None
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DescriptorError("cannot read %s: %s" % (path, exc))
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = "%s:%d" % (path, lineno)
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in seen:
                raise DescriptorError("%s: repeated section [%s]" % (where, name))
            seen.add(name)
            if name == "family" or name == "characters":
                current = sections[name]
            elif name.startswith("node."):
                node_id = name[5:]
                if not Node.ID.fullmatch(node_id):
                    raise DescriptorError(
                        "%s: %s node id %r, not a plain word %s"
                        % (where, "bad" if node_id else "empty", node_id, Node.ID.pattern)
                    )
                current = node_sections[node_id] = {}
            else:
                raise DescriptorError("%s: unknown section [%s]" % (where, name))
            allowed = _SECTION_KEYS.get(name.partition(".")[0])
            continue
        if "=" not in line:
            raise DescriptorError("%s: expected key = value" % where)
        if current is None:
            raise DescriptorError("%s: key outside of any section" % where)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise DescriptorError("%s: repeated key %s, first at %s" % (where, key, current[key][1]))
        if key.startswith("IT[") and "IT[...]" in allowed:
            if not _is_integral_key(key, node_id):
                raise DescriptorError(
                    "%s: integral key %r must read IT[%s|<base monomial>|<pushed factors>]: "
                    "sorted names, no ^1, base in psi_x, psi_y, tauL, sorted ;-joined "
                    "factors in L, omega" % (where, key, node_id)
                )
        elif key not in allowed:
            raise DescriptorError(
                "%s: unknown key %r; allowed keys: %s" % (where, key, ", ".join(allowed))
            )
        current[key] = (value.strip(), where)

    fam_raw = sections["family"]
    if "dim_b" not in fam_raw:
        raise DescriptorError("%s: [family] needs dim_b" % path)
    dim_b = _integer(fam_raw, "dim_b", 1)
    genus = _integer(fam_raw, "genus", 0) if "genus" in fam_raw else None

    chars = {}
    for key, (value, where) in sections["characters"].items():
        chars[key] = _parse_value(value, where)
    if genus is not None:
        twogm2 = CharPoly.const(2 * genus - 2)
        if "twogm2" in chars and chars["twogm2"] != twogm2:
            value, where = sections["characters"]["twogm2"]
            raise DescriptorError(
                "%s: twogm2 = %s conflicts with genus = %s at %s (2g - 2 = %s)"
                % (where, value, genus, fam_raw["genus"][1], twogm2)
            )
        chars["twogm2"] = twogm2

    nodes = []
    for node_id, body in node_sections.items():
        if "weight" not in body:
            raise DescriptorError("%s: node %s needs a weight" % (path, node_id))
        weight = _parse_value(*body["weight"])
        tau = _parse_value(*body["tauL"]) if "tauL" in body else None
        if dim_b == 1 and tau:  # the node base is a point, where theta^*L is 0
            value, where = body["tauL"]
            raise DescriptorError("%s: tauL = %s, but dim_b = 1 fixes it to 0" % (where, value))
        table = {k: _parse_value(*v) for k, v in body.items() if k.startswith("IT[")}
        for key in table:
            if tau is not None and "tauL" in key.split("|")[1]:
                # a bound tauL is the integral of every integrand holding tauL
                raise DescriptorError(
                    "%s: %s integrates tauL, which tauL = %s at %s binds"
                    % (body[key][1], key, body["tauL"][0], body["tauL"][1])
                )
        try:
            nodes.append(Node(node_id, weight, tau_L=tau, psi_table=table))
        except ValueError as exc:
            raise DescriptorError("%s: %s" % (body["weight"][1], exc))
    try:
        return FamilyDescriptor(dim_b, chars=chars, nodes=nodes)
    except ValueError as exc:  # a node datum the base dimension does not allow
        raise DescriptorError("%s: %s" % (path, exc))


def _family(descriptor):
    if descriptor is None:
        return symbolic_family(1)
    return load_descriptor(descriptor)


def _curve_base_family(descriptor):
    """The family of a command whose formulas hold over a 1-dimensional base only."""
    fam = _family(descriptor)
    if fam.dim_b != 1:
        raise DescriptorError(
            "%s: dim_b = %d, but this command needs dim_b = 1" % (descriptor, fam.dim_b)
        )
    return fam


def _emit(result, output):
    """Print a command's result on stdout: the one place that picks its form.

    A TautClass prints through `to_data` or `render`, a PunctualClass through
    its `to_data` or `repr`; anything else (a CharPoly, a dict of them, a str)
    through `json.dumps` or `str`, a dict as one `key = value` line per key.
    """
    if isinstance(result, TautClass):
        result = to_data(result) if output == "json" else result.render()
    elif isinstance(result, PunctualClass):
        result = result.to_data() if output == "json" else repr(result)
    if output == "json":
        click.echo(json.dumps(result, sort_keys=True, default=str))
    elif isinstance(result, dict):
        for key, value in result.items():
            click.echo("%s = %s" % (key, value))
    else:
        click.echo(result)


def _rational_option(flag, above=None):
    """An option taking an exact rational p/q, greater than `above` when that is given."""

    def parse(ctx, param, text):
        if text is None:
            return None
        value = _rational(text)
        if value is None:
            raise click.BadParameter("%r is not a rational p/q" % text)
        if above is not None and value <= above:
            raise click.BadParameter("must be > %s" % above)
        return value

    return click.option(flag, type=str, default=None, callback=parse)


_descriptor_option = click.argument("descriptor", type=click.Path(), required=False)
_output_option = click.option(
    "--output", type=click.Choice(["text", "json"]), default="text"
)


@click.group()
def main():
    """Exact intersection calculus on Hilbert schemes of nodal curve families."""


@main.command("gamma-power")
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.option("--k", type=click.IntRange(min=0), required=True)
@click.option("--integrate", "do_integrate", is_flag=True, help="evaluate the degree")
@_descriptor_option
@_output_option
def gamma_power_cmd(m, k, do_integrate, descriptor, output):
    """Expand the k-th power of the degree-m discriminant polarization."""
    fam = _family(descriptor)
    top = m + fam.dim_b
    if do_integrate and k != top:
        raise click.BadParameter(
            "--integrate needs the top degree k = m + dim_b = %d, got %d" % (top, k),
            param_hint="'--k'",
        )
    cls = gamma_power(fam, m, k)
    _emit(integrate(cls) if do_integrate else cls, output)


@main.command("chern")
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.option("--closed-form", is_flag=True, help="use the diagonal closed form")
@_descriptor_option
@_output_option
def chern_cmd(m, closed_form, descriptor, output):
    """Total Chern class of the rank-m tautological bundle of L."""
    chern = chern_mod.chern_closed_form if closed_form else chern_mod.chern_class_on_hilb
    _emit(chern(_family(descriptor), m), output)


@main.command("chern-numbers")
@_descriptor_option
@_output_option
def chern_numbers_cmd(descriptor, output):
    """The four degree-4 Chern numbers of the rank-3 bundle on the 3-step flag."""
    fam = _curve_base_family(descriptor)
    _emit(chern_mod.chern_numbers_w3(fam), output)


@main.command("formulary")
@_descriptor_option
@_output_option
def formulary_cmd(descriptor, output):
    """Evaluate all degree-4 monomials in L1, L2, L3, G2, G3 on the 3-step flag."""
    fam = _curve_base_family(descriptor)
    rows = {}
    # every exponent vector (a1, a2, a3, k2, k3) of total degree 4, in ascending order
    for key in (k for k in product(range(5), repeat=5) if sum(k) == 4):
        name = mono_str([(n, e) for n, e in zip(chern_mod.W3_SYMBOLS, key) if e])
        rows[name] = chern_mod.w3_monomial(fam, key)
    _emit(rows, output)


@main.command("transfer")
@click.option("--class-json", "class_json", type=str, required=True,
              help="serialized class to transfer")
@click.option("--beta", type=str, default="1", help="twist: 1, L, omega, L^2, ...")
@_descriptor_option
@_output_option
def transfer_cmd(class_json, beta, descriptor, output):
    """Apply the flaglet transfer to a serialized tautological class."""
    fam = _family(descriptor)
    try:
        cls = from_data(fam, json.loads(class_json))
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise click.BadParameter(
            "not a serialized class (%s: %s)" % (type(exc).__name__, exc),
            param_hint="'--class-json'",
        )
    ring = fam.total_ring
    twist = _monomial(beta, ring.symbols)
    if twist is None:
        raise click.BadParameter(
            "%r is not 1 or a product of powers of %s" % (beta, ", ".join(sorted(ring.symbols))),
            param_hint="'--beta'",
        )
    _emit(transfer(cls, BaseClass(ring, {twist: 1})), output)


@main.command("punctual-chern")
@click.option("--m", type=click.IntRange(min=1), required=True)
@_descriptor_option
@_output_option
def punctual_chern_cmd(m, descriptor, output):
    """Chern classes of the tautological bundle on the punctual Hilbert scheme."""
    _emit(punctual_chern(_family(descriptor), m), output)


@main.command("pluecker")
@click.option("--which", type=click.Choice(["s2", "c2"]), required=True)
@click.option("--m", type=click.IntRange(min=1), required=True)
@_descriptor_option
@_output_option
def pluecker_cmd(which, m, descriptor, output):
    """Closed Pluecker-type contact formulas s2 and c2 over a curve base."""
    fam = _curve_base_family(descriptor)
    value = pluecker_s2(fam, m) if which == "s2" else pluecker_c2(fam, m)
    # the self-intersection character of L prints as L2 in the contact formulas
    _emit(value.substitute({"b": CharPoly.symbol("L2")}), output)


@main.command("trisecants")
@_rational_option("--d")
@click.option("--g", type=click.IntRange(min=0), default=None)
@_rational_option("--b")
@_rational_option("--lomega")
@_rational_option("--omega2")
@_rational_option("--sigma", above=0)
@click.option("--single-curve", is_flag=True,
              help="virtual trisecant-scroll degree of one space curve")
@_output_option
def trisecants_cmd(d, g, b, lomega, omega2, sigma, single_curve, output):
    """Trisecant counts from the degeneracy combination of Chern numbers."""
    twogm2 = None if g is None else 2 * g - 2
    given = (("d", d), ("twogm2", twogm2), ("b", b), ("Lomega", lomega), ("omega2", omega2))
    chars = {key: value for key, value in given if value is not None}
    if single_curve:
        # one curve has only d and g; refuse the family options instead of dropping them
        for flag, value in (("--b", b), ("--lomega", lomega), ("--omega2", omega2),
                            ("--sigma", sigma)):
            if value is not None:
                raise click.BadParameter("one curve takes only --d and --g", param_hint=repr(flag))
        _emit(chern_mod.single_curve_trisecant_scroll(chars), output)
        return
    weight = CharPoly.symbol("sigma") if sigma is None else sigma
    fam = FamilyDescriptor(1, chars=chars, nodes=[Node("s", weight)], label="cli")
    _emit(chern_mod.trisecant_count(fam), output)


@main.command("double-points")
@click.option("--n", type=click.IntRange(min=0), required=True,
              help="dimension of the projective target")
@click.option("--push-to-base", is_flag=True)
@_descriptor_option
@_output_option
def double_points_cmd(n, push_to_base, descriptor, output):
    """Virtual double-point class for a fiberwise map to projective n-space."""
    fam = _family(descriptor)
    cls = chern_mod.double_point_class(fam, n)
    if push_to_base:
        interior, boundary = pushforward_to_base(cls)
        _emit({"interior": interior, "boundary": boundary}, output)
    else:
        _emit(integrate(cls) if n == fam.dim_b + 2 else cls, output)


@main.command("oracle-check")
@click.option("--cases", type=click.IntRange(min=0), default=50)
@click.option("--seed", type=int, default=0)
@_output_option
def oracle_check_cmd(cases, seed, output):
    """Check one Gamma step of the ordered model against the pair union of `tensym`.

    Each case is one tensor of 2 to 5 random singleton blocks. On singletons Gamma
    only unites pairs: the interior omega term needs a block of size >= 2.
    """
    from .tensym import TensorClass, discriminant_op  # looked up per call, so tests can patch it

    rng = random.Random(seed)
    ring = make_total_space_ring(1)
    gens = ((), (("L", 1),), (("omega", 1),))
    failures = 0
    for _ in range(cases):
        m = rng.randint(2, 5)
        classes = [BaseClass(ring, {g: rng.randint(-2, 2) for g in gens}) for _ in range(m)]
        lhs = symmetrize(ordered_disc(OrderedTensor.pure(ring, classes)))
        if lhs != discriminant_op(TensorClass.simple(ring, [(1, c) for c in classes])).terms:
            failures += 1
    _emit({"cases": cases, "failures": failures}, output)
    if failures:
        # an engine fault, not bad input: run() exits 2
        raise ArithmeticError("oracle disagreement in %d of %d cases" % (failures, cases))


def run():
    try:
        main(standalone_mode=False)
    except DescriptorError as exc:
        click.echo("descriptor error: %s" % exc, err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except Exception as exc:  # engine errors
        click.echo("engine error: %s" % exc, err=True)
        sys.exit(2)


if __name__ == "__main__":
    run()
