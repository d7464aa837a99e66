import ast
import json
import sys
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from hilbtaut.charpoly import CharPoly
from hilbtaut.chern import double_point_class, single_curve_trisecant_formula
from hilbtaut import cli
from hilbtaut.cli import DescriptorError, load_descriptor, main, run
from hilbtaut.family import symbolic_family
from hilbtaut.tautmod import from_data, gamma_power, integrate, to_data
from hilbtaut.tensym import TensorClass
from reference import u_omega_total


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, text, name="family.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_minimal_smooth(tmp_path):
    path = write(
        tmp_path,
        """
        [family]
        dim_b = 1
        """,
    )
    fam = load_descriptor(path)
    assert fam.dim_b == 1
    assert fam.nodes == []
    assert not fam.sigma()


def test_load_one_node(tmp_path):
    path = write(
        tmp_path,
        """
        [family]
        dim_b = 1
        genus = 2
        [characters]
        d = 7
        b = 3/2
        [node.s]
        weight = 1
        """,
    )
    fam = load_descriptor(path)
    assert fam.sigma() == CharPoly.const(1)
    assert fam.char("b") == CharPoly.const("3/2")
    assert fam.char("omega2") == CharPoly.symbol("omega2")
    # over a curve base the point node base drops theta^*L: the loader binds nothing
    assert fam.node("s").tau_L is None


def test_load_rejects_negative_weight(tmp_path):
    path = write(
        tmp_path,
        """
        [family]
        dim_b = 1
        [node.s]
        weight = -1
        """,
    )
    with pytest.raises(DescriptorError, match="positive"):
        load_descriptor(path)


def test_load_rejects_bad_dim(tmp_path):
    path = write(tmp_path, "[family]\ndim_b = 0\n")
    with pytest.raises(DescriptorError, match="dim_b"):
        load_descriptor(path)
    path = write(tmp_path, "[family]\nd = 1\n", name="f2.ini")
    with pytest.raises(DescriptorError, match="dim_b"):
        load_descriptor(path)


@pytest.mark.parametrize("genus", ["1/0", "x", "-1", "1/2", "5/2"])
def test_load_rejects_bad_genus(tmp_path, genus):
    path = write(tmp_path, "[family]\ndim_b = 1\ngenus = %s\n" % genus)
    with pytest.raises(DescriptorError, match=":3: genus"):
        load_descriptor(path)


@pytest.mark.parametrize("twogm2", ["7", "3/2", "t"])
def test_load_rejects_twogm2_conflicting_with_genus(tmp_path, monkeypatch, capsys, twogm2):
    text = "[family]\ndim_b = 1\ngenus = 2\n[characters]\ntwogm2 = %s\n" % twogm2
    path = write(tmp_path, text)
    message = ":5: twogm2 = %s conflicts with genus = 2 at .*:3 \\(2g - 2 = 2\\)" % twogm2
    with pytest.raises(DescriptorError, match=message):
        load_descriptor(path)
    assert _run_exit(monkeypatch, ["chern-numbers", path]) == 1
    assert "%s:5: twogm2" % path in capsys.readouterr().err


@pytest.mark.parametrize("genus, twogm2", [("2", "2"), ("0", "-2"), ("4/2", "6/3")])
def test_load_accepts_consistent_genus_and_twogm2(tmp_path, genus, twogm2):
    text = "[family]\ndim_b = 1\ngenus = %s\n[characters]\ntwogm2 = %s\n" % (genus, twogm2)
    fam = load_descriptor(write(tmp_path, text))
    assert fam.char("twogm2") == CharPoly.const(2 * Fraction(genus) - 2)


@pytest.mark.parametrize("dim_b", ["2", "4/2", "02"])
def test_load_reads_dim_b_as_any_rational_equal_to_an_integer(tmp_path, dim_b):
    assert load_descriptor(write(tmp_path, "[family]\ndim_b = %s\n" % dim_b)).dim_b == 2


@pytest.mark.parametrize("dim_b, message", [("3/2", "must be an integer, got '3/2'"),
                                            ("0/5", "must be >= 1")])
def test_load_rejects_dim_b_off_the_positive_integers(tmp_path, dim_b, message):
    path = write(tmp_path, "[family]\ndim_b = %s\n" % dim_b)
    with pytest.raises(DescriptorError, match=":2: dim_b %s" % message):
        load_descriptor(path)


def test_load_reads_a_ten_digit_integral_exponent(tmp_path):
    # canonical, so it reads; it never binds, being far above the boundary base's dimension
    key = "IT[p|1|L^1234567890]"
    text = "[family]\ndim_b = 2\n[node.p]\nweight = 1\n%s = 5\n" % key
    fam = load_descriptor(write(tmp_path, text))
    assert fam.node("p").psi_table == {key: CharPoly.const(5)}


def test_load_parse_error_has_line_number(tmp_path):
    path = write(tmp_path, "[family]\ndim_b = 1\nbroken line\n")
    with pytest.raises(DescriptorError, match=":3"):
        load_descriptor(path)


# integral keys the engine never builds: an exponent 1, an unknown symbol, names
# or factors out of order, a repeated name, a unit or empty part, a zero or
# padded exponent, a base symbol among the factors and a factor symbol in the base
NON_CANONICAL_INTEGRAL_KEYS = (
    "IT[p|psi_x^1|]",
    "IT[p|foo|]",
    "IT[p|psi_y*psi_x|]",
    "IT[p|psi_x*psi_x|]",
    "IT[p|psi_x|omega^2;L^2]",
    "IT[p|1|L*L]",
    "IT[p|1|1]",
    "IT[p|1|L^2;]",
    "IT[p||]",
    "IT[p|psi_x^0|]",
    "IT[p|psi_x^02|]",
    "IT[p|1|psi_x^2]",
    "IT[p|L|]",
    "IT[p|psi_x|]x",
    "IT[p|psi_x||]",
    "IT[p|1|L^0]",
    "IT[p|1|L ^2]",
    "IT[p| psi_x|]",
)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[family]\ndim_b = 1\n[characters]\nd = 3\nd = 5\n", 5, "repeated key d, first at "),
        (
            "[family]\ndim_b = 1\n[node.s]\nweight = 1\n[node.s]\nweight = 2\n",
            5,
            "repeated section [node.s]",
        ),
        ("[family]\ndim_b = 1\nfoo = 3\n", 3, "unknown key 'foo'; allowed keys: dim_b, genus"),
        (
            "[family]\ndim_b = 1\n[node.s]\nwieght = 1\n",
            4,
            "unknown key 'wieght'; allowed keys: weight, tauL, IT[...]",
        ),
        (
            "[family]\ndim_b = 1\n[characters]\nLomgea = 3\n",
            4,
            "unknown key 'Lomgea'; allowed keys: d, b, Lomega, omega2, twogm2",
        ),
        (
            "[family]\ndim_b = 2\n[node.s]\nweight = 1\nIT[nonsense = 3\n",
            5,
            "integral key 'IT[nonsense' must read IT[s|<base monomial>|<pushed factors>]",
        ),
        (
            "[family]\ndim_b = 2\n[node.s]\nweight = 1\nIT[t|psi_x|] = 3\n",
            5,
            "integral key 'IT[t|psi_x|]' must read IT[s|<base monomial>|<pushed factors>]",
        ),
        *(
            (
                "[family]\ndim_b = 2\n[node.p]\nweight = 1\n%s = 5\n" % key,
                5,
                "integral key %r must read IT[p|<base monomial>|<pushed factors>]" % key,
            )
            for key in NON_CANONICAL_INTEGRAL_KEYS
        ),
        ("[family]\ndim_b = 1\n[characters]\nd = 3/0\n", 4, "cannot parse value '3/0'"),
        ("[family]\ndim_b = 1\n[node.]\nweight = 1\n", 3, "empty node id"),
        ("[family]\ndim_b = 1\n[node.a|b]\nweight = 1\n", 3, "bad node id 'a|b'"),
        ("[family]\ndim_b = 1\n[node.x]y]\nweight = 1\n", 3, "bad node id 'x]y'"),
        ("[family]\ndim_b = 1\n[node.a b]\nweight = 1\n", 3, "bad node id 'a b'"),
        ("[family]\ndim_b = 1\n[node. p]\nweight = 1\n", 3, "bad node id ' p'"),
        ("[family]\ndim_b = 1\n[nodes]\n", 3, "unknown section [nodes]"),
        ("dim_b = 1\n[family]\n", 1, "key outside of any section"),
        ("[family]\ndim_b = one\n", 2, "dim_b must be an integer"),
        ("[family]\ndim_b = 1\n[node.s]\nweight = 1\ntauL = 3\n", 5, "tauL = 3, but dim_b = 1"),
        ("[family]\ndim_b = 1\n[node.s]\nweight = 1\ntauL = t\n", 5, "tauL = t, but dim_b = 1"),
    ],
    ids=[
        "repeated-key",
        "repeated-section",
        "unknown-family-key",
        "unknown-node-key",
        "unknown-character",
        "malformed-integral-key",
        "other-node-integral-key",
        *("non-canonical-integral-key-%s" % key for key in NON_CANONICAL_INTEGRAL_KEYS),
        "unparsable-value",
        "empty-node-id",
        "node-id-with-a-bar",
        "node-id-with-a-bracket",
        "node-id-with-a-space",
        "node-id-with-a-leading-space",
        "unknown-section",
        "key-before-any-section",
        "non-integer-dim-b",
        "numeric-tauL-over-a-curve",
        "symbolic-tauL-over-a-curve",
    ],
)
def test_ambiguous_or_unknown_descriptor_entries_exit_1(
    monkeypatch, capsys, tmp_path, text, line, message
):
    path = write(tmp_path, text)
    assert _run_exit(monkeypatch, ["chern-numbers", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "descriptor error: %s:%d: %s" % (path, line, message) in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[characters]\nd = 3\n", "[family] needs dim_b"),
        ("[family]\ndim_b = 1\n[node.s]\ntauL = 0\n", "node s needs a weight"),
        (None, "cannot read "),
    ],
    ids=["missing-dim-b", "node-without-weight", "unreadable-path"],
)
def test_descriptor_errors_without_a_line_exit_1(monkeypatch, capsys, tmp_path, text, message):
    path = write(tmp_path, text) if text is not None else str(tmp_path / "missing.ini")
    assert _run_exit(monkeypatch, ["chern-numbers", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "descriptor error: " in captured.err
    assert path in captured.err and message in captured.err


def test_tauL_zero_over_a_curve_and_three_over_a_surface_are_accepted(tmp_path):
    node = "[node.s]\nweight = 1\ntauL = %s\n"
    fam = load_descriptor(write(tmp_path, "[family]\ndim_b = 1\n" + node % "0"))
    assert fam.node("s").tau_L == CharPoly.const(0)
    fam = load_descriptor(write(tmp_path, "[family]\ndim_b = 2\n" + node % "3"))
    assert fam.node("s").tau_L == CharPoly.const(3)


@pytest.mark.parametrize(
    "tau, value, term",
    [
        (None, None, "5/2*IT[s|tauL|]"),
        ("3", CharPoly.const(3), "15/2*IT[s|1|]"),
        ("t", CharPoly.symbol("t"), "5/2*IT[s|1|]*t"),
    ],
    ids=["free", "numeric", "symbolic"],
)
def test_bound_theta_star_L_reaches_the_integral(runner, tmp_path, tau, value, term):
    text = "[family]\ndim_b = 2\n[node.s]\nweight = 1\n"
    free = integrate(double_point_class(load_descriptor(write(tmp_path, text, "free.ini")), 4))
    path = write(tmp_path, text + ("tauL = %s\n" % tau if tau else ""))
    result = runner.invoke(main, ["double-points", "--n", "4", path])
    assert result.exit_code == 0, result.output
    assert term in result.output.strip().split(" + ")
    # binding theta^*L = value turns the boundary integral of tauL into value times that of 1
    if value is not None:
        free = free.substitute({"IT[s|tauL|]": CharPoly.symbol("IT[s|1|]") * value})
    assert result.output.strip() == str(free)


def test_psi_table_value_reaches_the_integral(tmp_path):
    text = "[family]\ndim_b = 2\n[node.s]\nweight = sigma\n"
    path = write(tmp_path, text)
    symbolic = integrate(gamma_power(load_descriptor(path), 3, 5))
    assert "IT[s|psi_x|]" in {name for mono in symbolic.terms for name, _ in mono}
    write(tmp_path, text + "IT[s|psi_x|] = 7\n")
    bound = integrate(gamma_power(load_descriptor(path), 3, 5))
    assert bound == symbolic.substitute({"IT[s|psi_x|]": 7})


def test_canonical_integral_keys_are_bound(tmp_path):
    keys = ("IT[p|1|]", "IT[p|psi_x*psi_y^2|]", "IT[p|tauL|L*omega;L^2]", "IT[p|1|omega^12]")
    text = "[family]\ndim_b = 3\n[node.p]\nweight = 1\n"
    fam = load_descriptor(write(tmp_path, text + "".join("%s = 5\n" % key for key in keys)))
    assert fam.node("p").psi_table == {key: CharPoly.const(5) for key in keys}


def test_unknown_integral_names_ignore_the_path_spelling(runner, tmp_path, monkeypatch):
    write(tmp_path, "[family]\ndim_b = 2\n[node.s]\nweight = 1\n", name="d2.ini")
    monkeypatch.chdir(tmp_path)
    outputs = []
    for path in ("d2.ini", "./d2.ini", str(tmp_path / "d2.ini")):
        result = runner.invoke(main, ["gamma-power", "--m", "2", "--k", "4", "--integrate", path])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    assert "IT[X/B|1|omega^3]" in outputs[0]
    assert outputs[1:] == outputs[:1] * 2


def test_gamma_power_command(runner):
    result = runner.invoke(main, ["gamma-power", "--m", "3", "--k", "4", "--integrate"])
    assert result.exit_code == 0
    assert result.output.strip() == "13*omega2 - 9*sigma"


def test_gamma_power_beyond_the_top_degree_is_zero(runner):
    result = runner.invoke(main, ["gamma-power", "--m", "3", "--k", "100000000"])
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_pluecker_command(runner):
    result = runner.invoke(main, ["pluecker", "--which", "s2", "--m", "3"])
    assert result.exit_code == 0
    assert result.output.strip() == "6*L2 + 12*Lomega + 7*omega2 - 5*sigma"
    result = runner.invoke(main, ["pluecker", "--which", "c2", "--m", "2"])
    assert result.output.strip() == "L2 + Lomega"


def test_trisecants_command(runner):
    result = runner.invoke(
        main,
        ["trisecants", "--d", "6", "--g", "0", "--b", "0", "--lomega", "0",
         "--omega2", "0", "--sigma", "1"],
    )
    assert result.exit_code == 0
    assert result.output.strip() == "-2"


@pytest.mark.parametrize("d, g", [(3, 0), (5, 1), (6, 3)])
def test_trisecants_single_curve(runner, d, g):
    result = runner.invoke(main, ["trisecants", "--single-curve", "--d", str(d), "--g", str(g)])
    assert result.exit_code == 0, result.output
    expected = single_curve_trisecant_formula({"d": d, "twogm2": 2 * g - 2})
    assert result.output.strip() == str(expected)


@pytest.mark.parametrize("option", ["--b", "--lomega", "--omega2", "--sigma"])
def test_trisecants_single_curve_refuses_family_options(monkeypatch, capsys, option):
    argv = ["trisecants", "--single-curve", "--d", "5", "--g", "1", option, "3"]
    assert _run_exit(monkeypatch, argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'%s'" % option in captured.err


def test_structured_output_roundtrip(runner):
    result = runner.invoke(
        main, ["gamma-power", "--m", "3", "--k", "3", "--output", "json"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    fam = symbolic_family(1)
    rebuilt = from_data(fam, data)
    assert rebuilt == gamma_power(fam, 3, 3)


def test_structured_output_deterministic(runner):
    args = ["gamma-power", "--m", "3", "--k", "3", "--output", "json"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


def test_shipped_sample_descriptor(runner):
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "sample-family.ini")
    fam = load_descriptor(path)
    assert fam.dim_b == 1 and fam.sigma() == CharPoly.const(1)
    result = runner.invoke(
        main, ["gamma-power", "--m", "3", "--k", "4", "--integrate", path]
    )
    assert result.output.strip() == "-9 + 13*omega2"


def test_descriptor_flows_into_commands(runner, tmp_path):
    path = write(
        tmp_path,
        """
        [family]
        dim_b = 1
        [characters]
        omega2 = 4
        [node.s]
        weight = 2
        """,
    )
    result = runner.invoke(
        main,
        ["gamma-power", "--m", "2", "--k", "3", "--integrate", path],
    )
    assert result.exit_code == 0
    # omega2/2 - sigma/2 with omega2 = 4, sigma = 2
    assert result.output.strip() == "1"


def test_oracle_check_command(runner):
    result = runner.invoke(main, ["oracle-check", "--cases", "5"])
    assert result.exit_code == 0
    assert "failures = 0" in result.output


def test_oracle_check_draws_singleton_tensors_only(runner, monkeypatch):
    # on singleton blocks Gamma only unites pairs, so `oracle-check` compares the
    # pair union alone: the interior omega part it leaves out is zero on them
    built = []
    simple = TensorClass.simple

    def recording(ring, blocks):
        out = simple(ring, blocks)
        built.append(([n for n, _ in blocks], out))
        return out

    monkeypatch.setattr(TensorClass, "simple", staticmethod(recording))
    argvs = [["oracle-check", "--cases", "50", "--seed", str(seed)] for seed in range(5)]
    codes = [runner.invoke(main, argv).exit_code for argv in argvs]
    assert len(built) == 250
    for sizes, tensor in built:
        assert sizes and set(sizes) == {1}
        assert all(n == 1 for key in tensor.terms for n, _ in key)
        assert not u_omega_total(tensor)
    assert codes == [0] * 5


def test_chern_command(runner):
    result = runner.invoke(main, ["chern", "--m", "2", "--closed-form"])
    assert result.exit_code == 0
    assert "Gamma" in result.output


def test_transfer_command(runner):
    fam = symbolic_family(1)
    blob = json.dumps(to_data(gamma_power(fam, 2, 1)))
    result = runner.invoke(main, ["transfer", "--class-json", blob, "--beta", "L"])
    assert result.exit_code == 0
    assert "Gamma_(2,1)" in result.output


@pytest.mark.parametrize("power", ["30000000", "1000000000", "7" * 5000])
def test_transfer_by_a_huge_power_prints_zero(monkeypatch, capsys, power):
    # L^k vanishes for k above the total space's dimension, however many digits k has
    fundamental = json.dumps(to_data(gamma_power(symbolic_family(1), 1, 0)))
    argv = ["transfer", "--class-json", fundamental, "--beta", "L^" + power]
    monkeypatch.setattr(sys, "argv", ["hilbtaut"] + argv)
    run()
    assert capsys.readouterr().out == "0\n"


def test_double_points_command(runner):
    result = runner.invoke(main, ["double-points", "--n", "3"])
    assert result.exit_code == 0
    result = runner.invoke(main, ["double-points", "--n", "2", "--push-to-base"])
    assert result.exit_code == 0
    assert "kappaL_0" in result.output


EMPTY_CLASS = '{"m": 1, "diag": [], "scroll": [], "section": []}'


def _one_point_class(symbol, coeff):
    """Serialized `coeff` times the Hilbert-degree-1 class twisted by `symbol`."""
    term = {"base": [], "blocks": [[1, [[symbol, 1]]]], "coeff": [[[], coeff]]}
    return json.dumps({"m": 1, "diag": [term], "scroll": [], "section": []})


UNKNOWN_SYMBOL_CLASS = _one_point_class("foo", "1")
ZERO_DENOMINATOR_CLASS = _one_point_class("L", "1/0")


def _diag_class(m, blocks, base=(), coeff=(([], "1"),)):
    """Serialized class of Hilbert degree m with one diagonal term."""
    term = {"base": list(base), "blocks": blocks, "coeff": [list(c) for c in coeff]}
    return {"m": m, "diag": [term], "scroll": [], "section": []}


def _scroll_class(m, n, payload, node="s", j=1):
    """Serialized scroll F^{n,m}_j over `payload`, by default on the default family's node."""
    scroll = {"node": node, "n": n, "j": j, "payload": payload}
    return {"m": m, "diag": [], "scroll": [scroll], "section": []}


# classes `to_data` never writes; each must be refused, not transferred
MALFORMED_CLASSES = [
    _diag_class(2, [[2, []], [0, []]]),
    _diag_class(2, [[3, []], [-1, []]]),
    _diag_class(1, [[1.5, []]]),
    {"m": -1, "diag": [], "scroll": [], "section": []},
    {"m": 2.5, "diag": [], "scroll": [], "section": []},
    _diag_class(1, [[1, []]], base=[["L", -1]]),
    _diag_class(1, [[1, [["L", 0]]]]),
    _diag_class(1, [[1, [["L", 1], ["L", 1]]]]),
    _diag_class(1, [[1, [["omega", 1], ["L", 1]]]]),
    _diag_class(1, [[1, []]], coeff=[([["b", 0]], "1")]),
    _diag_class(1, [[1, []]], coeff=[([], "1"), ([], "2")]),
    _diag_class(1, [[1, []]], coeff=[]),
    *(
        _diag_class(1, [[1, []]], coeff=[([], value)])
        for value in ("2/4", "0.5", "1e3", " 3", "+3", 3, "0", "-0")
    ),
    _scroll_class(3, 2, _diag_class(4, [[1, []]] * 4, coeff=[([], "5")])),
    _scroll_class(3, 2, _diag_class(1, [[1, [["psi_x", 1]]]])),
    _scroll_class(3, 2, _diag_class(1, [[1, [["omega", 1], ["theta_x", 1]]]])),
    # a scroll index j = n: F^{n,m}_j needs j <= n - 1
    _scroll_class(3, 2, _diag_class(1, [[1, []]]), j=2),
    # a node the family does not have
    _scroll_class(3, 2, _diag_class(1, [[1, []]]), node="zz"),
    # a payload with a scroll of its own: boundary families have no nodes
    _scroll_class(5, 2, _scroll_class(3, 2, _diag_class(1, [[1, []]]))),
    # a bad scroll index on a zero payload: the index is checked before the zero is dropped
    _scroll_class(2, 2, {"m": 0, "diag": [], "scroll": [], "section": []}, j=5),
    # coefficient symbols in the engine's `#` tag namespace: a node tag, a Chern-number tag
    _scroll_class(3, 2, _diag_class(1, [[1, []]], coeff=[([["#node.s", 1]], "1")])),
    _diag_class(1, [[1, []]], coeff=[([["#c1^4", 1]], "2")]),
    # coefficient symbols no descriptor can spell; the empty name would print as a constant
    *(_diag_class(1, [[1, []]], coeff=[([[name, 1]], "1")]) for name in ("", "a b", "_", "1x")),
    # sectors that are not lists, and keys `to_data` never writes
    {"m": 1, "diag": {}, "scroll": [], "section": []},
    {"m": 1, "diag": "", "scroll": [], "section": []},
    {"m": 3, "diag": [], "scroll": {}, "section": []},
    {"m": 1, "diag": [], "scroll": [], "section": [], "extra": []},
    {"m": 1, "diag": [{"base": [], "blocks": [[1, []]], "coeff": [[[], "1"]], "extra": 1}],
     "scroll": [], "section": []},
    {"m": 3, "diag": [], "section": [],
     "scroll": [{"node": "s", "n": 2, "j": 1, "payload": _diag_class(1, [[1, []]]), "extra": 1}]},
]


@pytest.mark.parametrize("name", ["", "a b", "_", "1x", "#c1", "c1^4", "x_1", "_a", "a_", "sigma"])
def test_class_json_takes_the_symbol_names_a_descriptor_takes(name):
    try:
        cli._parse_value(name, "here")
        spelled = True
    except DescriptorError:
        spelled = False
    try:
        from_data(symbolic_family(1), _diag_class(1, [[1, []]], coeff=[([[name, 1]], "1")]))
        read = True
    except ValueError:
        read = False
    assert spelled == read == (name in ("x_1", "_a", "a_", "sigma"))


# a valid value for each required option, so that only the probed option is bad
REQUIRED_VALUES = {"m": "3", "k": "4", "n": "3", "which": "s2", "class_json": EMPTY_CLASS}
# a bad value for each free-text option: not a rational p/q, not a class, not a power
BAD_TEXT = {"class_json": "{}", "beta": "foo"}


def _bad_value(param):
    if isinstance(param.type, click.IntRange):
        return str(param.type.min - 1)
    if isinstance(param.type, click.Choice):
        return "none-of-these"
    if param.type is click.INT:
        return "twelve"
    return BAD_TEXT.get(param.name, "x")


def _every_option_with_a_bad_value():
    """(argv, option) for each value-taking option of each subcommand, read from click.

    A new option is probed too.  Only the probed option is bad.
    """
    for name, command in sorted(main.commands.items()):
        for param in command.params:
            if not isinstance(param, click.Option) or param.is_flag:
                continue
            argv = [name]
            for other in command.params:
                if other.required and other is not param:
                    argv += [other.opts[0], REQUIRED_VALUES[other.name]]
            yield argv + [param.opts[0], _bad_value(param)], param.opts[0]


def _run_exit(monkeypatch, argv):
    """Exit code of the entry point run in process on `argv`."""
    monkeypatch.setattr(sys, "argv", ["hilbtaut"] + argv)
    with pytest.raises(SystemExit) as exc:
        run()
    return exc.value.code


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gamma-power", "--m", "3", "--k", "-1"], "--k"),
        (["chern", "--m", "0"], "--m"),
        (["punctual-chern", "--m", "0"], "--m"),
        (["oracle-check", "--cases", "-3"], "--cases"),
        (["gamma-power", "--m", "-1", "--k", "2"], "--m"),
        (["gamma-power", "--m", "3", "--k", "2", "--integrate"], "--k"),
        (["pluecker", "--which", "s2", "--m", "0"], "--m"),
        (["pluecker", "--which", "c2", "--m", "-2"], "--m"),
        (["double-points", "--n", "-1"], "--n"),
        (["trisecants", "--d", "abc"], "--d"),
        (["trisecants", "--d", "1/0"], "--d"),
        (["trisecants", "--sigma", "x"], "--sigma"),
        (["trisecants", "--sigma", "0"], "--sigma"),
        (["trisecants", "--g", "-1"], "--g"),
        (["trisecants", "--d", "5", "--g", "1/2", "--sigma", "2"], "--g"),
        (["trisecants", "--single-curve", "--d", "5", "--g", "3/2"], "--g"),
        (["transfer", "--class-json", "{}"], "--class-json"),
        (["transfer", "--class-json", "[1"], "--class-json"),
        (["transfer", "--class-json", UNKNOWN_SYMBOL_CLASS], "--class-json"),
        (["transfer", "--class-json", ZERO_DENOMINATOR_CLASS], "--class-json"),
        (["transfer", "--class-json", EMPTY_CLASS, "--beta", "foo"], "--beta"),
        (["transfer", "--class-json", EMPTY_CLASS, "--beta", "L^x"], "--beta"),
        (["transfer", "--class-json", EMPTY_CLASS, "--beta", "L^"], "--beta"),
        (["transfer", "--class-json", EMPTY_CLASS, "--beta", "L^ *omega"], "--beta"),
        (["transfer", "--class-json", EMPTY_CLASS, "--beta", "L^\u0663"], "--beta"),
        (["transfer", "--class-json", EMPTY_CLASS, "--beta", "1*L"], "--beta"),
        (["transfer", "--class-json", EMPTY_CLASS, "--beta", ""], "--beta"),
        *(
            (["transfer", "--class-json", json.dumps(c)], "--class-json")
            for c in MALFORMED_CLASSES
        ),
        *_every_option_with_a_bad_value(),
    ],
)
def test_out_of_range_option_exits_1(monkeypatch, capsys, argv, option):
    assert _run_exit(monkeypatch, argv) == 1
    assert "'%s'" % option in capsys.readouterr().err


def test_integrate_off_top_degree_names_the_top_degree(monkeypatch, capsys):
    argv = ["gamma-power", "--m", "3", "--k", "2", "--integrate"]
    assert _run_exit(monkeypatch, argv) == 1
    assert "k = m + dim_b = 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pluecker", "--which", "c2", "--m", "3"],
        ["pluecker", "--which", "s2", "--m", "3"],
        ["formulary"],
        ["chern-numbers"],
    ],
)
def test_curve_base_commands_refuse_other_base_dimensions(monkeypatch, capsys, tmp_path, argv):
    path = write(tmp_path, "[family]\ndim_b = 2\n[node.s]\nweight = 1\n")
    assert _run_exit(monkeypatch, argv + [path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "descriptor error: %s: dim_b = 2" % path in captured.err


def test_engine_fault_exits_2(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("broken engine")

    monkeypatch.setattr("hilbtaut.cli.gamma_power", broken)
    assert _run_exit(monkeypatch, ["gamma-power", "--m", "2", "--k", "3"]) == 2
    assert "engine error: broken engine" in capsys.readouterr().err


def test_an_interrupted_command_exits_1(monkeypatch):
    # click turns an interrupt inside a command into Abort, which is no engine fault
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr("hilbtaut.cli.gamma_power", interrupted)
    assert _run_exit(monkeypatch, ["gamma-power", "--m", "2", "--k", "3"]) == 1


def test_oracle_disagreement_exits_2(monkeypatch, capsys):
    # a discriminant operator that forgets the block unions disagrees with the oracle
    monkeypatch.setattr("hilbtaut.tensym.discriminant_op", lambda t: t)
    assert _run_exit(monkeypatch, ["oracle-check", "--cases", "3"]) == 2
    captured = capsys.readouterr()
    assert "failures = 0" not in captured.out
    assert "engine error: oracle disagreement" in captured.err


def test_exit_codes_through_entry_point(tmp_path):
    import subprocess
    import sys

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "hilbtaut.cli"] + list(args),
            capture_output=True,
            text=True,
        )

    ok = run("gamma-power", "--m", "2", "--k", "3", "--integrate")
    assert ok.returncode == 0

    bad = write(tmp_path, "[family]\ndim_b = 0\n")
    invalid = run("gamma-power", "--m", "2", "--k", "3", bad)
    assert invalid.returncode == 1
    assert "descriptor error" in invalid.stderr

    malformed = run("transfer", "--class-json", '{"m": 1, "diag": [], "bad": []}')
    assert malformed.returncode == 1
    assert "'--class-json'" in malformed.stderr


def test_only_the_emitter_picks_the_output_form():
    """No command serializes, renders or stringifies its result: `_emit` does, once.

    `repr` is not counted, since `trisecants` also quotes a flag name with it.
    """
    callers = set()
    for fn in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    if name in ("to_data", "render", "str"):
                        callers.add(fn.name)
    assert callers == {"_emit"}
