"""Every function of the package is entered by the command line.

The package holds library code only: a function that no subcommand reaches
is either reference code the tests compare against, which belongs under
tests/, or dead.  The test runs one invocation of each subcommand in-process
under `sys.setprofile` and reports every `def` in `src/hilbtaut` that was
never entered, apart from the allowlist below.
"""

import ast
import contextlib
import glob
import importlib
import io
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SAMPLE = os.path.join(ROOT, "sample-family.ini")
# two nodes over a surface base, one binding a boundary-base integral
SURFACE = os.path.join(ROOT, "tests", "two-node-surface.ini")

# defs the command line never enters, by dotted name, each with the reason it stays;
# `punctual-chern` text prints through `transfer.PunctualClass.__repr__`, so it is not here
ALLOWED = {
    **{
        cls + ".__repr__": "debugging display of a value; no command prints through it"
        for cls in ("basering.Ring", "basering.BaseClass", "charpoly.CharPoly", "family.Node",
                    "family.FamilyDescriptor", "tautmod.TautClass", "tensym.TensorClass")
    },
    "charpoly.CharPoly.__hash__": "keeps a polynomial usable as a dict key or set member",
    "cli.run": "the console-script entry point; the test calls `main` itself",
    "chern.trisecant_grand_total": "closed form the trisecant count is checked against",
    "chern.single_curve_trisecant_formula": "closed form the trisecant scroll is checked against",
    "chern.double_point_segre_route": "second route the double-point class is checked against",
}

ONE_POINT = {"m": 1, "diag": [{"base": [], "blocks": [[1, []]], "coeff": [[[], "1"]]}],
             "scroll": [], "section": []}
# a scroll and a section of the default family's node over a one-point payload
NODE_TERMS = {"m": 3, "diag": [],
              "scroll": [{"node": "s", "n": 2, "j": 1, "payload": ONE_POINT}],
              "section": [{"node": "s", "n": 2, "j": 1, "payload": ONE_POINT}]}

INVOCATIONS = [
    ["gamma-power", "--m", "3", "--k", "4", "--integrate", SAMPLE],
    ["gamma-power", "--m", "3", "--k", "3", "--output", "json"],
    ["gamma-power", "--m", "2", "--k", "2"],
    ["gamma-power", "--m", "2", "--k", "0"],
    ["chern", "--m", "3", "--output", "json", SAMPLE],
    ["chern", "--m", "3", "--closed-form"],
    ["chern-numbers", SAMPLE],
    ["formulary", SAMPLE],
    ["transfer", "--class-json", json.dumps(ONE_POINT), "--beta", "L*omega^1"],
    ["transfer", "--class-json", json.dumps(ONE_POINT), "--output", "json"],
    ["transfer", "--class-json", json.dumps(NODE_TERMS)],
    ["punctual-chern", "--m", "3"],
    ["punctual-chern", "--m", "3", "--output", "json", SAMPLE],
    ["pluecker", "--which", "s2", "--m", "3", SAMPLE],
    ["pluecker", "--which", "c2", "--m", "3"],
    ["trisecants", "--d", "5", "--g", "1", "--sigma", "2"],
    ["trisecants", "--single-curve", "--d", "5", "--g", "1"],
    ["double-points", "--n", "2", "--output", "json", SAMPLE],
    ["double-points", "--n", "3", SAMPLE],
    ["double-points", "--n", "4", SURFACE],
    ["double-points", "--n", "2", "--push-to-base"],
    ["oracle-check", "--cases", "2", "--output", "json"],
]


def defs(path):
    """(first line of the code object, dotted name) of every def in a module.

    A decorated function's code starts at its first decorator.
    """
    module = os.path.basename(path)[:-3]
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(open(path).read(), filename=path), module + ".")
    return out


def entered(argvs):
    """The package's directory, and (real file path, first line) of every
    code object the invocations enter.

    The package is imported afresh under the profiler, so the defs that run
    at import count too; the modules the other tests use are put back after.
    """
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    ours = [name for name in sys.modules if name.split(".")[0] == "hilbtaut"]
    saved = {name: sys.modules.pop(name) for name in ours}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        cli = importlib.import_module("hilbtaut.cli")
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv, standalone_mode=False)
    finally:
        sys.setprofile(previous)
        for name in [name for name in sys.modules if name.split(".")[0] == "hilbtaut"]:
            del sys.modules[name]
        sys.modules.update(saved)
    seen = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
    return os.path.dirname(cli.__file__), seen


def test_defs_follow_decorators(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f():\n    def g():\n        pass\n\n"
        "class C:\n    @staticmethod\n    @property\n    def h():\n        pass\n"
    )
    assert defs(str(path)) == [(1, "sample.f"), (2, "sample.f.g"), (6, "sample.C.h")]


def test_every_def_is_entered_by_the_command_line(tmp_path):
    # a genus with a matching twogm2: load_descriptor compares the two
    both = tmp_path / "genus-and-twogm2.ini"
    both.write_text("[family]\ndim_b = 1\ngenus = 2\n[characters]\ntwogm2 = 2\n")
    package, seen = entered(INVOCATIONS + [["pluecker", "--which", "c2", "--m", "3", str(both)]])
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert paths
    never = {
        name
        for path in paths
        for first, name in defs(path)
        if (os.path.realpath(path), first) not in seen
    }
    # an allowed def that a command enters, or that is gone, is reported too
    assert never == set(ALLOWED), "defs no command enters: %s; allowed but entered or gone: %s" % (
        sorted(never - set(ALLOWED)),
        sorted(set(ALLOWED) - never),
    )
