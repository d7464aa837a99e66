"""The stdout of every subcommand, text and JSON, against a recorded golden file.

Each invocation runs in process through `cli.main`.  Descriptors are given as
paths relative to the repository root, which is the working directory while
they run, so no output depends on where the repository is checked out.

After a deliberate change of output, rewrite the golden file with
`PYTHONPATH=src python tests/test_cli_golden.py` and review its diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from hilbtaut.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")

# a Hilbert-degree-2 class: the two-point diagonal class twisted by L and omega
TWO_POINT_CLASS = json.dumps(
    {
        "m": 2,
        "diag": [
            {"base": [], "blocks": [[1, [["L", 1]]], [1, [["omega", 1]]]], "coeff": [[[], "1"]]}
        ],
        "scroll": [],
        "section": [],
    }
)


def _payload(terms):
    """A degree-1 payload on the boundary family: (base, twist, coefficient) per term."""
    diag = [{"base": b, "blocks": [[1, t]], "coeff": [[[], c]]} for b, t, c in terms]
    return {"m": 1, "diag": diag, "scroll": [], "section": []}


# a Hilbert-degree-3 class on tests/two-node-surface.ini whose node payloads
# are not proportional to the node weights: node p and node q each carry their
# own scroll and section over the same index (n, j) = (2, 1)
TWO_NODE_CLASS = json.dumps(
    {
        "m": 3,
        "diag": [
            {"base": [], "blocks": [[2, []], [1, [["L", 1]]]], "coeff": [[[], "1/2"]]}
        ],
        "scroll": [
            {"node": "p", "n": 2, "j": 1,
             "payload": _payload([([], [["L", 1]], "2"), ([["psi_x", 1]], [], "3")])},
            {"node": "q", "n": 2, "j": 1, "payload": _payload([([], [["omega", 1]], "1/5")])},
        ],
        "section": [
            {"node": "p", "n": 2, "j": 1, "payload": _payload([([["tauL", 1]], [], "7")])},
            {"node": "q", "n": 2, "j": 1,
             "payload": _payload([([], [], "4"), ([], [["theta_x", 1]], "-1")])},
        ],
    }
)
CLASSES = (TWO_POINT_CLASS, TWO_NODE_CLASS)

FAMILY_COMMANDS = [
    ["gamma-power", "--m", "2", "--k", "1"],
    ["gamma-power", "--m", "2", "--k", "3"],
    ["gamma-power", "--m", "3", "--k", "4", "--integrate"],
    ["chern", "--m", "3"],
    ["chern", "--m", "3", "--closed-form"],
    ["chern-numbers"],
    ["formulary"],
    ["transfer", "--class-json", TWO_POINT_CLASS, "--beta", "L"],
    ["punctual-chern", "--m", "3"],
    ["pluecker", "--which", "s2", "--m", "3"],
    ["pluecker", "--which", "c2", "--m", "3"],
    ["double-points", "--n", "2"],
    ["double-points", "--n", "3"],
    ["double-points", "--n", "2", "--push-to-base"],
]
PLAIN_COMMANDS = [
    ["trisecants"],
    ["trisecants", "--d", "6", "--g", "0", "--b", "0", "--lomega", "0", "--omega2", "0",
     "--sigma", "1"],
    ["trisecants", "--single-curve", "--d", "5", "--g", "1"],
    ["trisecants", "--single-curve", "--d", "7", "--g", "3"],
    ["oracle-check", "--cases", "5", "--seed", "3"],
    # on the default family; components 10 and 11 pin the numeric order of the JSON keys
    ["punctual-chern", "--m", "12"],
    # the --beta grammar: products, repeated names, a zero power, leading zeros, a
    # power far above the total space's dimension
    *(["transfer", "--class-json", TWO_POINT_CLASS, "--beta", beta]
      for beta in ("L*L", "omega*L", "L^0", "L^02", "L^1000000000")),
]
# two nodes with different weights, tau_L and IT values over a surface base:
# each node sector must be integrated with its own node's data
TWO_NODE_COMMANDS = [
    ["gamma-power", "--m", "2", "--k", "4", "--integrate", "--output", "text"],
    ["gamma-power", "--m", "2", "--k", "4", "--integrate", "--output", "json"],
    ["gamma-power", "--m", "3", "--k", "5", "--integrate", "--output", "text"],
    ["gamma-power", "--m", "4", "--k", "6", "--integrate", "--output", "text"],
    ["gamma-power", "--m", "2", "--k", "3", "--output", "json"],
    ["double-points", "--n", "3", "--output", "json"],
    ["double-points", "--n", "3", "--output", "text"],
    ["double-points", "--n", "4", "--output", "text"],
    ["double-points", "--n", "4", "--output", "json"],
    ["punctual-chern", "--m", "3", "--output", "json"],
    ["punctual-chern", "--m", "3", "--output", "text"],
    ["transfer", "--class-json", TWO_NODE_CLASS, "--beta", "L", "--output", "text"],
    ["transfer", "--class-json", TWO_NODE_CLASS, "--beta", "L", "--output", "json"],
]
# six nodes over a curve base: the node order a-f in the JSON and the text, and
# the 70-monomial formulary with six node weights
SIX_NODE_COMMANDS = [
    ["gamma-power", "--m", "3", "--k", "3", "--output", "json"],
    ["chern", "--m", "3", "--output", "text"],
    ["chern", "--m", "3", "--output", "json"],
    ["formulary", "--output", "text"],
    ["formulary", "--output", "json"],
]
INVOCATIONS = [
    argv + descriptor + ["--output", output]
    for output in ("text", "json")
    for argv, descriptor in (
        [(a, []) for a in FAMILY_COMMANDS]
        + [(a, ["sample-family.ini"]) for a in FAMILY_COMMANDS]
        + [(a, []) for a in PLAIN_COMMANDS]
    )
] + [
    argv[:-2] + [descriptor] + argv[-2:]
    for commands, descriptor in (
        (TWO_NODE_COMMANDS, "tests/two-node-surface.ini"),
        (SIX_NODE_COMMANDS, "tests/six-node-curve.ini"),
    )
    for argv in commands
]


def key(argv):
    return " ".join(argv)


def label(argv):
    return " ".join("<class>" if arg in CLASSES else arg for arg in argv)


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv, standalone_mode=False)
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_holds_exactly_these_invocations(golden):
    assert sorted(golden) == sorted(key(argv) for argv in INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=label)
def test_stdout_matches_golden(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert stdout_of(argv) == golden[key(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    recorded = {key(argv): stdout_of(argv) for argv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print("wrote %d invocations to %s" % (len(recorded), GOLDEN.name))
