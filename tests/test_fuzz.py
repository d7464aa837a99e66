"""Bad input exits 1: mutated descriptors and serialized classes reach the engine.

A hypothesis property mutates the shipped `sample-family.ini` (inserts,
replaces, deletes or garbles lines, or rewrites values, from fixed token lists) and serialized classes
(replaces, drops or duplicates JSON nodes), then runs a drawn subcommand in
process.  The only exceptions allowed are `DescriptorError`, whose message
names the descriptor, and click's usage errors, which the entry point turns
into exit 1; anything else would exit 2, the code kept for engine faults.
The runs are derandomized, so a failure reproduces.
"""

import contextlib
import copy
import io
import json
import os

import click
from hypothesis import HealthCheck, given, settings, strategies as st

from hilbtaut.cli import DescriptorError, main
from hilbtaut.family import symbolic_family
from hilbtaut.tautmod import gamma_power, to_data

SAMPLE = os.path.join(os.path.dirname(__file__), "..", "sample-family.ini")

# cheap subcommands that read a descriptor
COMMANDS = (
    ["gamma-power", "--m", "2", "--k", "3"],
    ["gamma-power", "--m", "2", "--k", "3", "--integrate"],
    ["chern", "--m", "2", "--output", "json"],
    ["punctual-chern", "--m", "3"],
    ["pluecker", "--which", "s2", "--m", "3"],
    ["double-points", "--n", "2"],
    ["transfer", "--class-json", json.dumps(to_data(gamma_power(symbolic_family(1), 2, 1)))],
)

LINE_TOKENS = (
    "[family]", "[characters]", "[node.s]", "[node.t]", "[node.]", "[node.a b]", "[nodes]",
    "dim_b = 2", "dim_b = 0", "dim_b = x", "genus = 3", "genus = -1", "genus = 1/2",
    "d = 1/0", "d = x y", "b = 7", "twogm2 = 5", "weight = 0", "weight = -1/2",
    "weight = w", "tauL = 4", "tauL = t", "IT[s|psi_x|] = 2", "IT[s|psi_x^1|] = 2",
    "IT[s|1|L^2] = 1/3", "IT[t|1|] = 1", "IT[", "=", "key", "# comment",
)
VALUE_TOKENS = ("0", "1", "-1", "2", "3", "1/2", "-7/3", "99", "x", "w_2", "3/0", "", "1e3", "2g")
TEXT_TOKENS = ("=", "[", "]", "#", ".", "|", "^", "*", "/", "-", " ", "0", "9", "x", "IT[", "node")

# JSON values that stand in for a node of a serialized class
JSON_TOKENS = (
    0, 1, -1, 2, 10**30, 1.5, True, None, "", "1", "-1/2", "2/4", "x", "L", "psi_x",
    [], {}, [["L", 1]], [["L", 0]], [[], "1"], {"m": 0}, "s", "zz",
)

# a node scroll and a node section over one-point payloads, on the default family
ONE_POINT = {"m": 1, "diag": [{"base": [], "blocks": [[1, []]], "coeff": [[[], "1"]]}],
             "scroll": [], "section": []}
CLASSES = (
    to_data(gamma_power(symbolic_family(1), 3, 2)),
    {"m": 3, "diag": [],
     "scroll": [{"node": "s", "n": 2, "j": 1, "payload": ONE_POINT}],
     "section": [{"node": "s", "n": 2, "j": 1, "payload": ONE_POINT}]},
)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_in_process(argv):
    """Run the CLI on `argv`; returns the exception it raised, if any allowed one."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv, standalone_mode=False)
    except (DescriptorError, click.ClickException, click.exceptions.Abort) as exc:
        return exc
    return None


@st.composite
def mutated_lines(draw, lines, actions=("insert", "replace", "delete", "garble", "revalue")):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        # sampled, not drawn as an integer: integers lean to 0, the [family] line
        where = draw(st.sampled_from(range(len(lines) + 1)))
        action = draw(st.sampled_from(actions))
        if action == "insert" or not lines:
            lines.insert(where, draw(st.sampled_from(LINE_TOKENS)))
            continue
        where = min(where, len(lines) - 1)
        if action == "replace":
            lines[where] = draw(st.sampled_from(LINE_TOKENS))
        elif action == "delete":
            del lines[where]
        elif action == "revalue":
            key, equals, _ = lines[where].partition("=")
            if equals:  # a section header keeps its line
                lines[where] = "%s= %s" % (key, draw(st.sampled_from(VALUE_TOKENS)))
        else:
            line = lines[where]
            cut = draw(st.sampled_from(range(len(line) + 1)))
            end = draw(st.sampled_from(range(cut, len(line) + 1)))
            lines[where] = line[:cut] + draw(st.sampled_from(TEXT_TOKENS)) + line[end:]
    return lines


def json_paths(node, path=()):
    """Every path into a JSON tree, the root's included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_class(draw):
    data = copy.deepcopy(draw(st.sampled_from(CLASSES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(data))))
        if not path:
            data = draw(st.sampled_from(JSON_TOKENS))
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(JSON_TOKENS)))
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(parent[key])
        if not isinstance(data, (dict, list)):
            break
    return data


# the sample's lines that say something: mutations land between keys, not in comments
SAMPLE_LINES = [line for line in open(SAMPLE).read().splitlines() if line.split("#")[0].strip()]


@settings(FUZZ, max_examples=60)
@given(
    # value rewrites alone mostly keep the file well formed, so they reach the engine
    lines=mutated_lines(SAMPLE_LINES) | mutated_lines(SAMPLE_LINES, ("revalue",)),
    argv=st.sampled_from(COMMANDS),
)
def test_mutated_descriptor_is_bad_input_or_runs(tmp_path_factory, lines, argv):
    path = str(tmp_path_factory.mktemp("fuzz") / "family.ini")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    exc = run_in_process(argv + [path])
    if isinstance(exc, DescriptorError):
        assert path in str(exc)


@settings(FUZZ, max_examples=120)
@given(data=mutated_class(), beta=st.sampled_from(["1", "L", "omega^2"]))
def test_mutated_class_is_bad_input_or_transfers(data, beta):
    exc = run_in_process(["transfer", "--class-json", json.dumps(data), "--beta", beta])
    if exc is not None:
        assert isinstance(exc, click.BadParameter) and exc.param_hint == "'--class-json'", exc
