"""The README's examples print what the README says they print.

Every line of a `sh` block that reads `hilbtaut ...  # -> expected` runs in
process through `cli.main`, and its stdout must be the expected text.  The
`python` blocks run in order in one namespace, one statement at a time: a
statement whose last line reads `# -> expected` must print the expected text,
and any other statement must print nothing.
"""

import ast
import contextlib
import io
import os
import re
import shlex

import pytest
from click.testing import CliRunner

from hilbtaut.cli import main

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def readme_examples():
    text = open(README).read()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.splitlines():
            command, marker, expected = line.partition("# -> ")
            if marker:
                examples.append((command.strip(), expected.strip()))
    return examples


EXAMPLES = readme_examples()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", open(README).read(), flags=re.M | re.S)


def test_readme_has_checked_examples():
    assert len(EXAMPLES) >= 3
    assert all(command.startswith("hilbtaut ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, expected):
    result = CliRunner().invoke(main, shlex.split(command)[1:])
    assert result.exit_code == 0, result.output
    assert result.output == expected + "\n"


def test_readme_python_blocks_print_what_they_mark():
    namespace = {}
    marked = 0
    for block in PYTHON_BLOCKS:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), README, "exec"), namespace)
            _, marker, expected = lines[stmt.end_lineno - 1].partition("# -> ")
            marked += bool(marker)
            want = expected.strip() + "\n" if marker else ""
            assert out.getvalue() == want, lines[stmt.lineno - 1]
    assert marked >= 2
