"""Every name a module of the package or of the tests imports is used in that module.

Each `src/hilbtaut/*.py` and `tests/*.py` is parsed with `ast`; an imported
name that no expression of the module reads is reported as `file:line: name`.
"""

import ast
import glob
import os

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, "..", "src", "hilbtaut")


def unused_imports(path):
    tree = ast.parse(open(path).read(), filename=path)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_imports_in(directory):
    """`file:line: name` for each unused import of the `*.py` files in `directory`."""
    paths = sorted(glob.glob(os.path.join(directory, "*.py")))
    assert paths
    return [
        "%s:%d: %s" % (os.path.basename(path), line, name)
        for path in paths
        for line, name in unused_imports(path)
    ]


def test_unused_imports_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\nfrom math import comb, factorial as fact\nimport json\n\n"
        "def f(x: comb) -> int:\n    return os.sep + json.dumps(x)\n"
    )
    assert unused_imports(str(path)) == [(3, "fact")]


def test_package_modules_use_every_import():
    problems = unused_imports_in(SRC)
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_test_modules_use_every_import():
    problems = unused_imports_in(TESTS)
    assert not problems, "unused imports:\n" + "\n".join(problems)
