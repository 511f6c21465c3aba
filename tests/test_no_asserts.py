"""Library checks raise explicit exceptions, so ``python -O`` keeps them.

Python drops ``assert`` statements when run with ``-O``; this gate fails on
any left in the package's modules.
"""

import ast
from pathlib import Path

import dualbraid


def test_package_has_no_assert_statements():
    paths = sorted(Path(dualbraid.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        found += [f"{path.name}:{node.lineno}" for node in asserts]
    assert not found, f"assert statements vanish under python -O: {found}"
