"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency; this gate fails on any
absolute import in the package's modules, at any depth, whose top-level
name is neither a standard-library module nor ``dualbraid`` itself.
"""

import ast
import sys
from pathlib import Path

import dualbraid


def test_package_imports_only_the_standard_library():
    paths = sorted(Path(dualbraid.__file__).parent.glob("*.py"))
    assert paths
    allowed = sys.stdlib_module_names | {"dualbraid"}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not found, f"imports outside the standard library: {found}"
