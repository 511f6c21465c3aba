"""The examples in the package's docstrings and in the README run and hold.

Tier-1 collects only ``tests/``, so without this gate a docstring example
could go stale unnoticed.
"""

import doctest
import importlib
import pkgutil
from pathlib import Path

import dualbraid

README = Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples_hold():
    attempted = 0
    failing = []
    for info in pkgutil.iter_modules(dualbraid.__path__):
        module = importlib.import_module(f"dualbraid.{info.name}")
        result = doctest.testmod(module)
        attempted += result.attempted
        if result.failed:
            failing.append(f"{info.name}: {result.failed} of {result.attempted}")
    assert not failing, failing
    assert attempted > 0


def test_readme_examples_hold():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0, result
    assert result.attempted > 0
