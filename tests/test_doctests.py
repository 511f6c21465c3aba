"""The examples in the package's docstrings and in the README run and hold.

Tier-1 collects only ``tests/``, so without this gate a docstring example
could go stale unnoticed.
"""

import doctest
import importlib
import pkgutil
import shlex
from pathlib import Path

import pytest

import dualbraid
from dualbraid.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """The ``dualbraid`` lines of the README's command-line block."""
    text = README.read_text()
    block = text[text.index("```sh", text.index("## Command line")) :]
    block = block[: block.index("```", 5)]
    return [line for line in block.splitlines() if line.startswith("dualbraid ")]


# the words differ in the classical braid group, so the example exits 1
README_EXIT = {'dualbraid eq B2 "sigma(1)*tau(1)" "tau(1)*sigma(1)" --classical': 1}


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


def test_readme_command_block_is_found():
    commands = _readme_commands()
    assert set(README_EXIT) <= set(commands)
    assert len(commands) >= 10


@pytest.mark.parametrize(
    "line", _readme_commands(), ids=lambda line: " ".join(shlex.split(line, comments=True)[1:])
)
def test_readme_commands_run(capsys, line):
    # a renamed flag or subcommand leaves no README example broken
    assert main(shlex.split(line, comments=True)[1:]) == README_EXIT.get(line, 0)
    assert capsys.readouterr().err == ""
