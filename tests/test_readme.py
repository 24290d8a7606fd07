"""README's command-line examples run, and print the figures their comments quote."""

import re
import shlex
from pathlib import Path

import pytest

from vurkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# a figure quoted to the 9 decimals the text output prints
_FIGURE = re.compile(r"\d+\.\d{9}\b")


def _examples() -> list[str]:
    """Each ``vurkit ...`` line of the first ``sh`` block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("vurkit ")]


EXAMPLES = _examples()


def test_readme_quotes_command_line_examples():
    assert len(EXAMPLES) >= 6
    assert any(_FIGURE.search(line.partition("#")[2]) for line in EXAMPLES)


@pytest.mark.parametrize("line", EXAMPLES, ids=[line.partition("#")[0].strip() for line in EXAMPLES])
def test_readme_command_line_example(capsys, line):
    command, _, comment = line.partition("#")
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    for figure in _FIGURE.findall(comment):
        assert figure in out, f"{figure} not in the output of {command.strip()!r}"
