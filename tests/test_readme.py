"""README's Python quick start and command-line examples run, and print the
figures their comments quote."""

import re
import shlex
from pathlib import Path

import pytest

from vurkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# a figure quoted to the 9 decimals the text output prints
_FIGURE = re.compile(r"\d+\.\d{9}\b")


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


EXAMPLES = [line for line in _block("Command line", "sh").splitlines() if line.startswith("vurkit ")]


def test_readme_python_quick_start(capsys):
    # every word a print line's comment quotes, "..." aside, is in the output
    block = _block("Python quick start", "python")
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    quoted = [word.removesuffix("...") for line in block.splitlines() if line.startswith("print(")
              for word in line.partition("#")[2].split()]
    assert len(quoted) >= 5
    for word in quoted:
        assert word in out, f"{word} not in the quick start's output"


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
