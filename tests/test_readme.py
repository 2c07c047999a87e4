"""The README's library example and commented command lines run and
print what their comments say."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from revdec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {heading}\n\n```{language}\n(.*?)^```", text, re.M | re.S)
    assert match, f"README.md has no {language} block under '## {heading}'"
    return match.group(1)


def library_example() -> str:
    return readme_block("Library example", "python")


# The command lines that carry a comment, as (arguments, comment) pairs.
COMMENTED = [
    (shlex.split(command), comment.strip())
    for command, sep, comment in (
        line.partition("#") for line in readme_block("Command line", "sh").splitlines()
    )
    if sep
]


def test_library_example_prints_its_commented_results(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    metrics, digit, json_head = capsys.readouterr().out.split("\n", 2)
    assert metrics.startswith("{'gates': 17, 'garbage': 21, ")
    assert digit == "BcdResult(sum=6, cout=1)"
    assert json_head.startswith('{\n  "name": "bcd_adder_carry_skip"')


def test_the_command_block_has_its_commented_lines():
    assert len(COMMENTED) == 8
    assert all(argv[0] == "revdec" for argv, _ in COMMENTED)


@pytest.mark.parametrize("argv,comment", COMMENTED, ids=[c for _, c in COMMENTED])
def test_a_commented_command_does_what_its_comment_says(capsys, argv, comment):
    # ``sum=...`` is the last stdout line, ``exit N`` the exit code, and any
    # other comment describes a command that succeeds.
    code = main(argv[1:])
    out = capsys.readouterr().out
    exit_code = re.match(r"exit (\d+)", comment)
    assert code == (int(exit_code.group(1)) if exit_code else 0)
    if comment.startswith("sum="):
        assert out.splitlines()[-1] == comment
