"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def test_library_example_prints_its_commented_results(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    metrics, digit, json_head = capsys.readouterr().out.split("\n", 2)
    assert metrics.startswith("{'gates': 17, 'garbage': 21, ")
    assert digit == "BcdResult(sum=6, cout=1)"
    assert json_head.startswith('{\n  "name": "bcd_adder_carry_skip"')
