"""The fixed CLI outputs, byte for byte, against the benchmark's golden file.

``revbench/golden.json`` stores the stdout and exit code of each fixed
command as a cold ``revdec`` process printed them.  Here each one runs
through ``cli.main`` in-process, so tier-1 catches any drift without
spawning a process per command.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from revdec.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "revbench" / "golden.json").read_text(
        encoding="utf-8"
    )
)["commands"]


def test_all_five_commands_are_pinned():
    names = ["errata", "simulate", "simulate_digits", "table1", "verify"]
    assert sorted(GOLDEN) == names


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_and_exit_code_match_golden(capsys, name):
    case = GOLDEN[name]
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit_code"]
