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

from revdec.classical import ARCHITECTURES
from revdec.cli import main

REVBENCH = Path(__file__).resolve().parents[1] / "revbench"
GOLDEN = json.loads((REVBENCH / "golden.json").read_text(encoding="utf-8"))["commands"]


def test_all_five_commands_are_pinned():
    names = ["errata", "simulate", "simulate_digits", "table1", "verify"]
    assert sorted(GOLDEN) == names


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_and_exit_code_match_golden(capsys, name):
    case = GOLDEN[name]
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit_code"]


@pytest.mark.parametrize("defs", [None, REVBENCH / "gate_defs.txt"], ids=["builtin", "defs-file"])
@pytest.mark.parametrize("arch", [n for n, row in ARCHITECTURES.items() if row.exact])
def test_every_exact_row_chains_the_golden_digits(capsys, monkeypatch, arch, defs):
    if defs is None:
        monkeypatch.delenv("REVDEC_GATE_DEFS", raising=False)
    else:
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(defs))
    case = GOLDEN["simulate_digits"]
    assert case["argv"][:2] == ["simulate", "--arch"] and case["argv"][3] == "--digits"
    code = main(["simulate", "--arch", arch, *case["argv"][3:]])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit_code"]
