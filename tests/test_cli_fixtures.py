"""More CLI outputs pinned byte for byte: reports, exports, traces, tables.

``cli_fixtures.json`` holds, for each case below, the stdout, the exit code
and the text of the file the command wrote (``{out}`` in the argv names that
file).  Each case runs through ``cli.main`` in-process with the built-in gate
catalog.  After a deliberate output change, rewrite the fixtures from the
current tree with::

    PYTHONPATH=src python tests/test_cli_fixtures.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from revdec.cli import main

FIXTURES = Path(__file__).resolve().with_name("cli_fixtures.json")
BUILDS = ("rev_conventional", "rev_carry_skip")
ARCHS = ("conventional", "cla_verbatim", "cla_corrected", "carry_skip", *BUILDS)
GATES = ("FREDKIN", "TOFFOLI", "TS3", "NEW_GATE", "TSG")

CASES: dict[str, list[str]] = {
    "verify_json": ["verify", "--json", "{out}"],
    "errata_json": ["errata", "--json", "{out}"],
    **{f"metrics_{b}": ["metrics", "--arch", b] for b in BUILDS},
    **{
        f"export_{fmt}_{b}": ["export", "--arch", b, "--format", fmt, "--out", "{out}"]
        for b in BUILDS
        for fmt in ("json", "dot")
    },
    # 2 + 3 + 1 is where the as-given S2 equation first fails.
    **{
        f"simulate_trace_{a}": ["simulate", "--arch", a, "--a", "2", "--b", "3",
                                "--cin", "1", "--trace"]
        for a in ARCHS
    },
    **{f"truthtable_{g}": ["truthtable", "--gate", g] for g in GATES},
}


def run_case(argv: list[str], out: Path) -> dict:
    """Run one case; return its stdout, exit code and written file text."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(out) if arg == "{out}" else arg for arg in argv])
    written = out.read_text(encoding="utf-8") if "{out}" in argv else None
    return {"stdout": stdout.getvalue(), "exit_code": code, "file": written}


def test_every_case_has_a_fixture():
    assert sorted(json.loads(FIXTURES.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_fixture(name, tmp_path, monkeypatch):
    monkeypatch.delenv("REVDEC_GATE_DEFS", raising=False)
    expected = json.loads(FIXTURES.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name], tmp_path / "out") == expected


if __name__ == "__main__":
    os.environ.pop("REVDEC_GATE_DEFS", None)
    with tempfile.TemporaryDirectory() as scratch:
        doc = {name: run_case(argv, Path(scratch) / name) for name, argv in CASES.items()}
    FIXTURES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
