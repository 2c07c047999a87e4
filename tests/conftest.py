"""Shared pytest plumbing for the suite.

The acceptance tests record one verdict line per criterion; this plugin
re-prints them in the terminal summary so the pass/fail lines stay visible
even when stdout capture is active.  It also holds the small readers and
writers that several test modules share.
"""

from pathlib import Path

from revdec.classical import (
    CLA_CORRECTED,
    CLA_VERBATIM,
    carry_skip_add,
    cla_add,
    cla_signals,
    conventional_add,
)
from revdec.verification import EQUATION_NAMES

ACCEPTANCE_LINES: list[str] = []

# The five built-in gate tables restated in the catalog text format.
GATE_DEFS = Path(__file__).resolve().parents[1] / "revbench" / "gate_defs.txt"

# Each classical registry row's digit and signal record, from the public
# functions.
PUBLIC_MODELS = {
    "conventional": conventional_add,
    "cla_verbatim": lambda op: (cla_add(op, CLA_VERBATIM), cla_signals(op)),
    "cla_corrected": lambda op: (cla_add(op, CLA_CORRECTED), cla_signals(op)),
    "carry_skip": carry_skip_add,
}


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def gate_outputs(gate, *bits: int) -> tuple[int, ...]:
    """Evaluate ``gate`` as ``gate.table[p]``: line bits in, line bits out.

    Line ``i`` is bit ``i`` of the pattern, on both sides.
    """
    pattern = sum(bit << i for i, bit in enumerate(bits))
    out = gate.table[pattern]
    return tuple((out >> i) & 1 for i in range(gate.width))


def equation_bit(result, equation: str) -> int:
    """The bit of ``result`` that one as-given equation (``S0_VERBATIM`` ..
    ``COUT_VERBATIM``) computes: sum bits 0-3, then the carry."""
    return (*result.sum_bits(), result.cout)[EQUATION_NAMES.index(equation)]


def gate_line(gate) -> str:
    """``gate`` as one line of a gate-definition file: ``NAME WIDTH P0 P1 ...``."""
    return " ".join([gate.name, str(gate.width), *map(str, gate.table)])
