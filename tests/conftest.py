"""Shared pytest plumbing for the suite.

The acceptance tests record one verdict line per criterion; this plugin
re-prints them in the terminal summary so the pass/fail lines stay visible
even when stdout capture is active.  It also holds the small readers and
writers that several test modules share.
"""

from pathlib import Path

from revdec.classical import (
    ARCHITECTURES,
    CLA_CORRECTED,
    CLA_VERBATIM,
    Architecture,
    BcdOperands,
    carry_skip_add,
    cla_add,
    conventional_add,
)
from revdec.verification import EQUATION_NAMES

ACCEPTANCE_LINES: list[str] = []

# The five built-in gate tables restated in the catalog text format.
GATE_DEFS = Path(__file__).resolve().parents[1] / "revbench" / "gate_defs.txt"

# Each classical registry row's digit and signal record, from the public
# functions.  The two CLA rows share one look-ahead layer, so each reads its
# signals from the other row's model.
PUBLIC_MODELS = {
    "conventional": conventional_add,
    "cla_verbatim": lambda op: (cla_add(op, CLA_VERBATIM),
                                ARCHITECTURES["cla_corrected"].model(op)[1]),
    "cla_corrected": lambda op: (cla_add(op, CLA_CORRECTED),
                                 ARCHITECTURES["cla_verbatim"].model(op)[1]),
    "carry_skip": carry_skip_add,
}


# The ``ones`` of a lane pass over all 512 input codes.
ALL_CODES = (1 << 512) - 1


def counting_row(row: Architecture, calls: list) -> Architecture:
    """``row`` with a lane function that appends each pass's ``ones`` to
    ``calls``: ``ALL_CODES`` for a sweep, 1 for one digit."""

    def lanes(a, b, cin, ones):
        calls.append(ones)
        return row.lanes(a, b, cin, ones)

    return Architecture(row.name, lanes, row.signals, exact=row.exact)


def scalar_lanes(add):
    """A lane design with no signals whose bit ``p`` is ``add(op)`` for the
    valid operands ``op`` that pattern ``p`` encodes (0 at invalid codes)."""

    def lanes(a, b, cin, ones):
        sums, cout = [0] * 4, 0
        for p in range(ones.bit_length()):
            x = sum((lane >> p & 1) << i for i, lane in enumerate((*a, *b, cin)))
            if x & 15 <= 9 and x >> 4 & 15 <= 9:
                result = add(BcdOperands(x & 15, x >> 4 & 15, x >> 8))
                for i in range(4):
                    sums[i] |= (result.sum >> i & 1) << p
                cout |= result.cout << p
        return sums, cout, ()

    return lanes


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
