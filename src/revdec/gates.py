"""Reversible gates represented as verified permutation tables.

A reversible gate on ``k`` lines is a bijection over the ``2**k`` input
patterns.  Every gate in this package is stored as an explicit permutation
table so that reversibility is a property checked on the data, not a promise
attached to a formula.  Line 0 is the top line of a circuit diagram and maps
to bit 0 (the least significant bit) of a pattern integer; a pattern integer
therefore reads bottom-up when written in binary.

The module ships five built-in gates (FREDKIN, TOFFOLI, TS3, NEW_GATE, TSG).
Their tables are generated from their defining boolean output functions at
import time and validated by the same bijectivity check applied to
user-supplied tables.  A plain-text catalog format lets callers replace any
built-in table, for example after re-measuring a gate from a schematic,
without touching code (see :func:`parse_gate_defs` and
:func:`catalog_from_env`).

A gate's :attr:`~GatePermutation.lane_function` evaluates it bitsliced, over
lanes whose bit ``p`` is a line's value under pattern ``p``; each distinct
table compiles once per process from its output columns' covers.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache

from ._record import record
from .sop import compile_lanes, derive_sop

__all__ = [
    "MAX_WIDTH",
    "ENV_GATE_DEFS",
    "NotBijective",
    "WidthMismatch",
    "UnknownGate",
    "ParseError",
    "BitVector",
    "GatePermutation",
    "builtin_catalog",
    "catalog_from_env",
    "parse_gate_defs",
]

# Permutation tables grow as 2**width; eight lines (256 entries) is far more
# than any circuit here needs while keeping accidental huge tables out.
MAX_WIDTH = 8

# Environment variable naming a gate-definition text file whose entries
# override the built-in tables (used by the command line interface).
ENV_GATE_DEFS = "REVDEC_GATE_DEFS"


class NotBijective(ValueError):
    """A gate table maps two input patterns to the same output pattern."""


class WidthMismatch(ValueError):
    """A bit pattern was applied to a circuit of a different line count."""


class UnknownGate(ValueError):
    """A gate name was requested that no catalog entry defines."""


class ParseError(ValueError):
    """Malformed textual gate definitions or netlist serializations."""


@record
class BitVector:
    """A fixed-width bit pattern.

    Bit ``i`` of ``value`` is the value carried on line ``i``; bit 0 is the
    least significant.  Instances are immutable and hashable so they can be
    used as dictionary keys when sweeping pattern spaces.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if type(self.width) is not int or self.width < 1:
            raise ValueError(f"width must be a positive integer, got {self.width!r}")
        if type(self.value) is not int or not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"value {self.value!r} does not fit in {self.width} bits"
            )

    def __int__(self) -> int:
        return self.value


@record
class GatePermutation:
    """A named reversible gate: a validated permutation of input patterns.

    ``table[p]`` is the output pattern produced by input pattern ``p``; that
    lookup is how every caller evaluates a gate.  Any sequence of ints is
    accepted as the table and stored as a tuple.
    Construction fails with :class:`NotBijective` if any output pattern
    repeats, so holding an instance is proof the gate loses no information;
    other problems (a name that is not a non-empty upper-case string of
    printable ASCII without whitespace, a width that is not an ``int`` in range, a table
    that is no sequence or has a wrong length, entries out of range) raise ``ValueError``.
    The table is walked entry by entry, so an error names its first fault.
    :attr:`lane_function` evaluates the gate over bit lanes.
    """

    name: str
    width: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        # parse_gate_defs must read the name back as one field of a line, and
        # a reader must see every character of it (no invisible marks).
        name = self.name
        if not (isinstance(name, str) and name.isascii() and name.isprintable()
                and name.split() == [name]):
            raise ValueError(
                "gate name must be a non-empty string of printable ASCII without "
                f"whitespace, got {name!r}"
            )
        # The catalog reads names case-insensitively (parse_gate_defs and
        # the CLI upper-case them), so only upper case round-trips.
        if self.name != self.name.upper():
            raise ValueError(f"gate name must be upper case, got {self.name!r}")
        if type(self.width) is not int or not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(
                f"gate width must be between 1 and {MAX_WIDTH}, got {self.width!r}"
            )
        # A dict or a set would iterate as its keys, not as the table it spells.
        if not isinstance(self.table, Sequence):
            raise ValueError(f"gate {self.name!r} table must be a sequence, "
                             f"not a {type(self.table).__name__}")
        object.__setattr__(self, "table", tuple(self.table))
        size = 1 << self.width
        if len(self.table) != size:
            raise ValueError(
                f"gate {self.name!r} of width {self.width} needs a table of "
                f"{size} entries, got {len(self.table)}"
            )
        seen: dict[int, int] = {}
        for pattern, out in enumerate(self.table):
            if type(out) is not int or not 0 <= out < size:
                raise ValueError(
                    f"gate {self.name!r} table entry {pattern} is {out!r}, "
                    f"expected an integer in [0, {size})"
                )
            if out in seen:
                raise NotBijective(
                    f"gate {self.name!r} is not reversible: inputs "
                    f"{seen[out]} and {pattern} both map to output {out}"
                )
            seen[out] = pattern

    @cached_property
    def lane_function(self) -> Callable[..., tuple]:
        """The gate over lanes: ``lane_function(ones, *lanes)`` gives the output
        lines' lanes; ``ones`` has a 1 in every lane bit in use."""
        return _lane_function(self.width, self.table)


@lru_cache(maxsize=256)
def _lane_function(width: int, table: tuple[int, ...]) -> Callable[..., tuple]:
    """One gate table's lane function, compiled once per process from each
    output line's cover."""
    return compile_lanes(width, [
        derive_sop(width, [p for p, out in enumerate(table) if out >> j & 1])
        for j in range(width)])


def _table_from_function(width, fn):
    """Tabulate a bit-level output function over every input pattern."""
    rows = []
    for pattern in range(1 << width):
        in_bits = tuple((pattern >> i) & 1 for i in range(width))
        out_bits = fn(*in_bits)
        value = 0
        for i, bit in enumerate(out_bits):
            value |= bit << i
        rows.append(value)
    return tuple(rows)


def _fredkin(a, b, c):
    # Controlled swap: line 0 passes through and selects whether lines 1 and
    # 2 exchange their values.
    if a:
        return (a, c, b)
    return (a, b, c)


def _toffoli(a, b, c):
    # Controlled-controlled NOT: lines 0 and 1 pass through, line 2 picks up
    # their AND.
    return (a, b, c ^ (a & b))


def _ts3(a, b, c):
    # Double pass-through with a three-way parity on the last line.
    return (a, b, a ^ b ^ c)


def _new_gate(a, b, c):
    # First line passes through; the second accumulates a controlled AND and
    # the third computes a NOR-flavored mix of all three lines.
    return (a, (a & b) ^ c, ((a ^ 1) & (c ^ 1)) ^ (b ^ 1))


def _tsg(a, b, c, d):
    # Four-line gate whose second output q feeds the remaining two outputs.
    # Wired as (x, y, 0, carry_in) it is a full adder: sum on line 2, carry
    # on line 3, and lines 0 and 1 left over as garbage.
    q = ((a ^ 1) & (c ^ 1)) ^ (b ^ 1)
    return (a, q, q ^ d, (q & d) ^ ((a & b) ^ c))


_BUILTINS: dict[str, GatePermutation] = {
    gate.name: gate
    for gate in (
        GatePermutation("FREDKIN", 3, _table_from_function(3, _fredkin)),
        GatePermutation("TOFFOLI", 3, _table_from_function(3, _toffoli)),
        GatePermutation("TS3", 3, _table_from_function(3, _ts3)),
        GatePermutation("NEW_GATE", 3, _table_from_function(3, _new_gate)),
        GatePermutation("TSG", 4, _table_from_function(4, _tsg)),
    )
}

def builtin_catalog() -> dict[str, GatePermutation]:
    """A fresh name-to-gate mapping of the built-in gates.

    One gate is read as ``builtin_catalog()[name]`` with an upper-case name.
    """
    return dict(_BUILTINS)


def parse_gate_defs(text: str) -> dict[str, GatePermutation]:
    """Parse a gate-definition text block into a name-to-gate mapping.

    Each non-empty line defines one gate as ``NAME WIDTH P0 P1 ... P(2^W-1)``
    with whitespace-separated fields of ASCII digits, checked field by field
    so that an error names the first bad one.  Lines starting with ``#`` are
    comments.
    Raises :class:`ParseError` for malformed lines (the checks of
    :class:`GatePermutation` included) and :class:`NotBijective` for
    well-formed lines whose table repeats an output pattern.
    """
    gates: dict[str, GatePermutation] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, *numbers = line.split()
        if not numbers:
            raise ParseError(f"line {lineno}: expected 'NAME WIDTH P0 ...'")
        # int() alone would also take '-1', '1_0' and non-ASCII digits.
        for field in numbers:
            if not (field.isascii() and field.isdigit()):
                raise ParseError(f"line {lineno}: non-integer field {field!r} "
                                 "(expected ASCII digits 0-9)")
        name = name.upper()
        if name in gates:
            raise ParseError(f"line {lineno}: gate {name!r} defined twice")
        try:
            width, *table = map(int, numbers)
            gates[name] = GatePermutation(name, width, table)
        except NotBijective:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return gates


def catalog_from_env() -> dict[str, GatePermutation]:
    """Built-in gates, overlaid with definitions from ``REVDEC_GATE_DEFS``.

    When the environment variable is set it must name a readable UTF-8
    gate-definition file, whose leading byte-order mark is dropped; entries
    in the file replace (or extend) the built-in tables by name.  With the
    variable unset this is exactly :func:`builtin_catalog`.
    """
    gates = builtin_catalog()
    path = os.environ.get(ENV_GATE_DEFS)
    if path:
        with open(path, encoding="utf-8-sig") as handle:
            gates.update(parse_gate_defs(handle.read()))
    return gates
