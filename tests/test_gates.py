"""Gate library tests: bit vectors, permutation validation, built-in gates."""

from __future__ import annotations

import pytest
from conftest import gate_line, gate_outputs
from hypothesis import given, settings
from hypothesis import strategies as st

from revdec.gates import (
    ENV_GATE_DEFS,
    BitVector,
    GatePermutation,
    NotBijective,
    ParseError,
    builtin_catalog,
    catalog_from_env,
    parse_gate_defs,
)

BUILTINS = builtin_catalog()

# Permutation tables of the five built-in gates, computed independently
# from their defining output functions and cross-checked against their
# reference input/output columns before being frozen here.
FROZEN_TABLES = {
    "FREDKIN": [0, 1, 2, 5, 4, 3, 6, 7],
    "TOFFOLI": [0, 1, 2, 7, 4, 5, 6, 3],
    "TS3": [0, 5, 6, 3, 4, 1, 2, 7],
    "NEW_GATE": [0, 5, 4, 3, 6, 7, 2, 1],
    "TSG": [0, 7, 6, 9, 14, 15, 8, 1, 4, 11, 10, 13, 2, 3, 12, 5],
}


class TestBitVector:
    def test_int_is_the_value(self):
        assert int(BitVector(4, 0b0110)) == 6

    @pytest.mark.parametrize("width,value", [(0, 0), (3, 8), (3, -1), (2, 4)])
    def test_rejects_out_of_range(self, width, value):
        with pytest.raises(ValueError):
            BitVector(width, value)


class TestMakeGate:
    """Constructing a :class:`GatePermutation` validates its table."""

    def test_valid_gate(self):
        gate = GatePermutation("SWAP", 2, [0, 2, 1, 3])
        assert gate.table[1] == 2 and gate.table[2] == 1

    def test_not_bijective_names_the_collision(self):
        with pytest.raises(NotBijective, match="0 and 1"):
            GatePermutation("BAD", 1, [0, 0])

    def test_wrong_table_length(self):
        with pytest.raises(ValueError, match="8 entries"):
            GatePermutation("SHORT", 3, [0, 1, 2])

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match="entry"):
            GatePermutation("BIG", 1, [0, 2])

    @pytest.mark.parametrize("width", [0, 9, -1])
    def test_width_bounds(self, width):
        with pytest.raises(ValueError):
            GatePermutation("W", width, [0])


def loop_checked(name: str, width: int, table) -> GatePermutation:
    """``GatePermutation(name, width, table)`` with its table proved one
    entry at a time: the reference for the table check.  It assumes a
    valid name and width."""
    table = tuple(table)
    size = 1 << width
    if len(table) != size:
        raise ValueError(f"gate {name!r} of width {width} needs a table of "
                         f"{size} entries, got {len(table)}")
    seen: dict[int, int] = {}
    for pattern, out in enumerate(table):
        if type(out) is not int or not 0 <= out < size:
            raise ValueError(f"gate {name!r} table entry {pattern} is {out!r}, "
                             f"expected an integer in [0, {size})")
        if out in seen:
            raise NotBijective(f"gate {name!r} is not reversible: inputs "
                               f"{seen[out]} and {pattern} both map to output {out}")
        seen[out] = pattern
    return GatePermutation._trusted(name, width, table)


@st.composite
def gate_tables(draw):
    """A width of 1-4 and a table for it: a permutation with some entries
    replaced by bools, floats, negative, out-of-range or repeated values,
    sometimes one entry short or long, as a list, tuple, ``range`` or
    ``bytes``."""
    width = draw(st.integers(1, 4))
    size = 1 << width
    entries = draw(st.permutations(range(size)))
    wrong = st.one_of(st.integers(-2, size + 1), st.booleans(),
                      st.floats(-1, size, allow_nan=False), st.sampled_from([0.0, 1.0]))
    for _ in range(draw(st.integers(0, 2))):
        entries[draw(st.integers(0, size - 1))] = draw(wrong)
    entries = entries[:size + draw(st.sampled_from([0, 0, 0, -1, 1]))]
    if len(entries) > size:
        entries[-1] = entries[0]
    kind = draw(st.sampled_from(["list", "tuple", "range", "bytes"]))
    if kind == "range":
        return width, draw(st.sampled_from([
            range(size), range(size - 1, -1, -1), range(1, size + 1),
            range(-1, size - 1), range(0, 2 * size, 2), range(size - 1)]))
    if kind == "bytes" and all(type(e) in (int, bool) and 0 <= e < 256 for e in entries):
        return width, bytes(entries)
    return width, (tuple if kind == "tuple" else list)(entries)


class TestTableCheck:
    """A table passes :class:`GatePermutation`'s check exactly when the
    reference loop accepts it; a refused one gets the loop's error."""

    @settings(max_examples=400, deadline=None)
    @given(gate_tables())
    def test_the_gate_or_the_error_is_the_loops(self, drawn):
        width, table = drawn
        try:
            expected = loop_checked("G", width, table)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                GatePermutation("G", width, table)
            assert str(raised.value) == str(exc)
        else:
            gate = GatePermutation("G", width, table)
            assert gate == expected and type(gate.table) is tuple


class TestBuiltins:
    def test_catalog_names(self):
        assert set(BUILTINS) == set(FROZEN_TABLES)

    @pytest.mark.parametrize("name", sorted(FROZEN_TABLES))
    def test_frozen_tables(self, name):
        assert list(BUILTINS[name].table) == FROZEN_TABLES[name]

    @pytest.mark.parametrize("name", sorted(FROZEN_TABLES))
    def test_bijective(self, name):
        gate = BUILTINS[name]
        assert sorted(gate.table) == list(range(1 << gate.width))

    def test_fredkin_is_a_controlled_swap(self):
        gate = BUILTINS["FREDKIN"]
        for b in (0, 1):
            for c in (0, 1):
                assert gate_outputs(gate, 0, b, c) == (0, b, c)
                assert gate_outputs(gate, 1, b, c) == (1, c, b)

    def test_fredkin_is_conservative(self):
        gate = BUILTINS["FREDKIN"]
        for pattern in range(8):
            assert bin(pattern).count("1") == bin(gate.table[pattern]).count("1")

    def test_toffoli_controlled_not(self):
        gate = BUILTINS["TOFFOLI"]
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    assert gate_outputs(gate, a, b, c) == (a, b, c ^ (a & b))

    def test_ts3_three_way_parity(self):
        gate = BUILTINS["TS3"]
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    assert gate_outputs(gate, a, b, c) == (a, b, a ^ b ^ c)

    def test_new_gate_identities_used_by_the_builders(self):
        gate = BUILTINS["NEW_GATE"]
        for x in (0, 1):
            for y in (0, 1):
                # Zero on the middle line: OR with both operands passed through.
                assert gate_outputs(gate, x, 0, y) == (x, y, x | y)
                # Zero on the last line: half adder.
                assert gate_outputs(gate, x, y, 0) == (x, x & y, x ^ y)
            # Constant 1 on the first line: pass-through plus complement.
            assert gate_outputs(gate, 1, x, 0) == (1, x, x ^ 1)


def tsg_full_adder(x: int, y: int, cin: int) -> tuple[int, int, tuple[int, int]]:
    """TSG wired as (x, y, 0, cin): ``(sum, carry, residue on lines 0 and 1)``."""
    residue0, residue1, s, cout = gate_outputs(BUILTINS["TSG"], x, y, 0, cin)
    return s, cout, (residue0, residue1)


class TestTsgFullAdder:
    def test_full_adder_property_is_exhaustive(self):
        for x in (0, 1):
            for y in (0, 1):
                for cin in (0, 1):
                    s, cout, _ = tsg_full_adder(x, y, cin)
                    assert 2 * cout + s == x + y + cin

    @pytest.mark.parametrize(
        "x,y,cin,s,cout",
        [(1, 1, 0, 0, 1), (1, 1, 1, 1, 1), (0, 0, 0, 0, 0), (1, 0, 0, 1, 0)],
    )
    def test_examples(self, x, y, cin, s, cout):
        got_s, got_cout, _ = tsg_full_adder(x, y, cin)
        assert (got_s, got_cout) == (s, cout)

    def test_residue_lines(self):
        s, cout, residue = tsg_full_adder(1, 0, 1)
        assert residue == (1, 1)  # operand pass-through and half-sum

    def test_half_adder_wiring(self):
        # Zeros on lines 2 and 3 duplicate the half-sum and produce the AND.
        gate = BUILTINS["TSG"]
        for a in (0, 1):
            for b in (0, 1):
                assert gate_outputs(gate, a, b, 0, 0) == (a, a ^ b, a ^ b, a & b)


class TestTextFormat:
    def test_round_trip_all_builtins(self):
        text = "\n".join(gate_line(gate) for gate in BUILTINS.values())
        parsed = parse_gate_defs(text)
        assert parsed == builtin_catalog()

    def test_comments_and_blank_lines(self):
        parsed = parse_gate_defs("# a comment\n\nTS3 3 0 5 6 3 4 1 2 7\n")
        assert parsed["TS3"] == BUILTINS["TS3"]

    @pytest.mark.parametrize(
        "text",
        [
            "TS3",  # too few fields
            "TS3 three 0 1",  # non-integer width
            "TS3 3 0 1 2",  # wrong entry count
            "TS3 0 0",  # width out of range
            "TS3 2 0 1 2 x",  # non-integer entry
            "A 1 0 1\nA 1 1 0",  # duplicate name
            "N 1 \u0661 0",  # a non-ASCII digit, which int() would take
            "N \u0661 1 0",
            "N 1 1 0_0",  # an underscore, which int() would take
            "N 1 -1 0",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_gate_defs(text)

    @pytest.mark.parametrize("field", ["-1", "1_0", "+1", "\u0663"])
    def test_the_first_non_digit_field_is_named(self, field):
        # The second line's first bad field is named, not its later "-2".
        with pytest.raises(ParseError) as raised:
            parse_gate_defs(f"A 1 0 1\nN 1 1 {field} -2")
        assert str(raised.value) == (
            f"line 2: non-integer field {field!r} (expected ASCII digits 0-9)")

    def test_non_bijective_table_is_reported_as_such(self):
        with pytest.raises(NotBijective):
            parse_gate_defs("DUP 1 0 0")

    def test_load_from_file(self, monkeypatch, tmp_path):
        path = tmp_path / "defs.txt"
        swap = GatePermutation("SWAP", 2, (0, 2, 1, 3))
        path.write_text(gate_line(swap) + "\n")
        monkeypatch.setenv(ENV_GATE_DEFS, str(path))
        assert catalog_from_env() == {**BUILTINS, "SWAP": swap}


class TestCatalogFromEnv:
    def test_without_override(self, monkeypatch):
        monkeypatch.delenv(ENV_GATE_DEFS, raising=False)
        assert catalog_from_env() == builtin_catalog()

    def test_with_override(self, monkeypatch, tmp_path):
        reversed_table = list(range(15, -1, -1))
        path = tmp_path / "defs.txt"
        path.write_text("TSG 4 " + " ".join(map(str, reversed_table)) + "\n")
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        catalog = catalog_from_env()
        assert list(catalog["TSG"].table) == reversed_table
        assert catalog["TS3"] == BUILTINS["TS3"]  # untouched entries remain

    def test_with_new_gate_name(self, monkeypatch, tmp_path):
        path = tmp_path / "defs.txt"
        path.write_text("MYNOT 1 1 0\n")
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        catalog = catalog_from_env()
        assert catalog["MYNOT"].table[0] == 1

    def test_missing_file(self, monkeypatch):
        monkeypatch.setenv("REVDEC_GATE_DEFS", "/nonexistent/defs.txt")
        with pytest.raises(OSError):
            catalog_from_env()
