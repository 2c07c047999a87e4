"""Gate library tests: bit vectors, permutation validation, built-in gates."""

from __future__ import annotations

import pytest

from revdec.gates import (
    BUILTIN_NAMES,
    BitVector,
    NotBijective,
    ParseError,
    UnknownGate,
    WidthMismatch,
    builtin,
    builtin_catalog,
    catalog_from_env,
    eval_gate,
    format_gate,
    load_gate_defs,
    make_gate,
    parse_gate_defs,
    tsg_full_adder_wiring,
)

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
    def test_from_bits_is_little_endian(self):
        assert BitVector.from_bits([1, 0, 1]).value == 0b101
        assert BitVector.from_bits([0, 1]).value == 2

    def test_accessors(self):
        v = BitVector(4, 0b0110)
        assert v.bits() == (0, 1, 1, 0)
        assert v.bit(1) == 1 and v.bit(3) == 0
        assert int(v) == 6

    def test_bit_index_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector(3, 5).bit(3)

    @pytest.mark.parametrize("width,value", [(0, 0), (3, 8), (3, -1), (2, 4)])
    def test_rejects_out_of_range(self, width, value):
        with pytest.raises(ValueError):
            BitVector(width, value)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitVector.from_bits([0, 2])
        with pytest.raises(ValueError):
            BitVector.from_bits([])


class TestMakeGate:
    def test_valid_gate(self):
        gate = make_gate("SWAP", 2, [0, 2, 1, 3])
        assert gate.apply(1) == 2 and gate.apply(2) == 1

    def test_not_bijective_names_the_collision(self):
        with pytest.raises(NotBijective, match="0 and 1"):
            make_gate("BAD", 1, [0, 0])

    def test_wrong_table_length(self):
        with pytest.raises(ValueError, match="8 entries"):
            make_gate("SHORT", 3, [0, 1, 2])

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match="entry"):
            make_gate("BIG", 1, [0, 2])

    @pytest.mark.parametrize("width", [0, 9, -1])
    def test_width_bounds(self, width):
        with pytest.raises(ValueError):
            make_gate("W", width, [0])


class TestBuiltins:
    def test_catalog_names(self):
        assert set(BUILTIN_NAMES) == set(FROZEN_TABLES)
        assert set(builtin_catalog()) == set(FROZEN_TABLES)

    @pytest.mark.parametrize("name", sorted(FROZEN_TABLES))
    def test_frozen_tables(self, name):
        assert list(builtin(name).table) == FROZEN_TABLES[name]

    @pytest.mark.parametrize("name", sorted(FROZEN_TABLES))
    def test_bijective(self, name):
        gate = builtin(name)
        assert sorted(gate.table) == list(range(1 << gate.width))

    def test_lookup_is_case_insensitive(self):
        assert builtin("ts3") is builtin("TS3")

    def test_unknown_gate(self):
        with pytest.raises(UnknownGate, match="nope"):
            builtin("nope")

    def test_fredkin_is_a_controlled_swap(self):
        gate = builtin("FREDKIN")
        for b in (0, 1):
            for c in (0, 1):
                idle = eval_gate(gate, BitVector.from_bits([0, b, c]))
                assert idle.bits() == (0, b, c)
                swapped = eval_gate(gate, BitVector.from_bits([1, b, c]))
                assert swapped.bits() == (1, c, b)

    def test_fredkin_is_conservative(self):
        gate = builtin("FREDKIN")
        for pattern in range(8):
            assert bin(pattern).count("1") == bin(gate.apply(pattern)).count("1")

    def test_toffoli_controlled_not(self):
        gate = builtin("TOFFOLI")
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    out = eval_gate(gate, BitVector.from_bits([a, b, c]))
                    assert out.bits() == (a, b, c ^ (a & b))

    def test_ts3_three_way_parity(self):
        gate = builtin("TS3")
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    out = eval_gate(gate, BitVector.from_bits([a, b, c]))
                    assert out.bits() == (a, b, a ^ b ^ c)

    def test_new_gate_identities_used_by_the_builders(self):
        gate = builtin("NEW_GATE")
        for x in (0, 1):
            for y in (0, 1):
                # Zero on the middle line: OR with both operands passed through.
                assert eval_gate(gate, BitVector.from_bits([x, 0, y])).bits() == (
                    x,
                    y,
                    x | y,
                )
                # Zero on the last line: half adder.
                assert eval_gate(gate, BitVector.from_bits([x, y, 0])).bits() == (
                    x,
                    x & y,
                    x ^ y,
                )
            # Constant 1 on the first line: pass-through plus complement.
            assert eval_gate(gate, BitVector.from_bits([1, x, 0])).bits() == (
                1,
                x,
                x ^ 1,
            )


class TestTsgFullAdder:
    def test_full_adder_property_is_exhaustive(self):
        for x in (0, 1):
            for y in (0, 1):
                for cin in (0, 1):
                    s, cout, _ = tsg_full_adder_wiring(x, y, cin)
                    assert 2 * cout + s == x + y + cin

    @pytest.mark.parametrize(
        "x,y,cin,s,cout",
        [(1, 1, 0, 0, 1), (1, 1, 1, 1, 1), (0, 0, 0, 0, 0), (1, 0, 0, 1, 0)],
    )
    def test_examples(self, x, y, cin, s, cout):
        got_s, got_cout, _ = tsg_full_adder_wiring(x, y, cin)
        assert (got_s, got_cout) == (s, cout)

    def test_residue_lines(self):
        s, cout, residue = tsg_full_adder_wiring(1, 0, 1)
        assert residue == (1, 1)  # operand pass-through and half-sum

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            tsg_full_adder_wiring(2, 0, 0)

    def test_half_adder_wiring(self):
        # Zeros on lines 2 and 3 duplicate the half-sum and produce the AND.
        gate = builtin("TSG")
        for a in (0, 1):
            for b in (0, 1):
                out = eval_gate(gate, BitVector.from_bits([a, b, 0, 0]))
                assert out.bits() == (a, a ^ b, a ^ b, a & b)


class TestEvalGate:
    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            eval_gate(builtin("TS3"), BitVector(4, 0))

    def test_matches_apply(self):
        gate = builtin("NEW_GATE")
        for pattern in range(8):
            assert eval_gate(gate, BitVector(3, pattern)).value == gate.apply(pattern)


class TestTextFormat:
    def test_round_trip_all_builtins(self):
        text = "\n".join(format_gate(builtin(name)) for name in BUILTIN_NAMES)
        parsed = parse_gate_defs(text)
        assert parsed == builtin_catalog()

    def test_comments_and_blank_lines(self):
        parsed = parse_gate_defs("# a comment\n\nTS3 3 0 5 6 3 4 1 2 7\n")
        assert parsed["TS3"] == builtin("TS3")

    @pytest.mark.parametrize(
        "text",
        [
            "TS3",  # too few fields
            "TS3 three 0 1",  # non-integer width
            "TS3 3 0 1 2",  # wrong entry count
            "TS3 0 0",  # width out of range
            "TS3 2 0 1 2 x",  # non-integer entry
            "A 1 0 1\nA 1 1 0",  # duplicate name
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_gate_defs(text)

    def test_non_bijective_table_is_reported_as_such(self):
        with pytest.raises(NotBijective):
            parse_gate_defs("DUP 1 0 0")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "defs.txt"
        path.write_text(format_gate(builtin("TSG")) + "\n")
        assert load_gate_defs(str(path)) == {"TSG": builtin("TSG")}


class TestCatalogFromEnv:
    def test_without_override(self):
        assert catalog_from_env({}) == builtin_catalog()

    def test_with_override(self, tmp_path):
        reversed_table = list(range(15, -1, -1))
        path = tmp_path / "defs.txt"
        path.write_text("TSG 4 " + " ".join(map(str, reversed_table)) + "\n")
        catalog = catalog_from_env({"REVDEC_GATE_DEFS": str(path)})
        assert list(catalog["TSG"].table) == reversed_table
        assert catalog["TS3"] == builtin("TS3")  # untouched entries remain

    def test_with_new_gate_name(self, tmp_path):
        path = tmp_path / "defs.txt"
        path.write_text("MYNOT 1 1 0\n")
        catalog = catalog_from_env({"REVDEC_GATE_DEFS": str(path)})
        assert catalog["MYNOT"].apply(0) == 1

    def test_missing_file(self):
        with pytest.raises(OSError):
            catalog_from_env({"REVDEC_GATE_DEFS": "/nonexistent/defs.txt"})
