"""Input-boundary tests: CLI digits, bool and float operands, bit vectors and
digit results, gate names, widths and tables, ancilla constants, DOT quoting,
wire names, netlist JSON."""

from __future__ import annotations

import copy
import json
import re

import pytest
from conftest import gate_line
from hypothesis import given, settings
from hypothesis import strategies as st

from revdec.classical import ARCHITECTURES, BcdOperands, BcdResult, InvalidBcd, decimal_add
from revdec.cli import main
from revdec.gates import (
    BitVector,
    NotBijective,
    ParseError,
    GatePermutation,
    builtin_catalog,
    parse_gate_defs,
)
from revdec.netlist import (
    ROLE_ANCILLA,
    ROLE_GARBAGE,
    ROLE_PRIMARY_INPUT,
    ROLE_PRIMARY_OUTPUT,
    GateInstance,
    InputDecl,
    MalformedNetlist,
    Netlist,
    NetlistBuilder,
    OutputDecl,
    _check_wire_name,
)
from revdec.reversible import build_carry_skip_reversible, build_conventional_reversible


class TestDigitStrings:
    @pytest.mark.parametrize(
        "digits",
        [
            "٣,1",  # ARABIC-INDIC DIGIT THREE
            "²,1",  # SUPERSCRIPT TWO
            "1,７",  # FULLWIDTH DIGIT SEVEN
            "12१,5",  # DEVANAGARI DIGIT ONE
        ],
    )
    def test_non_ascii_digits_are_rejected(self, capsys, digits):
        code = main(["simulate", "--arch", "conventional", "--digits", digits])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--digits expects two comma-separated decimal numbers" in captured.err

    def test_ascii_digits_still_add(self, capsys):
        code = main(["simulate", "--arch", "conventional", "--digits", "3,1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "sum=4 cout=0"


class TestBoolOperands:
    @pytest.mark.parametrize(
        "a, b, cin", [(True, 0, 0), (1, False, 0), (True, False, True)]
    )
    def test_bool_digits_are_not_bcd(self, a, b, cin):
        with pytest.raises(InvalidBcd):
            BcdOperands(a, b, cin)

    @pytest.mark.parametrize("cin", [True, False])
    def test_bool_carry_in_is_rejected(self, cin):
        with pytest.raises(ValueError, match="cin"):
            BcdOperands(1, 0, cin)

    @pytest.mark.parametrize("cin", [True, False])
    def test_decimal_add_rejects_bool_carry_in(self, cin):
        with pytest.raises(ValueError, match="cin"):
            decimal_add([1], [2], cin=cin)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "x, y",
        [([True], [2]), ([1.0], [2]), ([2], [True]), ([3, 1], [4, False])],
        ids=["bool-x", "float-x", "bool-y", "bool-second-digit"],
    )
    def test_decimal_add_rejects_non_int_digits(self, monkeypatch, warm, x, y):
        # A fresh row has no digit table yet.
        monkeypatch.setitem(ARCHITECTURES, "conventional", copy.copy(ARCHITECTURES["conventional"]))
        if warm:  # the same digits as ints fill the table the bad call reads
            assert decimal_add([int(d) for d in x], [int(d) for d in y])
        with pytest.raises(InvalidBcd):
            decimal_add(x, y)


class TestGateDefsFile:
    @pytest.mark.parametrize("line", ["N 1 \u0661 0", "N 1 1 0_0", "N \u0661 1 0"])
    def test_only_ascii_digits_are_accepted(self, capsys, tmp_path, monkeypatch, line):
        path = tmp_path / "defs.txt"
        path.write_text(line + "\n", encoding="utf-8")
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        assert main(["truthtable", "--gate", "TS3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1: non-integer field" in captured.err


class TestBitVectorTypes:
    @pytest.mark.parametrize("width", [True, 2.0, "2"])
    def test_width_must_be_an_int(self, width):
        with pytest.raises(ValueError, match="width"):
            BitVector(width, 1)

    @pytest.mark.parametrize("value", [True, False, 1.0])
    def test_value_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="fit"):
            BitVector(2, value)


class TestBcdResultTypes:
    @pytest.mark.parametrize("total, cout", [(True, 0), (3, True), (3.0, 0), (3, 1.0)])
    def test_sum_and_carry_must_be_ints(self, total, cout):
        with pytest.raises(ValueError):
            BcdResult(total, cout)


class TestAncillaConstants:
    @pytest.mark.parametrize("const", [True, 1.0])
    def test_const_must_be_the_int_0_or_1(self, const):
        with pytest.raises(MalformedNetlist, match="const"):
            InputDecl("z", "ancilla", const)

    @pytest.mark.parametrize("const", [0, 1])
    def test_int_constants_are_accepted(self, const):
        assert InputDecl("z", "ancilla", const).const == const


class TestGateNamesAndWidths:
    @pytest.mark.parametrize("width", [True, 1.0, "1"])
    def test_width_must_be_an_int(self, width):
        with pytest.raises(ValueError, match="width"):
            GatePermutation("X", width, [1, 0])

    @pytest.mark.parametrize("name", [7, None, b"X", "", "A B", "A\tB", "A\nB"])
    def test_name_must_be_a_string_without_whitespace(self, name):
        with pytest.raises(ValueError, match="name"):
            GatePermutation(name, 1, [1, 0])

    @pytest.mark.parametrize("name", ["x", "Ts3", "new_gate"])
    def test_name_must_be_upper_case(self, name):
        with pytest.raises(ValueError, match="name"):
            GatePermutation(name, 1, [1, 0])

    @pytest.mark.parametrize("table", [[True, False], [1, False], [1.0, 0]])
    def test_table_entries_must_be_ints(self, table):
        with pytest.raises(ValueError, match="table entry"):
            GatePermutation("X", 1, table)

    @pytest.mark.parametrize("table", [{0: 1, 1: 0}, {1, 0}, iter([1, 0])],
                             ids=["dict", "set", "iterator"])
    def test_table_must_be_a_sequence(self, table):
        # A dict's keys would read as the identity here, not the NOT it spells.
        with pytest.raises(ValueError, match="sequence"):
            GatePermutation("X", 1, table)

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_non_int_table_entry_in_json_is_a_parse_error(self, entry):
        doc = json.loads(build_conventional_reversible().netlist.to_json())
        table = doc["gate_defs"][0]["table"]
        table[table.index(1)] = entry
        with pytest.raises(ParseError, match="table entry"):
            Netlist.from_json(json.dumps(doc))

    def test_accepted_names_read_back_from_the_catalog_format(self):
        gate = GatePermutation('T"S3\\', 1, [1, 0])
        assert parse_gate_defs(gate_line(gate)) == {gate.name: gate}

    @pytest.mark.parametrize("name", [7, "A B", "", "ts3"])
    def test_bad_gate_def_name_in_json_is_a_parse_error(self, name):
        doc = json.loads(build_conventional_reversible().netlist.to_json())
        old = doc["gate_defs"][0]["name"]
        doc["gate_defs"][0]["name"] = name
        for entry in doc["gates"]:
            if entry["gate_name"] == old:
                entry["gate_name"] = name
        with pytest.raises(ParseError, match="name"):
            Netlist.from_json(json.dumps(doc))

    @pytest.mark.parametrize("width", [True, 1.5])
    def test_non_int_width_in_json_is_a_parse_error(self, width):
        doc = json.loads(build_conventional_reversible().netlist.to_json())
        doc["gate_defs"][0]["width"] = width
        with pytest.raises(ParseError, match="width"):
            Netlist.from_json(json.dumps(doc))


def _balanced(line: str) -> bool:
    """Whether every quoted string on the line is closed (escapes honoured)."""
    inside = False
    chars = iter(line)
    for c in chars:
        if inside and c == "\\":
            next(chars, None)
        elif c == '"':
            inside = not inside
    return not inside


class TestDotQuoting:
    @staticmethod
    def awkward_net():
        ts3 = builtin_catalog()["TS3"]
        quoted = GatePermutation('T"S3\\', ts3.width, ts3.table)
        net = Netlist(
            'x"y',
            (InputDecl('p"q', ROLE_PRIMARY_INPUT), InputDecl("r\\", ROLE_PRIMARY_INPUT),
             InputDecl('z"0', ROLE_ANCILLA, 0)),
            (OutputDecl('o"ut\\', ROLE_PRIMARY_OUTPUT), OutputDecl('k"1', ROLE_GARBAGE),
             OutputDecl("k\\2", ROLE_GARBAGE)),
            (GateInstance(quoted, ('p"q', "r\\", 'z"0'), ('k"1', "k\\2", 'o"ut\\')),),
        )
        net.validate()
        return net

    def test_every_line_has_balanced_quotes(self):
        dot = self.awkward_net().to_dot()
        for line in dot.splitlines():
            assert _balanced(line), line
        lines = dot.splitlines()
        assert lines[0] == 'digraph "x\\"y" {'
        assert '  "in:p\\"q" -> "g0" [label="p\\"q"];' in lines
        assert '  "in:r\\\\" -> "g0" [label="r\\\\"];' in lines
        assert '  "g0" [shape=box, label="g0: T\\"S3\\\\"];' in lines
        assert '  "g0" -> "out:o\\"ut\\\\" [label="o\\"ut\\\\"];' in lines

    def test_builtin_builds_have_nothing_to_escape(self):
        dot = build_carry_skip_reversible().netlist.to_dot()
        assert "\\" not in dot
        assert all(_balanced(line) for line in dot.splitlines())


class TestNetlistJsonBoundary:
    @staticmethod
    def doc():
        return json.loads(build_conventional_reversible().netlist.to_json())

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            Netlist.from_json("[" * 100000)

    @pytest.mark.parametrize("text", [b"\xff", b'{"name": "\xc3"}'])
    def test_undecodable_bytes_are_a_parse_error(self, text):
        with pytest.raises(ParseError, match="invalid JSON"):
            Netlist.from_json(text)

    @pytest.mark.parametrize("inputs", [[[1]], ["x"], [{"wire": "x"}]])
    def test_wrong_input_entries_are_a_parse_error(self, inputs):
        doc = self.doc()
        doc["inputs"] = inputs
        with pytest.raises(ParseError):
            Netlist.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", [[1], 7, None, {"a": 1}])
    def test_non_string_name_is_rejected(self, name):
        doc = self.doc()
        doc["name"] = name
        with pytest.raises(ParseError, match="name"):
            Netlist.from_json(json.dumps(doc))

    @pytest.mark.parametrize("const", [True, False, 1.0, "1"])
    def test_ancilla_const_must_be_an_integer(self, const):
        doc = self.doc()
        ancilla = next(e for e in doc["inputs"] if e["role"] == "ancilla")
        ancilla["const"] = const
        with pytest.raises(ParseError, match="const"):
            Netlist.from_json(json.dumps(doc))

    def test_duplicate_gate_def_is_rejected(self):
        doc = self.doc()
        first = doc["gate_defs"][0]
        doc["gate_defs"].append(dict(first, table=list(reversed(first["table"]))))
        with pytest.raises(ParseError, match=first["name"]):
            Netlist.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "side, wires",
        [("in", "abc"), ("in", dict.fromkeys("abc", 0)),
         ("out", "xyz"), ("out", dict.fromkeys("xyz", 0))],
    )
    def test_gate_wires_must_be_an_array(self, side, wires):
        # Read as a sequence, each of these names the gate's three wires.
        b = NetlistBuilder("one_gate")
        ins = [b.primary_input(w) for w in "abc"]
        for wire in b.gate(builtin_catalog()["TS3"], ins, ["x", "y", "z"]):
            b.primary_output(wire)
        doc = json.loads(b.build().to_json())
        doc["gates"][0][side] = wires
        with pytest.raises(ParseError, match="array"):
            Netlist.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", [7, None, b"adder"])
    def test_netlist_name_must_be_a_string(self, name):
        with pytest.raises(MalformedNetlist, match="name"):
            NetlistBuilder(name).build()

    def test_builtin_round_trip_text_is_unchanged(self):
        text = build_conventional_reversible().netlist.to_json()
        assert Netlist.from_json(text).to_json() == text


# Every whitespace character below U+3001 (there are none above), plus
# format characters that are not whitespace to str.isspace.
SPACES = "".join(chr(i) for i in range(0x3001) if chr(i).isspace())
NEAR_SPACES = "\u180e\u200b\u2060\ufeff"


class TestWireNames:
    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(SPACES + NEAR_SPACES) | st.characters(), max_size=6))
    def test_accepts_exactly_the_names_without_a_space_character(self, wire):
        try:
            _check_wire_name(wire)
        except MalformedNetlist:
            accepted = False
        else:
            accepted = True
        assert accepted == (bool(wire) and not any(c.isspace() for c in wire))


class TestGateNames:
    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(SPACES + NEAR_SPACES) | st.characters(), max_size=6))
    def test_accepts_exactly_upper_case_printable_ascii_without_spaces(self, name):
        try:
            GatePermutation(name, 1, [1, 0])
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == (bool(name) and all("!" <= c <= "~" for c in name)
                            and name == name.upper())

    @pytest.mark.parametrize("mark", NEAR_SPACES)
    def test_invisible_marks_are_refused_wherever_a_name_is_read(self, mark):
        for name in (mark + "NEW_GATE", "NEW" + mark + "GATE", "NEW_GATE" + mark):
            with pytest.raises(ValueError, match=f"printable ASCII.*got {re.escape(repr(name))}$"):
                GatePermutation(name, 3, range(8))
            with pytest.raises(ParseError, match="^line 1: gate name must be"):
                parse_gate_defs(f"{name} 3 7 6 5 4 3 2 1 0")
            doc = json.loads(build_conventional_reversible().netlist.to_json())
            doc["gate_defs"][0]["name"] = name
            with pytest.raises(ParseError, match="printable ASCII"):
                Netlist.from_json(json.dumps(doc))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


class TestNetlistJsonProperties:
    DOCUMENTED = (ParseError, MalformedNetlist, NotBijective)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.binary())
    def test_arbitrary_text_raises_only_documented_errors(self, text):
        with pytest.raises(self.DOCUMENTED):
            Netlist.from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_replaced_field_raises_only_documented_errors(self, data):
        doc = TestNetlistJsonBoundary.doc()
        # Descend to a random depth and replace whatever sits there with an
        # arbitrary JSON value.
        node, key = doc, data.draw(st.sampled_from(sorted(doc)))
        while isinstance(node[key], (dict, list)) and node[key] and data.draw(
            st.booleans()
        ):
            node = node[key]
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = data.draw(st.sampled_from(keys))
        node[key] = data.draw(JSON_VALUES)
        try:
            Netlist.from_json(json.dumps(doc))
        except self.DOCUMENTED:
            pass
