"""Input-boundary tests: CLI digit strings, bool operands and DOT quoting."""

from __future__ import annotations

import pytest

from revdec.classical import BcdOperands, InvalidBcd, decimal_add
from revdec.cli import main
from revdec.gates import builtin, make_gate
from revdec.netlist import NetlistBuilder
from revdec.reversible import build_carry_skip_reversible


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
        ts3 = builtin("TS3")
        quoted = make_gate('T"S3\\', ts3.width, ts3.table)
        b = NetlistBuilder('x"y')
        p = b.primary_input('p"q')
        r = b.primary_input("r\\")
        zero = b.ancilla(0, 'z"0')
        _, _, out = b.gate(quoted, (p, r, zero), ('k"1', "k\\2", 'o"ut\\'))
        b.primary_output(out)
        return b.build()

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
