"""Architecture registry and single-pass audit tests."""

from __future__ import annotations

import argparse
import re

import pytest
from conftest import ALL_CODES, PUBLIC_MODELS, counting_row, scalar_lanes

from revdec import classical, cli, reversible, verification
from revdec.classical import (
    ARCHITECTURES,
    Architecture,
    BcdResult,
    ClaSignals,
    ConventionalTrace,
    SkipSignals,
    oracle,
    valid_operands,
)
from revdec.cli import build_parser
from revdec.gates import builtin_catalog
from revdec.verification import cla_agreement, cla_errata

ORDER = [
    "conventional",
    "cla_verbatim",
    "cla_corrected",
    "carry_skip",
    "rev_conventional",
    "rev_carry_skip",
]

# The rows decimal_add chains, read from the registry.
EXACT = [name for name, arch in ARCHITECTURES.items() if arch.exact]


def nibble(value: int) -> tuple[int, ...]:
    """The four bits of ``value``, least significant first."""
    return tuple(value >> i & 1 for i in range(4))


def arch_choices(command: str) -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == "arch")
    return list(action.choices)


class TestRegistry:
    def test_one_ordered_table(self):
        assert list(ARCHITECTURES) == ORDER
        assert all(name == arch.name for name, arch in ARCHITECTURES.items())

    def test_verify_and_simulate_offer_every_row(self):
        assert arch_choices("simulate") == list(ARCHITECTURES)
        assert arch_choices("verify") == [*ARCHITECTURES, "all"]

    @pytest.mark.parametrize("command", ["metrics", "export"])
    def test_netlist_commands_offer_the_rows_with_a_build(self, command):
        with_build = [name for name, arch in ARCHITECTURES.items() if arch.build]
        assert with_build == ["rev_conventional", "rev_carry_skip"]
        assert arch_choices(command) == with_build

    def test_every_exact_row_chains(self):
        assert EXACT == ["conventional", "cla_corrected", "carry_skip",
                         "rev_conventional", "rev_carry_skip"]
        # decimal_add offers exactly these rows when it refuses one.
        with pytest.raises(ValueError, match=re.escape(f"; choose from {tuple(EXACT)}")):
            classical.decimal_add([1], [2], 0, "quantum")

    def test_verification_does_not_reexport_the_registry(self):
        assert verification.ARCHITECTURES is ARCHITECTURES
        assert "ARCHITECTURES" not in verification.__all__

    def test_each_row_is_either_classical_or_a_netlist(self):
        for arch in ARCHITECTURES.values():
            if arch.build is None:
                assert arch.lanes is not None and arch.signals is not None
            else:
                assert arch.lanes is None and arch.signals is None
        assert [n for n, arch in ARCHITECTURES.items() if arch.lanes] == list(PUBLIC_MODELS)

    @pytest.mark.parametrize("name", PUBLIC_MODELS)
    def test_a_classical_model_is_its_public_functions(self, name):
        model = ARCHITECTURES[name].model
        for op in valid_operands():
            assert model(op) == PUBLIC_MODELS[name](op)

    @pytest.mark.parametrize("name", PUBLIC_MODELS)
    def test_signal_records_equal_integer_arithmetic(self, name):
        # Each record field from the operands' integer values, not from the
        # design: totals for the binary stage, bitwise for the look-ahead.
        for op in valid_operands():
            a, b, cin = op.a, op.b, op.cin
            t = a + b + cin
            result, signals = ARCHITECTURES[name].model(op)
            want = {
                "conventional": ConventionalTrace(t & 15, t >> 4, int(t >= 10)),
                "cla_verbatim": ClaSignals(
                    nibble(a & b), nibble(a | b), nibble(a ^ b),
                    int((a & 14) + (b & 14) >= 10), int((a & 14) + (b & 14) >= 8),
                    int((a & 1) + (b & 1) + cin >= 2)),
                "carry_skip": SkipSignals(nibble(a ^ b), int(a ^ b == 15), t >> 4, int(t >= 10)),
            }
            assert signals == want[name.replace("corrected", "verbatim")]
            if ARCHITECTURES[name].exact:
                assert result == BcdResult(t % 10, t // 10)

    def test_build_targets(self):
        targets = {
            name: arch.build().target
            for name, arch in ARCHITECTURES.items()
            if arch.build
        }
        assert targets == {"rev_conventional": (11, 22), "rev_carry_skip": (15, 27)}


def count_verbatim_passes(monkeypatch) -> list:
    """Patch the ``cla_verbatim`` row to record every lane pass it makes, and
    the oracle to fail if its cached table is computed again."""
    classical.oracle_sweep()
    calls = []

    def no_oracle(op):
        raise AssertionError("the oracle table is computed once per process")

    monkeypatch.setitem(ARCHITECTURES, "cla_verbatim",
                        counting_row(ARCHITECTURES["cla_verbatim"], calls))
    monkeypatch.setattr(classical, "oracle", no_oracle)
    return calls


def bit_of(signals, x: int):
    """Bit ``x`` of every lane in a (nested) tuple or list of lanes."""
    if isinstance(signals, (tuple, list)):
        return tuple(bit_of(s, x) for s in signals)
    assert 0 <= signals <= ALL_CODES  # no lane has a bit outside ``ones``
    return signals >> x & 1


class TestLaneDesigns:
    @pytest.mark.parametrize("name", PUBLIC_MODELS)
    def test_one_pass_over_every_code_equals_its_one_bit_passes(self, name):
        # The design at all 512 codes at once, the 312 invalid ones included,
        # gives every output and signal bit that its 1-bit pass at the code gives.
        lanes = ARCHITECTURES[name].lanes
        every = lanes(*classical.code_lanes())
        for x in range(512):
            bits = [x >> i & 1 for i in range(9)]
            assert bit_of(every, x) == bit_of(lanes(bits[:4], bits[4:8], bits[8], 1), 0)

    def test_code_lanes_carry_each_codes_bits(self):
        a, b, cin, ones = classical.code_lanes()
        assert ones == ALL_CODES
        for op in valid_operands():
            assert bit_of((a, b, cin), op.code()) == (op.a_bits(), op.b_bits(), op.cin)


class TestSinglePassAudits:
    @pytest.mark.parametrize("audit", [cla_agreement, cla_errata])
    def test_one_sweep_of_equations_and_oracle(self, monkeypatch, audit):
        # Each audit reads one cla_verbatim verify report: its row's design
        # runs one lane pass over all input codes, and the cached oracle
        # table not at all.
        calls = count_verbatim_passes(monkeypatch)
        audit()
        assert calls == [ALL_CODES]

    def test_errata_command_reads_one_report(self, monkeypatch, capsys):
        expected = (cla_agreement(), cla_errata())
        calls = count_verbatim_passes(monkeypatch)
        assert cli.main(["errata"]) == 0
        capsys.readouterr()
        assert calls == [ALL_CODES]
        report = verification.verify_architecture("cla_verbatim")
        assert (cla_agreement(report), cla_errata(report)) == expected
        assert calls == [ALL_CODES] * 2

    def test_xor_audit_runs_one_lane_pass_per_classical_design(self, monkeypatch):
        # One pass of each design the audit reads serves all three sites.
        expected = verification.xor_substitution_audit()
        calls = {"conventional": [], "carry_skip": []}
        for name, seen in calls.items():
            monkeypatch.setitem(ARCHITECTURES, name, counting_row(ARCHITECTURES[name], seen))
        assert verification.xor_substitution_audit() == expected
        assert calls == {"conventional": [ALL_CODES], "carry_skip": [ALL_CODES]}


class TestDecimalAddTable:
    @pytest.mark.parametrize("name", [n for n in EXACT if ARCHITECTURES[n].lanes])
    def test_first_call_makes_one_lane_pass_and_later_calls_none(self, monkeypatch, name):
        calls = []
        monkeypatch.setitem(ARCHITECTURES, name, counting_row(ARCHITECTURES[name], calls))
        assert classical.decimal_add([9], [1], 0, name) == ([0], 1)
        assert calls == [ALL_CODES]
        for cin in (0, 1):
            assert classical.decimal_add([5, 9, 9], [5, 0, 0], cin, name)[1] == 1
        assert calls == [ALL_CODES]

    @pytest.mark.parametrize("name", [n for n in EXACT if ARCHITECTURES[n].build])
    def test_first_call_per_catalog_reads_one_build_and_later_calls_none(self, monkeypatch, name):
        builder = f"build_{name.removeprefix('rev_')}_reversible"
        real, runs, decodes = getattr(reversible, builder), [], []
        monkeypatch.setattr(reversible, builder, lambda catalog: runs.append(catalog) or real(catalog))
        monkeypatch.setattr(reversible, "digit_table",
                            lambda columns: decodes.append(1) or classical.digit_table(columns))
        classical._cached_build.cache_clear()
        for catalog in (None, builtin_catalog(), None, builtin_catalog()):
            assert classical.decimal_add([9], [1], 0, name, catalog) == ([0], 1)
            for cin in (0, 1):
                assert classical.decimal_add([5, 9, 9], [5, 0, 0], cin, name, catalog)[1] == 1
        assert (runs, decodes) == ([builtin_catalog()], [1])

    def test_a_replaced_row_chains_its_own_digits(self, monkeypatch):
        # The first call fills the old row's table; the new row must not read it.
        assert classical.decimal_add([2], [3], 0, "carry_skip") == ([5], 0)
        zero_sums = scalar_lanes(lambda op: BcdResult(0, oracle(op).cout))
        monkeypatch.setitem(ARCHITECTURES, "carry_skip", Architecture("carry_skip", zero_sums))
        assert not verification.verify_architecture("carry_skip").passed
        assert classical.decimal_add([2], [3], 0, "carry_skip") == ([0], 0)
        assert classical.decimal_add([9, 2], [1, 3], 0, "carry_skip") == ([0, 0], 0)

    def test_a_row_replaced_as_inexact_no_longer_chains(self, monkeypatch):
        assert classical.decimal_add([2], [3], 0, "carry_skip") == ([5], 0)
        row = ARCHITECTURES["carry_skip"]
        monkeypatch.setitem(ARCHITECTURES, "carry_skip",
                            Architecture("carry_skip", row.lanes, row.signals, exact=False))
        with pytest.raises(ValueError, match="'carry_skip' cannot chain digits: it is not exact"):
            classical.decimal_add([2], [3], 0, "carry_skip")

    def test_a_refusal_offers_only_the_rows_exact_now(self, monkeypatch):
        row = ARCHITECTURES["carry_skip"]
        monkeypatch.setitem(ARCHITECTURES, "carry_skip",
                            Architecture("carry_skip", row.lanes, row.signals, exact=False))
        for name in ("carry_skip", "quantum"):
            with pytest.raises(ValueError, match="; choose from ") as refused:
                classical.decimal_add([1], [2], 0, name)
            offered = str(refused.value).split("; choose from ", 1)[1]
            assert offered == str(tuple(n for n in EXACT if n != "carry_skip"))
