"""Architecture registry and single-pass audit tests."""

from __future__ import annotations

import argparse

import pytest
from conftest import PUBLIC_MODELS

from revdec import classical, cli, verification
from revdec.classical import ARCHITECTURES, DECIMAL_ARCHITECTURES, Architecture, valid_operands
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
        exact = [name for name, arch in ARCHITECTURES.items() if arch.exact]
        assert exact == ["conventional", "cla_corrected", "carry_skip",
                         "rev_conventional", "rev_carry_skip"]
        assert list(DECIMAL_ARCHITECTURES) == exact

    def test_verification_does_not_reexport_the_registry(self):
        assert verification.ARCHITECTURES is ARCHITECTURES
        assert "ARCHITECTURES" not in verification.__all__

    def test_each_row_is_either_classical_or_a_netlist(self):
        for arch in ARCHITECTURES.values():
            if arch.build is None:
                assert arch.model is not None
            else:
                assert arch.model is None
        assert [n for n, arch in ARCHITECTURES.items() if arch.model] == list(PUBLIC_MODELS)

    @pytest.mark.parametrize("name", PUBLIC_MODELS)
    def test_a_classical_model_is_its_public_functions(self, name):
        model = ARCHITECTURES[name].model
        for op in valid_operands():
            assert model(op) == PUBLIC_MODELS[name](op)

    def test_build_targets(self):
        targets = {
            name: arch.build().target
            for name, arch in ARCHITECTURES.items()
            if arch.build
        }
        assert targets == {"rev_conventional": (11, 22), "rev_carry_skip": (15, 27)}


def count_verbatim_adds(monkeypatch) -> list:
    """Patch the ``cla_verbatim`` row to record every digit add it makes, and
    the oracle to fail if its cached table is computed again."""
    classical.oracle_sweep()
    calls = []
    row = ARCHITECTURES["cla_verbatim"]

    def counting_model(op):
        calls.append(op)
        return row.model(op)

    def no_oracle(op):
        raise AssertionError("the oracle table is computed once per process")

    monkeypatch.setitem(ARCHITECTURES, "cla_verbatim",
                        Architecture("cla_verbatim", model=counting_model, exact=False))
    monkeypatch.setattr(classical, "oracle", no_oracle)
    return calls


class TestSinglePassAudits:
    @pytest.mark.parametrize("audit", [cla_agreement, cla_errata])
    def test_one_sweep_of_equations_and_oracle(self, monkeypatch, audit):
        # Each audit reads one cla_verbatim verify report: its row's adder
        # runs once per valid input, and the cached oracle table not at all.
        calls = count_verbatim_adds(monkeypatch)
        audit()
        assert len(calls) == 200

    def test_errata_command_reads_one_report(self, monkeypatch, capsys):
        expected = (cla_agreement(), cla_errata())
        calls = count_verbatim_adds(monkeypatch)
        assert cli.main(["errata"]) == 0
        capsys.readouterr()
        assert len(calls) == 200
        report = verification.verify_architecture("cla_verbatim")
        assert (cla_agreement(report), cla_errata(report)) == expected
        assert len(calls) == 400

    def test_xor_audit_runs_each_classical_model_once_per_input(self, monkeypatch):
        # One sweep serves all three sites: each model the audit reads runs
        # once per valid input, in canonical order.
        expected = verification.xor_substitution_audit()
        calls = {"conventional_add": [], "carry_skip_add": []}
        for name, seen in calls.items():
            model = getattr(verification, name)
            monkeypatch.setattr(verification, name,
                                lambda op, model=model, seen=seen: seen.append(op) or model(op))
        assert verification.xor_substitution_audit() == expected
        for seen in calls.values():
            assert seen == list(classical.valid_operands())


class TestDecimalAddTable:
    @pytest.mark.parametrize("name", [n for n in DECIMAL_ARCHITECTURES if ARCHITECTURES[n].model])
    def test_first_call_makes_200_adds_and_later_calls_none(self, monkeypatch, name):
        row, calls = ARCHITECTURES[name], []
        monkeypatch.setitem(ARCHITECTURES, name, Architecture(
            name, model=lambda op: calls.append(op) or row.model(op)))
        classical._digit_pairs.cache_clear()
        try:
            assert classical.decimal_add([9], [1], 0, name) == ([0], 1)
            assert calls == list(classical.valid_operands())
            for cin in (0, 1):
                assert classical.decimal_add([5, 9, 9], [5, 0, 0], cin, name)[1] == 1
            assert len(calls) == 200
        finally:  # the next caller must not read the counting row's table
            classical._digit_pairs.cache_clear()

    @pytest.mark.parametrize("name", [n for n in DECIMAL_ARCHITECTURES if ARCHITECTURES[n].build])
    def test_first_call_per_catalog_reads_one_build_and_later_calls_none(self, monkeypatch, name):
        row, calls = ARCHITECTURES[name], []
        monkeypatch.setitem(ARCHITECTURES, name, Architecture(
            name, build=lambda catalog=None: calls.append(catalog) or row.build(catalog)))
        classical._digit_pairs.cache_clear()
        try:
            for catalog in (None, builtin_catalog(), None, builtin_catalog()):
                assert classical.decimal_add([9], [1], 0, name, catalog) == ([0], 1)
                for cin in (0, 1):
                    assert classical.decimal_add([5, 9, 9], [5, 0, 0], cin, name, catalog)[1] == 1
            assert calls == [None, builtin_catalog()]
        finally:  # the next caller must not read the counting row's table
            classical._digit_pairs.cache_clear()
