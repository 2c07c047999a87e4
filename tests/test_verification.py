"""Verification layer tests: sweeps, errata, substitution audit, cost table."""

from __future__ import annotations

import json

import pytest
from conftest import equation_bit

from revdec import verification
from revdec.classical import CLA_VERBATIM, BcdOperands, cla_add, oracle, valid_operands
from revdec.gates import GatePermutation, builtin_catalog
from revdec.reversible import simulate_digit_add
from revdec.verification import (
    ARCHITECTURES,
    BASELINE_COSTS,
    EQUATION_NAMES,
    Mismatch,
    VerificationReport,
    cla_agreement,
    cla_errata,
    table1_report,
    verify_architecture,
    xor_substitution_audit,
)


class TestVerifyArchitecture:
    @pytest.mark.parametrize(
        "arch",
        ["conventional", "cla_corrected", "carry_skip", "rev_conventional", "rev_carry_skip"],
    )
    def test_exact_architectures_pass(self, arch):
        report = verify_architecture(arch)
        assert report.total == 200
        assert report.passed
        assert report.agreement == 1.0

    def test_verbatim_equations_measured_not_trusted(self):
        report = verify_architecture("cla_verbatim")
        assert not report.passed
        assert len(report.mismatches) == 84
        assert report.agreement == pytest.approx(0.58)
        first = report.mismatches[0]
        assert first.operands == BcdOperands(0, 2, 0)
        assert (first.expected.sum, first.expected.cout) == (2, 0)
        assert (first.actual.sum, first.actual.cout) == (0, 0)

    def test_reversible_reports_carry_costs_and_targets(self):
        report = verify_architecture("rev_conventional")
        assert report.metrics is not None
        assert report.metrics.gate_count == 9
        assert report.targets == (11, 22)
        classical = verify_architecture("conventional")
        assert classical.metrics is None and classical.targets is None

    def test_unknown_architecture(self):
        with pytest.raises(ValueError, match="architecture"):
            verify_architecture("quantum")

    def test_json_schema(self):
        doc = verify_architecture("rev_carry_skip").to_json_dict()
        assert doc["architecture"] == "rev_carry_skip"
        assert doc["total"] == 200
        assert doc["mismatches"] == []
        assert doc["agreement"] == 1.0
        assert doc["metrics"] == {"gates": 17, "garbage": 21, "ancilla": 17, "depth": 13}
        assert doc["targets"] == {"gates": 15, "garbage": 27}
        json.dumps(doc)  # must be serializable as-is

    @pytest.mark.parametrize("arch", ["rev_conventional", "rev_carry_skip"])
    @pytest.mark.parametrize("override", [None, "identity_new_gate"])
    def test_one_lane_pass_equals_per_input_simulation(self, arch, override):
        # The sweep reads every result from the primary-output columns; it
        # must report exactly what 200 separate digit simulations report.
        catalog = None
        if override:
            catalog = {**builtin_catalog(), "NEW_GATE": GatePermutation("NEW_GATE", 3, range(8))}
        build = ARCHITECTURES[arch].build(catalog)
        mismatches = []
        for op in valid_operands():
            actual = simulate_digit_add(build, op)
            if actual != oracle(op):
                mismatches.append(Mismatch(op, oracle(op), actual))
        report = verify_architecture(arch, catalog)
        assert report == VerificationReport(
            arch, 200, tuple(mismatches), build.metrics, build.target)
        assert report.passed == (override is None)

    def test_oracle_sweep_is_computed_once_per_process(self, monkeypatch):
        # Each report is rebuilt the way a per-call sweep would make it: the
        # oracle and the row's own adder (digit simulation for netlist rows).
        expected = {}
        for name, arch in ARCHITECTURES.items():
            build = arch.build() if arch.build else None
            mismatches = []
            for op in valid_operands():
                actual = arch.add(op) if build is None else simulate_digit_add(build, op)
                if actual != oracle(op):
                    mismatches.append(Mismatch(op, oracle(op), actual))
            expected[name] = VerificationReport(
                name, 200, tuple(mismatches),
                build.metrics if build else None, build.target if build else None)
        calls = []
        real_oracle = verification.oracle

        def counting_oracle(op):
            calls.append(op)
            return real_oracle(op)

        monkeypatch.setattr(verification, "_ORACLE_SWEEP", None)
        monkeypatch.setattr(verification, "oracle", counting_oracle)
        reports = {name: verify_architecture(name) for name in ARCHITECTURES}
        assert len(calls) == 200
        assert reports == expected

    def test_architecture_list_is_complete(self):
        assert set(ARCHITECTURES) == {
            "conventional",
            "cla_verbatim",
            "cla_corrected",
            "carry_skip",
            "rev_conventional",
            "rev_carry_skip",
        }


class TestClaErrata:
    def test_only_two_columns_are_faulty(self):
        entries = cla_errata()
        assert [e.equation for e in entries] == ["S1_VERBATIM", "S2_VERBATIM"]

    def test_frozen_first_failures(self):
        by_name = {e.equation: e for e in cla_errata()}
        s1 = by_name["S1_VERBATIM"]
        assert s1.first_failing_input == BcdOperands(0, 2, 0)
        assert (s1.observed, s1.expected) == (0, 1)
        s2 = by_name["S2_VERBATIM"]
        assert s2.first_failing_input == BcdOperands(2, 3, 1)
        assert (s2.observed, s2.expected) == (0, 1)

    def test_entries_reproduce_from_recorded_inputs(self):
        for entry in cla_errata():
            op = entry.first_failing_input
            assert equation_bit(cla_add(op, CLA_VERBATIM), entry.equation) == entry.observed
            assert equation_bit(oracle(op), entry.equation) == entry.expected
            assert entry.observed != entry.expected

    def test_agreement_counts(self):
        assert cla_agreement() == {
            "S0_VERBATIM": (200, 200),
            "S1_VERBATIM": (120, 200),
            "S2_VERBATIM": (196, 200),
            "S3_VERBATIM": (200, 200),
            "COUT_VERBATIM": (200, 200),
        }

    def test_s2_failure_set_is_exactly_four_inputs(self):
        failures = [
            (op.a, op.b, op.cin)
            for op in valid_operands()
            if equation_bit(cla_add(op, CLA_VERBATIM), "S2_VERBATIM")
            != equation_bit(oracle(op), "S2_VERBATIM")
        ]
        assert failures == [(2, 3, 1), (3, 2, 1), (3, 3, 0), (3, 3, 1)]

    def test_equation_names(self):
        assert EQUATION_NAMES == (
            "S0_VERBATIM",
            "S1_VERBATIM",
            "S2_VERBATIM",
            "S3_VERBATIM",
            "COUT_VERBATIM",
        )


class TestSubstitutionAudit:
    def setup_method(self):
        self.sites = {s.site: s for s in xor_substitution_audit()}

    def test_three_sites_audited(self):
        assert set(self.sites) == {
            "decimal_carry_detection",
            "naive_detection",
            "skip_mux_select",
        }

    def test_exclusive_detection_terms_are_safe_on_valid_inputs(self):
        site = self.sites["decimal_carry_detection"]
        assert site.or_equals_xor_on_valid
        assert site.first_valid_counterexample is None
        assert site.valid_counterexample_count == 0
        # Exclusivity relies on unreachable states: force them and it breaks.
        assert site.diverges_off_domain
        assert site.off_domain_example == (("k", 1), ("z", 10))

    def test_naive_terms_fail_on_valid_inputs(self):
        site = self.sites["naive_detection"]
        assert not site.or_equals_xor_on_valid
        cex = site.first_valid_counterexample
        assert cex == BcdOperands(4, 9, 1)
        assert cex.a + cex.b + cex.cin == 14
        assert site.valid_counterexample_count == 20
        assert site.off_domain_example == (("k", 0), ("z", 14))

    def test_mux_legs_are_structurally_exclusive(self):
        site = self.sites["skip_mux_select"]
        assert site.or_equals_xor_on_valid
        assert not site.diverges_off_domain
        assert site.off_domain_example is None
        assert site.to_json_dict()["off_domain_example"] is None

    def test_sites_serialize(self):
        for site in self.sites.values():
            json.dumps(site.to_json_dict())
        doc = self.sites["naive_detection"].to_json_dict()
        assert doc["off_domain_example"] == {"k": 0, "z": 14}


class TestTable1:
    def test_baseline_constants_are_quoted_verbatim(self):
        report = table1_report()
        baseline = report.rows[0]
        assert baseline.label == "baseline"
        assert (baseline.gates, baseline.garbage) == BASELINE_COSTS == (23, 22)
        assert baseline.target is None

    def test_measured_rows_and_deltas(self):
        rows = {r.label: r for r in table1_report().rows}
        conventional = rows["rev_conventional"]
        assert (conventional.gates, conventional.garbage) == (9, 13)
        assert conventional.target == (11, 22)
        assert conventional.fidelity == "RECONSTRUCTED"
        skip = rows["rev_carry_skip"]
        assert (skip.gates, skip.garbage) == (17, 21)
        assert skip.target == (15, 27)
        lines = table1_report().render().splitlines()[2:]
        deltas = {line.split()[0]: line.split()[4] for line in lines}
        assert deltas == {
            "baseline": "-", "rev_conventional": "-2/-9", "rev_carry_skip": "+2/-6",
        }

    def test_conventional_build_beats_the_baseline_gate_count(self):
        rows = {r.label: r for r in table1_report().rows}
        assert rows["rev_conventional"].gates < BASELINE_COSTS[0]

    def test_render(self):
        text = table1_report().render()
        assert "baseline" in text and "23" in text and "22" in text
        assert "rev_conventional" in text and "-2/-9" in text
        assert "+2/-6" in text
        assert len(text.splitlines()) == 2 + 3  # header, rule, three rows
