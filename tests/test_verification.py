"""Verification layer tests: sweeps, errata, substitution audit, cost table."""

from __future__ import annotations

import json

import pytest
from conftest import equation_bit, scalar_lanes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revdec import classical
from revdec.classical import (
    ARCHITECTURES,
    CLA_VERBATIM,
    Architecture,
    BcdOperands,
    BcdResult,
    cla_add,
    oracle,
    valid_operands,
)
from revdec.gates import GatePermutation, builtin_catalog
from revdec.reversible import simulate_digit_add
from revdec.verification import (
    BASELINE_COSTS,
    EQUATION_NAMES,
    ErrataEntry,
    Mismatch,
    VerificationReport,
    cla_agreement,
    cla_errata,
    table1_report,
    verify_architecture,
    xor_substitution_audit,
)


def per_input_report(arch: str, catalog=None) -> VerificationReport:
    """The report of ``arch`` rebuilt from 200 separate digit simulations."""
    build = ARCHITECTURES[arch].build(catalog)
    mismatches = []
    for op in valid_operands():
        actual = simulate_digit_add(build, op)
        if actual != oracle(op):
            mismatches.append(Mismatch(op, oracle(op), actual))
    return VerificationReport(arch, 200, tuple(mismatches), build.metrics, build.target)


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

    @pytest.mark.parametrize("catalog", [None, builtin_catalog()], ids=["default", "given"])
    def test_a_netlist_row_is_built_once_per_sweep(self, monkeypatch, catalog):
        # One build gives both the sweep's columns and the report's costs.
        row, calls = ARCHITECTURES["rev_conventional"], []

        def build(catalog=None):
            calls.append(catalog)
            return row.build(catalog)

        monkeypatch.setitem(ARCHITECTURES, "rev_conventional",
                            Architecture("rev_conventional", build=build))
        report = verify_architecture("rev_conventional", catalog)
        assert calls == [catalog]
        assert report.passed and report.targets == (11, 22)
        assert report.metrics == row.build(catalog).metrics

    @pytest.mark.parametrize("name", ["rev_conventional", "rev_carry_skip"])
    def test_a_netlist_row_has_no_columns_of_its_own(self, name):
        # Only a build, of a catalog the caller names, answers for the row,
        # and each read says so.
        row = ARCHITECTURES[name]
        message = (f"architecture '{name}' is a netlist row with no lanes of its own; "
                   f"read row.build(catalog).columns or .digit_pairs")
        for read in (row.columns, lambda: row.digit_pairs,
                     lambda: row.model(BcdOperands(2, 3, 1))):
            with pytest.raises(TypeError) as raised:
                read()
            assert str(raised.value) == message
        assert vars(row) == {}

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
        report = verify_architecture(arch, catalog)
        assert report == per_input_report(arch, catalog)
        assert report.passed == (override is None)

    @settings(max_examples=40, deadline=None)
    @given(arch=st.sampled_from(["rev_conventional", "rev_carry_skip"]),
           gate=st.sampled_from(["NEW_GATE", "TS3"]),
           table=st.permutations(range(8)))
    # This catalog makes rev_carry_skip fail 144 inputs, 87 with a sum above 9.
    @example(arch="rev_carry_skip", gate="TS3", table=[3, 6, 1, 5, 7, 0, 4, 2])
    def test_column_comparison_equals_per_input_simulation(self, arch, gate, table):
        # Any replacement three-line gate: the five-column XOR must find the
        # same mismatches, in the same order and with the same decoded
        # results, as 200 separate digit simulations.
        catalog = {**builtin_catalog(), gate: GatePermutation(gate, 3, table)}
        assert verify_architecture(arch, catalog) == per_input_report(arch, catalog)

    def test_classical_mismatches_come_back_in_sweep_order(self, monkeypatch):
        # A binary adder without the decimal correction: totals 10..15 come
        # back as sums 10..15 with no carry, totals 16..19 as sums 0..3.
        def binary_add(op):
            total = op.a + op.b + op.cin
            return BcdResult(total & 15, total >> 4)

        monkeypatch.setitem(ARCHITECTURES, "conventional",
                            Architecture("conventional", scalar_lanes(binary_add), tuple))
        report = verify_architecture("conventional")
        expected = [Mismatch(op, oracle(op), binary_add(op))
                    for op in valid_operands() if op.a + op.b + op.cin >= 10]
        assert list(report.mismatches) == expected
        assert {m.actual.sum for m in report.mismatches} == {*range(10, 16), *range(4)}
        assert report.metrics is None and report.targets is None

    def test_oracle_sweep_is_computed_once_per_process(self, monkeypatch):
        # Each report is rebuilt the way a per-call sweep would make it: the
        # oracle and the row's own adder (digit simulation for netlist rows).
        expected = {}
        for name, arch in ARCHITECTURES.items():
            build = arch.build() if arch.build else None
            mismatches = []
            for op in valid_operands():
                actual = arch.model(op)[0] if build is None else simulate_digit_add(build, op)
                if actual != oracle(op):
                    mismatches.append(Mismatch(op, oracle(op), actual))
            expected[name] = VerificationReport(
                name, 200, tuple(mismatches),
                build.metrics if build else None, build.target if build else None)
        audits = cla_agreement(), cla_errata()
        calls = []

        def counting_oracle(op):
            calls.append(op)
            return oracle(op)

        # From a cold start, the oracle table is built once and serves every
        # row, both audits and the corrected covers behind cla_corrected.
        classical.oracle_sweep.cache_clear()
        classical._corrected_lanes.cache_clear()
        monkeypatch.setattr(classical, "oracle", counting_oracle)
        reports = {name: verify_architecture(name) for name in ARCHITECTURES}
        assert (cla_agreement(), cla_errata()) == audits
        assert calls == list(valid_operands())
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

    @settings(max_examples=30, deadline=None)
    @given(flips=st.dictionaries(st.sampled_from(list(valid_operands())),
                                 st.integers(1, 31), max_size=12))
    @example(flips={})
    @example(flips={op: 31 for op in valid_operands()})
    def test_audits_equal_a_per_input_reference(self, flips):
        # A cla_verbatim row that flips chosen output bits of the oracle: both
        # audits must report what a per-input, per-equation sweep reports.
        def add(op):
            return BcdResult.from_code(oracle(op).code() ^ flips.get(op, 0))

        want_agreement, want_errata = {}, []
        for name in EQUATION_NAMES:
            wrong = [op for op in valid_operands()
                     if equation_bit(add(op), name) != equation_bit(oracle(op), name)]
            want_agreement[name] = (200 - len(wrong), 200)
            if wrong:
                op = wrong[0]
                want_errata.append(ErrataEntry(name, op, equation_bit(add(op), name),
                                               equation_bit(oracle(op), name)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(ARCHITECTURES, "cla_verbatim", Architecture(
                "cla_verbatim", scalar_lanes(add), tuple, exact=False))
            assert cla_agreement() == want_agreement
            assert cla_errata() == tuple(want_errata)

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
