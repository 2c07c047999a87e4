"""Reversible build tests: functional equivalence, cost metrics, structure."""

from __future__ import annotations

from collections import Counter

import pytest

from revdec.classical import (
    BcdOperands,
    BcdResult,
    carry_skip_add,
    conventional_add,
    oracle,
    valid_operands,
)
from revdec.gates import (
    BitVector,
    GatePermutation,
    UnknownGate,
    WidthMismatch,
    builtin_catalog,
)
from revdec.netlist import ROLE_ANCILLA, CostMetrics, Netlist, NetlistBuilder
from revdec.reversible import (
    FIDELITY_RECONSTRUCTED,
    ReversibleAdderBuild,
    and4_subcircuit,
    build_carry_skip_reversible,
    build_conventional_reversible,
    decode_primary,
    input_pattern,
    simulate_digit_add,
    skip_mux_subcircuit,
)

ALL_OPS = tuple(valid_operands())
CONVENTIONAL = build_conventional_reversible()
CARRY_SKIP = build_carry_skip_reversible()


def ancilla_wires(net) -> set[str]:
    return {d.wire for d in net.inputs if d.role == ROLE_ANCILLA}


def identity_tsg_catalog() -> dict[str, GatePermutation]:
    """The built-in gates with ``TSG`` replaced by the identity table."""
    return {**builtin_catalog(), "TSG": GatePermutation("TSG", 4, list(range(16)))}


def simulated(build: ReversibleAdderBuild, op: BcdOperands) -> BcdResult:
    """One digit read straight from the netlist, bypassing the build's table."""
    primary, _ = build.netlist.simulate(input_pattern(op))
    return decode_primary(build, primary)


class TestConventionalBuild:
    def test_matches_oracle_everywhere(self):
        for op in ALL_OPS:
            assert simulate_digit_add(CONVENTIONAL, op) == oracle(op)

    def test_matches_the_classical_model(self):
        for op in ALL_OPS:
            assert simulate_digit_add(CONVENTIONAL, op) == conventional_add(op)[0]

    def test_cost_metrics(self):
        assert CONVENTIONAL.metrics == CostMetrics(
            gate_count=9, garbage_count=13, ancilla_count=9, depth=8
        )

    def test_gate_inventory(self):
        net = CONVENTIONAL.netlist
        assert Counter(i.gate.name for i in net.gates) == {"TSG": 6, "NEW_GATE": 3}

    def test_fidelity_is_declared(self):
        assert CONVENTIONAL.figure_fidelity == FIDELITY_RECONSTRUCTED

    def test_injective(self):
        assert CONVENTIONAL.netlist.check_injective() is None

    def test_primary_interface(self):
        # input_pattern and decode_primary read the primary lines as
        # BcdOperands.code() and BcdResult.code(), which holds only while
        # both builds declare them in this order.
        for build in (CONVENTIONAL, CARRY_SKIP):
            assert build.netlist.primary_input_wires() == (
                "a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "cin",
            )
            assert build.netlist.primary_output_wires() == ("s0", "s1", "s2", "s3", "cout")

    def test_four_full_adders_wired_with_constant_zero(self):
        # The binary stage: one four-line adder gate per bit position, each
        # with operand bits on its first two lines and a fresh constant-zero
        # ancilla on its third.
        net = CONVENTIONAL.netlist
        ancillas = ancilla_wires(net)
        stage = [
            inst
            for inst in net.gates
            if inst.gate.name == "TSG" and inst.input_wires[0].startswith("a")
        ]
        assert len(stage) == 4
        for j, inst in enumerate(stage):
            assert inst.input_wires[0] == f"a{j}"
            assert inst.input_wires[1] == f"b{j}"
            assert inst.input_wires[2] in ancillas

    def test_no_wire_fans_out(self):
        net = CONVENTIONAL.netlist
        consumers: dict[str, int] = {}
        for inst in net.gates:
            for wire in inst.input_wires:
                consumers[wire] = consumers.get(wire, 0) + 1
        for decl in net.outputs:
            consumers[decl.wire] = consumers.get(decl.wire, 0) + 1
        assert all(count == 1 for count in consumers.values())


class TestCarrySkipBuild:
    def test_matches_oracle_everywhere(self):
        for op in ALL_OPS:
            assert simulate_digit_add(CARRY_SKIP, op) == oracle(op)

    def test_matches_the_classical_model(self):
        for op in ALL_OPS:
            assert simulate_digit_add(CARRY_SKIP, op) == carry_skip_add(op)[0]

    def test_cost_metrics(self):
        assert CARRY_SKIP.metrics == CostMetrics(
            gate_count=17, garbage_count=21, ancilla_count=17, depth=13
        )

    def test_gate_inventory(self):
        net = CARRY_SKIP.netlist
        assert Counter(i.gate.name for i in net.gates) == {
            "TSG": 6, "FREDKIN": 4, "TS3": 3, "TOFFOLI": 3, "NEW_GATE": 1,
        }

    def test_fidelity_is_declared(self):
        assert CARRY_SKIP.figure_fidelity == FIDELITY_RECONSTRUCTED

    def test_injective(self):
        assert CARRY_SKIP.netlist.check_injective() is None

    def test_four_full_adders_wired_with_constant_zero(self):
        net = CARRY_SKIP.netlist
        ancillas = ancilla_wires(net)
        stage = [
            inst
            for inst in net.gates
            if inst.gate.name == "TSG"
            and (inst.input_wires[0].startswith("a") or inst.input_wires[0] == "cin")
        ]
        assert len(stage) == 4
        for inst in stage:
            assert inst.input_wires[2] in ancillas

    def test_skip_mux_sees_the_carry_in_early(self):
        # The selection gate is the only controlled swap fed entirely by
        # computed wires.  Its carry-in leg must be ready strictly earlier
        # than the rippled stage carry, and must not depend on the gate that
        # produces that carry; otherwise there is nothing to skip.
        net = CARRY_SKIP.netlist
        ancillas = ancilla_wires(net)
        muxes = [
            inst
            for inst in net.gates
            if inst.gate.name == "FREDKIN"
            and not any(w in ancillas for w in inst.input_wires)
        ]
        assert len(muxes) == 1
        mux = muxes[0]
        early_leg, late_leg = mux.input_wires[1], mux.input_wires[2]
        depths = net.wire_depths()
        assert depths[early_leg] < depths[late_leg]
        assert depths[early_leg] == 2 and depths[late_leg] == 5
        late_driver = next(
            i for i, inst in enumerate(net.gates) if late_leg in inst.output_wires
        )
        assert late_driver not in net.cone_of(early_leg)
        assert net.cone_of(early_leg) < net.cone_of(late_leg)  # strictly smaller cone

    def test_block_propagate_uses_three_swaps_plus_the_mux(self):
        fredkins = [i for i in CARRY_SKIP.netlist.gates if i.gate.name == "FREDKIN"]
        assert len(fredkins) == 4

    def test_exclusive_conditions_merge_through_parity(self):
        # The trigger is produced by a three-way parity gate whose output
        # wire feeds the correction layer.
        net = CARRY_SKIP.netlist
        parity = [
            inst
            for inst in net.gates
            if inst.gate.name == "TS3" and "trigger" in inst.output_wires
        ]
        assert len(parity) == 1

    def test_no_wire_fans_out(self):
        net = CARRY_SKIP.netlist
        consumers: dict[str, int] = {}
        for inst in net.gates:
            for wire in inst.input_wires:
                consumers[wire] = consumers.get(wire, 0) + 1
        for decl in net.outputs:
            consumers[decl.wire] = consumers.get(decl.wire, 0) + 1
        assert all(count == 1 for count in consumers.values())


class TestSubcircuits:
    def test_and4_is_a_four_way_and(self):
        b = NetlistBuilder("and4_harness")
        wires = [b.primary_input(f"i{k}") for k in range(4)]
        out = and4_subcircuit(b, wires, builtin_catalog())
        b.primary_output(out)
        net = b.build()
        assert Counter(i.gate.name for i in net.gates) == {"FREDKIN": 3}
        assert net.metrics().garbage_count == 6
        for pattern in range(16):
            primary, _ = net.simulate(BitVector(4, pattern))
            assert primary.bit(0) == (1 if pattern == 0b1111 else 0)

    def test_and4_needs_four_wires(self):
        b = NetlistBuilder("short")
        wires = [b.primary_input(f"i{k}") for k in range(3)]
        with pytest.raises(ValueError):
            and4_subcircuit(b, wires, builtin_catalog())

    def test_skip_mux_selects_between_carries(self):
        b = NetlistBuilder("mux_harness")
        select = b.primary_input("select")
        when_set = b.primary_input("when_set")
        when_clear = b.primary_input("when_clear")
        out = skip_mux_subcircuit(b, select, when_set, when_clear, builtin_catalog())
        b.primary_output(out)
        net = b.build()
        assert Counter(i.gate.name for i in net.gates) == {"FREDKIN": 1}
        assert net.metrics().garbage_count == 2
        for s in (0, 1):
            for hi in (0, 1):
                for lo in (0, 1):
                    primary, _ = net.simulate(BitVector.from_bits([s, hi, lo]))
                    assert primary.bit(0) == (hi if s else lo)


class TestEncodingAndCatalog:
    def test_input_pattern_layout(self):
        x = input_pattern(BcdOperands(9, 6, 1))
        assert x.value == 9 | (6 << 4) | (1 << 8)

    def test_input_pattern_is_the_operand_code(self):
        for op in ALL_OPS:
            assert input_pattern(op).value == op.code()

    def test_result_code_decodes_back(self):
        for total in range(16):
            for cout in (0, 1):
                code = BcdResult(total, cout).code()
                assert decode_primary(CONVENTIONAL, BitVector(5, code)) == (
                    BcdResult(total, cout)
                )

    def test_metrics_are_computed_once_on_first_read(self, monkeypatch):
        calls = []
        real_metrics = Netlist.metrics

        def counted(net):
            calls.append(net.name)
            return real_metrics(net)

        monkeypatch.setattr(Netlist, "metrics", counted)
        build = build_conventional_reversible()
        assert calls == []
        assert build.metrics == build.metrics == real_metrics(build.netlist)
        assert calls == [build.netlist.name]

    def test_build_record_holds_netlist_and_target(self):
        assert ReversibleAdderBuild.__match_args__ == ("netlist", "target")
        assert CONVENTIONAL == ReversibleAdderBuild(CONVENTIONAL.netlist, (11, 22))
        assert hash(CONVENTIONAL) == hash((CONVENTIONAL.netlist, (11, 22)))

    def test_missing_gate_in_catalog(self):
        catalog = builtin_catalog()
        del catalog["TSG"]
        with pytest.raises(UnknownGate, match="TSG"):
            build_conventional_reversible(catalog)

    def test_replacement_tables_drive_behavior(self):
        # Swapping in a wrong (but reversible) adder gate must change the
        # computed results; the wiring itself has no arithmetic hidden in it.
        broken = build_conventional_reversible(identity_tsg_catalog())
        disagreements = sum(
            simulate_digit_add(broken, op) != oracle(op) for op in ALL_OPS
        )
        assert disagreements > 0

    def test_builds_are_reproducible(self):
        again = build_conventional_reversible()
        assert again.netlist == CONVENTIONAL.netlist
        assert build_carry_skip_reversible().netlist == CARRY_SKIP.netlist


class TestDigitTable:
    @pytest.mark.parametrize(
        "make", [build_conventional_reversible, build_carry_skip_reversible]
    )
    def test_first_call_per_operand_simulates_once(self, monkeypatch, make):
        calls = []
        real_simulate = Netlist.simulate

        def counted(net, x):
            calls.append(x.value)
            return real_simulate(net, x)

        monkeypatch.setattr(Netlist, "simulate", counted)
        build = make()
        for op in ALL_OPS:
            first = simulate_digit_add(build, op)
            assert calls == [op.code()]
            assert simulate_digit_add(build, op) == first == oracle(op)
            assert calls == [op.code()]
            calls.clear()

    @pytest.mark.parametrize("identity_first", [False, True])
    def test_tables_do_not_leak_between_builds(self, identity_first):
        builds = [build_conventional_reversible(),
                  build_conventional_reversible(identity_tsg_catalog())]
        if identity_first:
            builds.reverse()
        expected = [[simulated(build, op) for op in ALL_OPS] for build in builds]
        got = [[simulate_digit_add(build, op) for op in ALL_OPS] for build in builds]
        assert got == expected
        assert got[0] != got[1]

    def test_filled_table_keeps_equality_and_hash(self):
        build = build_carry_skip_reversible()
        before = hash(build)
        for op in ALL_OPS:
            simulate_digit_add(build, op)
        fresh = build_carry_skip_reversible()
        assert build == fresh
        assert hash(build) == hash(fresh) == before

    def test_width_mismatch_raises_on_every_call_and_caches_nothing(self):
        b = NetlistBuilder("narrow")
        wires = [b.primary_input(f"i{k}") for k in range(4)]
        b.primary_output(and4_subcircuit(b, wires, builtin_catalog()))
        build = ReversibleAdderBuild(b.build(), (0, 0))
        op = BcdOperands(9, 6, 1)
        with pytest.raises(WidthMismatch) as direct:
            build.netlist.simulate(input_pattern(op))
        for _ in range(3):
            with pytest.raises(WidthMismatch) as info:
                simulate_digit_add(build, op)
            assert str(info.value) == str(direct.value)
        assert not any(vars(build).get("_digit_table", ()))
