"""Reversible build tests: functional equivalence, cost metrics, structure."""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import ALL_CODES, GATE_DEFS, counting_row
from test_netlist import reference_depths, reference_doc

from revdec import classical, gates, reversible
from revdec.classical import (
    ARCHITECTURES,
    BcdOperands,
    BcdResult,
    carry_skip_add,
    conventional_add,
    decimal_add,
    digit_table,
    oracle,
    oracle_sweep,
    valid_operands,
)
from revdec.gates import (
    BitVector,
    GatePermutation,
    UnknownGate,
    WidthMismatch,
    builtin_catalog,
    parse_gate_defs,
)
from revdec.netlist import (
    ROLE_ANCILLA,
    CostMetrics,
    GateInstance,
    InputDecl,
    MalformedNetlist,
    Netlist,
    NetlistBuilder,
    OutputDecl,
)
from revdec.reversible import (
    FIDELITY_RECONSTRUCTED,
    ReversibleAdderBuild,
    build_carry_skip_reversible,
    build_conventional_reversible,
    decode_primary,
    input_pattern,
    simulate_digit_add,
)
from revdec.verification import table1_report, verify_architecture

ALL_OPS = tuple(valid_operands())
CONVENTIONAL = build_conventional_reversible()
CARRY_SKIP = build_carry_skip_reversible()


def ancilla_wires(net) -> set[str]:
    return {d.wire for d in net.inputs if d.role == ROLE_ANCILLA}


def cone(net: Netlist, wire: str) -> set[int]:
    """Indices of the gates that ``wire`` transitively depends on."""
    driver = {w: g for g, inst in enumerate(net.gates) for w in inst.output_wires}
    seen, frontier = set(), [wire]
    while frontier:
        g = driver.get(frontier.pop())
        if g is not None and g not in seen:
            seen.add(g)
            frontier.extend(net.gates[g].input_wires)
    return seen


def replayed(design: tuple, catalog) -> ReversibleAdderBuild:
    """The reference build of a design: its rows replayed through
    :class:`NetlistBuilder`, which names the ancillas and classifies the
    garbage as it goes."""
    name, target, lookup, rows = design
    catalog = builtin_catalog() if catalog is None else catalog
    gates = {gate: catalog.get(gate) for gate in lookup}
    for gate, table in gates.items():
        if table is None:
            raise UnknownGate(f"the adder builders need a gate named {gate!r}")
    builder = NetlistBuilder(name)
    for wire in ("a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "cin"):
        builder.primary_input(wire)
    for gate, inputs, outputs in rows:
        wires = [builder.ancilla(w) if type(w) is int else w for w in inputs]
        builder.gate(gates[gate], wires, outputs)
    for wire in ("s0", "s1", "s2", "s3", "cout"):
        builder.primary_output(wire)
    return ReversibleAdderBuild(builder.build(), target)


DESIGNS = pytest.mark.parametrize("design", [reversible._CONVENTIONAL, reversible._CARRY_SKIP],
                                  ids=["conventional", "carry_skip"])


def assert_placed_as_replayed(design: tuple, catalog) -> Netlist:
    """``_build`` gives the reference build, byte for byte in both exports,
    and shares its design's declarations, analysis (which equals a fresh
    walk of its wires) and rendered wiring; its JSON is the dumped
    :func:`reference_doc` and parses back to it."""
    build, reference = reversible._build(design, catalog), replayed(design, catalog)
    assert build == reference
    assert build.netlist.to_json() == reference.netlist.to_json()
    assert build.netlist.to_dot() == reference.netlist.to_dot()
    net, template = build.netlist, reversible._template(design)
    assert net._analysis == Netlist(net.name, net.inputs, net.outputs, net.gates)._analysis
    assert net.inputs is template.inputs and net.outputs is template.outputs
    assert net._analysis is template._analysis
    # The wiring's JSON is the template's; the rest of the text is the build's.
    assert net._wiring is template._wiring
    text = net.to_json()
    assert text == json.dumps(reference_doc(net), indent=2)
    assert Netlist.from_json(text) == net
    return net


def bijective_catalog(rng: random.Random) -> dict[str, GatePermutation]:
    """The built-in gate names, each with a random table of its width."""
    return {name: GatePermutation(name, gate.width, rng.sample(range(1 << gate.width),
                                                               1 << gate.width))
            for name, gate in builtin_catalog().items()}


def identity_tsg_catalog() -> dict[str, GatePermutation]:
    """The built-in gates with ``TSG`` replaced by the identity table."""
    return {**builtin_catalog(), "TSG": GatePermutation("TSG", 4, list(range(16)))}


def reversed_new_gate_catalog() -> dict[str, GatePermutation]:
    """The built-in gates with ``NEW_GATE``'s table reversed."""
    return {**builtin_catalog(), "NEW_GATE": GatePermutation("NEW_GATE", 3, range(7, -1, -1))}


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
        depths = dict(zip(net._analysis.wires, net._depths()))
        assert depths == reference_depths(net)
        assert depths[early_leg] < depths[late_leg]
        assert depths[early_leg] == 2 and depths[late_leg] == 5
        late_driver = next(
            i for i, inst in enumerate(net.gates) if late_leg in inst.output_wires
        )
        assert late_driver not in cone(net, early_leg)
        assert cone(net, early_leg) < cone(net, late_leg)  # strictly smaller cone

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


class TestSkipPathWires:
    """The block propagate and the skip multiplexer, read off the built
    carry-skip netlist over all 512 input codes."""

    def test_and4_acc3_is_the_and_of_the_four_propagates(self):
        lanes = CARRY_SKIP.netlist.columns()
        assert lanes["and4_acc3"] == lanes["p0"] & lanes["p1"] & lanes["p2"] & lanes["p3"]

    def test_skip_out_is_cin_thread_where_the_block_propagates(self):
        lanes = CARRY_SKIP.netlist.columns()
        select, everywhere = lanes["and4_acc3"], (1 << 512) - 1
        assert 0 < select < everywhere
        assert lanes["cin_thread"] == lanes["cin"]
        assert lanes["skip_out"] == (
            lanes["cin_thread"] & select | lanes["carry4"] & ~select & everywhere)

    def test_each_and_stage_reads_a_fresh_zero_ancilla(self):
        net = CARRY_SKIP.netlist
        zeros = {d.wire for d in net.inputs if d.role == ROLE_ANCILLA and d.const == 0}
        reads = Counter(w for inst in net.gates for w in inst.input_wires)
        stages = [inst for inst in net.gates
                  if inst.output_wires[-1] in ("and4_acc1", "and4_acc2", "and4_acc3")]
        assert [inst.gate.name for inst in stages] == ["FREDKIN"] * 3
        for inst in stages:
            assert inst.input_wires[2] in zeros and reads[inst.input_wires[2]] == 1


# The gate each builder names first for a catalog without the removed
# built-ins (None: it builds), as a literal table.  The carry-skip build
# reports TSG before TS3, although its first row places a TS3.
FIRST_MISSING = [
    # removed, conventional, carry-skip
    ("FREDKIN", None, "FREDKIN"),
    ("TOFFOLI", None, "TOFFOLI"),
    ("TS3", None, "TS3"),
    ("NEW_GATE", "NEW_GATE", "NEW_GATE"),
    ("TSG", "TSG", "TSG"),
    ("FREDKIN TOFFOLI", None, "TOFFOLI"),
    ("FREDKIN TS3", None, "TS3"),
    ("FREDKIN NEW_GATE", "NEW_GATE", "NEW_GATE"),
    ("FREDKIN TSG", "TSG", "TSG"),
    ("TOFFOLI TS3", None, "TS3"),
    ("TOFFOLI NEW_GATE", "NEW_GATE", "TOFFOLI"),
    ("TOFFOLI TSG", "TSG", "TSG"),
    ("TS3 NEW_GATE", "NEW_GATE", "TS3"),
    ("TS3 TSG", "TSG", "TSG"),
    ("NEW_GATE TSG", "TSG", "TSG"),
    ("FREDKIN TOFFOLI TS3", None, "TS3"),
    ("FREDKIN TOFFOLI NEW_GATE", "NEW_GATE", "TOFFOLI"),
    ("FREDKIN TOFFOLI TSG", "TSG", "TSG"),
    ("FREDKIN TS3 NEW_GATE", "NEW_GATE", "TS3"),
    ("FREDKIN TS3 TSG", "TSG", "TSG"),
    ("FREDKIN NEW_GATE TSG", "TSG", "TSG"),
    ("TOFFOLI TS3 NEW_GATE", "NEW_GATE", "TS3"),
    ("TOFFOLI TS3 TSG", "TSG", "TSG"),
    ("TOFFOLI NEW_GATE TSG", "TSG", "TSG"),
    ("TS3 NEW_GATE TSG", "TSG", "TSG"),
    ("FREDKIN TOFFOLI TS3 NEW_GATE", "NEW_GATE", "TS3"),
    ("FREDKIN TOFFOLI TS3 TSG", "TSG", "TSG"),
    ("FREDKIN TOFFOLI NEW_GATE TSG", "TSG", "TSG"),
    ("FREDKIN TS3 NEW_GATE TSG", "TSG", "TSG"),
    ("TOFFOLI TS3 NEW_GATE TSG", "TSG", "TSG"),
    ("FREDKIN TOFFOLI TS3 NEW_GATE TSG", "TSG", "TSG"),
]


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

    @pytest.mark.parametrize("build", [
        build_conventional_reversible,
        build_carry_skip_reversible,
        lambda catalog: verify_architecture("rev_conventional", catalog),
        lambda catalog: verify_architecture("rev_carry_skip", catalog),
    ], ids=["conventional", "carry_skip", "verify-conventional", "verify-carry_skip"])
    @pytest.mark.parametrize("catalog", [{}, parse_gate_defs("# empty")],
                             ids=["dict", "parsed"])
    def test_empty_catalog_is_not_replaced_by_the_builtins(self, build, catalog):
        # Only None means "the built-in gates"; an empty catalog lacks TSG.
        assert catalog == {}
        with pytest.raises(UnknownGate, match="TSG"):
            build(catalog)

    @pytest.mark.parametrize("build, removed, named", [
        pytest.param(build, removed, named, id=f"{kind}-{removed.replace(' ', '+')}")
        for removed, *named_by in FIRST_MISSING
        for (kind, build), named in zip(
            [("conventional", build_conventional_reversible),
             ("carry_skip", build_carry_skip_reversible)], named_by)
    ])
    def test_the_first_missing_gate_is_named(self, build, removed, named):
        catalog = {n: g for n, g in builtin_catalog().items() if n not in removed.split()}
        if named is None:
            assert build(catalog).netlist == build().netlist
            return
        with pytest.raises(UnknownGate) as info:
            build(catalog)
        assert str(info.value) == f"the adder builders need a gate named {named!r}"

    @settings(max_examples=25, deadline=None)
    @given(st.fixed_dictionaries({name: st.permutations(range(1 << gate.width))
                                  for name, gate in builtin_catalog().items()}))
    def test_any_bijective_tables_build_valid_injective_netlists(self, tables):
        # Every table wires each line exactly once, so no choice of the five
        # gates' (bijective) tables can break validity or injectivity.
        # _build places them exactly as the builder replay does.
        catalog = {name: GatePermutation(name, gate.width, tables[name])
                   for name, gate in builtin_catalog().items()}
        for design in (reversible._CONVENTIONAL, reversible._CARRY_SKIP):
            net = assert_placed_as_replayed(design, catalog)
            net.validate()
            assert net.check_injective() is None

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


class TestPlacement:
    """``_build`` puts a catalog's gates on its design's template, which
    ``_place`` replays through :class:`NetlistBuilder`; ``replayed``, the
    same rows replayed with the catalog's own gates, is its reference."""

    @DESIGNS
    @pytest.mark.parametrize("catalog", [
        None,
        parse_gate_defs(GATE_DEFS.read_text(encoding="utf-8")),
        identity_tsg_catalog(),
        reversed_new_gate_catalog(),
        *(bijective_catalog(random.Random(seed)) for seed in range(3)),
    ], ids=["builtin", "gate_defs", "identity_tsg", "reversed_new_gate",
            "random0", "random1", "random2"])
    def test_placement_is_the_builder_replay(self, design, catalog):
        assert_placed_as_replayed(design, catalog)

    @DESIGNS
    @pytest.mark.parametrize("gate", list(builtin_catalog()))
    def test_a_gate_of_the_wrong_width_fails_as_in_the_replay(self, design, gate):
        width = builtin_catalog()[gate].width
        wrong = width + 1 if width < 4 else width - 1
        catalog = {**builtin_catalog(), gate: GatePermutation(gate, wrong, range(1 << wrong))}
        if gate not in design[2]:  # the design never looks the gate up
            assert_placed_as_replayed(design, catalog)
            return
        with pytest.raises(MalformedNetlist) as reference:
            replayed(design, catalog)
        with pytest.raises(MalformedNetlist) as placed:
            reversible._build(design, catalog)
        assert type(placed.value) is type(reference.value)
        assert str(placed.value) == str(reference.value)
        # The failed build leaves the design's shared template intact.
        assert_placed_as_replayed(design, None)


class TestTemplate:
    """Each design is placed once per process, on its first build; every
    build makes its own gate records on that wiring."""

    def test_each_design_is_placed_once_across_catalogs(self, monkeypatch):
        reversible._template.cache_clear()
        real, placed = reversible._place, []
        monkeypatch.setattr(reversible, "_place",
                            lambda name, *args: placed.append(name) or real(name, *args))
        rng = random.Random(26)
        catalogs = [None, parse_gate_defs(GATE_DEFS.read_text(encoding="utf-8")),
                    identity_tsg_catalog(), *(bijective_catalog(rng) for _ in range(5))]
        designs = (reversible._CONVENTIONAL, reversible._CARRY_SKIP)
        builds = [[assert_placed_as_replayed(design, catalog) for design in designs]
                  for catalog in catalogs]
        assert placed == [design[0] for design in designs]
        # Builds share the wiring, never their gate records.
        for k, design in enumerate(designs):
            nets = [row[k] for row in builds]
            records = {id(inst) for net in nets for inst in net.gates}
            assert len(records) == len(nets) * len(design[3])

    @pytest.mark.parametrize("catalog", [
        None,
        parse_gate_defs(GATE_DEFS.read_text(encoding="utf-8")),
        identity_tsg_catalog(),
    ], ids=["builtin", "gate_defs", "identity_tsg"])
    def test_a_same_width_catalog_checks_no_gate_record(self, monkeypatch, catalog):
        # The template's wires were checked when it was placed, and a gate
        # as wide as the one it replaces keeps them unchecked.
        designs = (reversible._CONVENTIONAL, reversible._CARRY_SKIP)
        for design in designs:
            reversible._template(design)
        checked, real = [], GateInstance.__post_init__
        monkeypatch.setattr(GateInstance, "__post_init__",
                            lambda inst: checked.append(inst) or real(inst))
        builds = [reversible._build(design, catalog) for design in designs]
        assert checked == []
        monkeypatch.undo()
        assert builds == [replayed(design, catalog) for design in designs]
        # A copy runs every check again.
        for build in builds:
            assert copy.copy(build.netlist) == build.netlist
            assert [copy.copy(inst) for inst in build.netlist.gates] == list(build.netlist.gates)

    @DESIGNS
    def test_builds_of_two_catalogs_keep_their_own_gates(self, design):
        # Renamed gates show that names render per build, and the random
        # tables that gate_defs does; serialising in turns shows that one
        # build's text never leaks into the other's.
        rng = random.Random(35)
        renamed = {name: GatePermutation(f"MY_{name}", gate.width, gate.table)
                   for name, gate in bijective_catalog(rng).items()}
        catalogs = [renamed, bijective_catalog(rng), None]
        nets = [reversible._build(design, catalog).netlist for catalog in catalogs]
        for _ in range(2):
            for net, catalog in zip(nets, catalogs):
                doc = json.loads(net.to_json())
                gates = builtin_catalog() if catalog is None else catalog
                assert [g["gate_name"] for g in doc["gates"]] == [
                    gates[row[0]].name for row in design[3]]
                assert {d["name"]: tuple(d["table"]) for d in doc["gate_defs"]} == {
                    gates[name].name: gates[name].table for name in design[2]}

    def test_the_wiring_renders_once_per_design(self, monkeypatch):
        reversible._template.cache_clear()
        rendered, real = [], Netlist._wiring.func
        wiring = cached_property(lambda net: rendered.append(net.name) or real(net))
        wiring.__set_name__(Netlist, "_wiring")
        monkeypatch.setattr(Netlist, "_wiring", wiring)
        rng = random.Random(35)
        catalogs = [None, parse_gate_defs(GATE_DEFS.read_text(encoding="utf-8")),
                    reversed_new_gate_catalog(), *(bijective_catalog(rng) for _ in range(3))]
        designs = (reversible._CONVENTIONAL, reversible._CARRY_SKIP)
        for catalog in catalogs:
            for design in designs:
                reversible._build(design, catalog).netlist.to_json()
        assert rendered == [design[0] for design in designs]

    def test_import_places_nothing(self):
        code = ("import revdec, revdec.cli, revdec.reversible as r\n"
                "assert r._template.cache_info().currsize == 0")
        env = dict(os.environ, PYTHONPATH=str(Path(reversible.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


def place_rows(rows: tuple,
               outputs: tuple[str, ...] = reversible.PRIMARY_OUTPUT_ORDER) -> Netlist:
    """Rows placed between the adders' primary inputs and ``outputs``."""
    return reversible._place("t", reversible.PRIMARY_INPUT_ORDER, rows, outputs,
                             builtin_catalog())


class TestPlace:
    """``_place`` puts a design's rows between the inputs and outputs it is
    given, with the builder's ancilla names and call-time checks."""

    @DESIGNS
    def test_a_renamed_table_places_as_the_renamed_netlist(self, design):
        def d3(wire):
            return wire if type(wire) is int else f"d3_{wire}"

        name, _, _, rows = design
        moved = reversible._place(
            name, tuple(map(d3, reversible.PRIMARY_INPUT_ORDER)),
            tuple((gate, tuple(map(d3, ins)), tuple(map(d3, outs))) for gate, ins, outs in rows),
            tuple(map(d3, reversible.PRIMARY_OUTPUT_ORDER)), builtin_catalog())
        net = reversible._template(design)
        ancillas = ancilla_wires(net)

        def m(wire):  # ancillas keep their zero{k} / one{k} names
            return wire if wire in ancillas else f"d3_{wire}"

        assert moved.inputs == tuple(InputDecl(m(d.wire), d.role, d.const) for d in net.inputs)
        assert moved.outputs == tuple(OutputDecl(m(d.wire), d.role) for d in net.outputs)
        assert moved.gates == tuple(
            GateInstance(inst.gate, tuple(map(m, inst.input_wires)),
                         tuple(map(m, inst.output_wires)))
            for inst in net.gates)
        assert moved.columns() == {m(wire): lane for wire, lane in net.columns().items()}

    def spy(self, monkeypatch) -> list:
        """The outputs of every ``NetlistBuilder.gate`` call, failed or not."""
        calls, real = [], NetlistBuilder.gate
        monkeypatch.setattr(NetlistBuilder, "gate",
                            lambda self, gate, ins, outs: calls.append(outs)
                            or real(self, gate, ins, outs))
        return calls

    def test_a_row_reading_an_undriven_wire_fails_in_that_row(self, monkeypatch):
        rows = list(reversible._CONVENTIONAL[3])
        rows[4], rows[5] = rows[5], rows[4]  # the or12 reader before its driver
        calls = self.spy(monkeypatch)
        with pytest.raises(MalformedNetlist, match="wire 'or12' does not exist yet"):
            place_rows(tuple(rows))
        assert calls == [outs for _, _, outs in rows[:5]]

    def test_a_wire_two_rows_consume_fails_in_the_second(self, monkeypatch):
        rows = list(reversible._CONVENTIONAL[3])
        rows[2] = ("TSG", ("a2", "b2", 0, "carry1"), rows[2][2])  # row 1 consumed carry1
        calls = self.spy(monkeypatch)
        with pytest.raises(MalformedNetlist, match="wire 'carry1' was already consumed; "
                                                   "reversible wires cannot fan out"):
            place_rows(tuple(rows))
        assert calls == [outs for _, _, outs in rows[:3]]

    def test_an_output_already_consumed_fails(self):
        outputs = ("s0", "s1", "s2", "s3", "carry1")
        with pytest.raises(MalformedNetlist, match="^wire 'carry1' was already consumed$"):
            place_rows(reversible._CONVENTIONAL[3], outputs)


class TestDigitTable:
    @pytest.mark.parametrize(
        "make", [build_conventional_reversible, build_carry_skip_reversible]
    )
    def test_table_is_decoded_once_from_the_columns(self, monkeypatch, make):
        # The whole table comes from one read of the columns, whose single
        # Netlist.simulate call only validates and checks the width.
        build = make()
        expected = [simulated(build, op) for op in ALL_OPS]
        assert expected == [oracle(op) for op in ALL_OPS]
        columns = vars(ReversibleAdderBuild)["columns"]
        counted = cached_property(lambda build: calls.append(build) or columns.func(build))
        counted.__set_name__(ReversibleAdderBuild, "columns")
        calls, simulations = [], []
        real_simulate = Netlist.simulate
        monkeypatch.setattr(ReversibleAdderBuild, "columns", counted)
        monkeypatch.setattr(Netlist, "simulate",
                            lambda net, x: simulations.append(x) or real_simulate(net, x))
        for _ in range(2):
            assert [simulate_digit_add(build, op) for op in ALL_OPS] == expected
        assert calls == [build]
        assert len(simulations) == 1

    @pytest.mark.parametrize(
        "make", [build_conventional_reversible, build_carry_skip_reversible]
    )
    def test_columns_simulate_once_and_sweep_once(self, monkeypatch, make):
        # The benchmark's traced run times Netlist.simulate inside the digit
        # table's first fill, so columns keeps its one simulate call, a gate
        # pass for pattern 0, beside its one sweep over all 512 input codes.
        build = make()
        simulations, sweeps = [], []
        real_simulate = Netlist.simulate
        monkeypatch.setattr(Netlist, "simulate",
                            lambda net, x: simulations.append(x) or real_simulate(net, x))
        lanes = vars(Netlist)["_columns"]
        counted = cached_property(lambda net: sweeps.append(net) or lanes.func(net))
        counted.__set_name__(Netlist, "_columns")
        monkeypatch.setattr(Netlist, "_columns", counted)
        for _ in range(2):
            assert build.columns == tuple(
                build.netlist.columns()[w] for w in build.netlist.primary_output_wires())
        assert simulations == [BitVector(9, 0)]
        assert sweeps == [build.netlist]

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
        # Three controlled swaps conjoin four primary inputs: a valid
        # netlist, but four inputs wide instead of nine.
        fredkin = builtin_catalog()["FREDKIN"]
        b = NetlistBuilder("narrow")
        i0, i1, i2, i3 = (b.primary_input(f"i{k}") for k in range(4))
        b.gate(fredkin, (i0, i1, b.ancilla(0)), ("thru1", "skip1", "acc1"))
        b.gate(fredkin, ("acc1", i2, b.ancilla(0)), ("thru2", "skip2", "acc2"))
        b.gate(fredkin, ("acc2", i3, b.ancilla(0)), ("thru3", "skip3", "acc3"))
        b.primary_output("acc3")
        build = ReversibleAdderBuild(b.build(), (0, 0))
        op = BcdOperands(9, 6, 1)
        with pytest.raises(WidthMismatch) as direct:
            build.netlist.simulate(input_pattern(op))
        for _ in range(3):
            with pytest.raises(WidthMismatch) as info:
                simulate_digit_add(build, op)
            assert str(info.value) == str(direct.value)
        assert not {"columns", "_digit_table", "digit_pairs"} & set(vars(build))


class TestOneDigitPath:
    """Every registry row answers through its five columns, and one decoder
    turns them into the digits its own adder or netlist computes."""

    @pytest.mark.parametrize("name, catalog", [
        *((name, None) for name in ARCHITECTURES),
        ("rev_conventional", identity_tsg_catalog()),
        ("rev_carry_skip", identity_tsg_catalog()),
    ], ids=[*ARCHITECTURES, "rev_conventional-identity_tsg", "rev_carry_skip-identity_tsg"])
    def test_digit_table_of_the_columns_is_the_rows_results(self, name, catalog):
        row = ARCHITECTURES[name]
        if row.build is None:
            want = [row.model(op)[0] for op in ALL_OPS]
        else:
            build = row.build(catalog)
            want = [simulated(build, op) for op in ALL_OPS]
            assert [simulate_digit_add(build, op) for op in ALL_OPS] == want
        table = digit_table(row.build(catalog).columns if row.build else row.columns())
        assert list(table) == want
        assert (table == digit_table(oracle_sweep()[1])) is (catalog is None and row.exact)


class TestBuildCache:
    """A registry row builds once per catalog content; builders called
    directly build afresh every time."""

    BUILDERS = {"rev_conventional": "build_conventional_reversible",
                "rev_carry_skip": "build_carry_skip_reversible"}

    @pytest.mark.parametrize("arch", BUILDERS)
    def test_equal_catalogs_share_one_build(self, arch):
        build = ARCHITECTURES[arch].build
        restated = parse_gate_defs(GATE_DEFS.read_text(encoding="utf-8"))
        assert restated is not builtin_catalog()
        assert build(restated) is build(builtin_catalog()) is build(None) is build()

    @pytest.mark.parametrize("arch", BUILDERS)
    def test_a_row_builds_once_per_catalog(self, monkeypatch, arch):
        classical._cached_build.cache_clear()
        real = getattr(reversible, self.BUILDERS[arch])
        calls = []
        monkeypatch.setattr(reversible, self.BUILDERS[arch],
                            lambda catalog: calls.append(catalog) or real(catalog))
        for _ in range(3):
            assert verify_architecture(arch).passed
        table1_report()
        ARCHITECTURES[arch].build(builtin_catalog())
        assert len(calls) == 1
        assert real() is not real()

    def test_the_builtin_key_is_made_once_per_process(self, monkeypatch):
        classical._builtin_gates.cache_clear()
        real = gates.builtin_catalog
        calls = []
        monkeypatch.setattr(gates, "builtin_catalog", lambda: calls.append(1) or real())
        try:
            for arch in self.BUILDERS:
                for _ in range(2):
                    assert verify_architecture(arch).passed
                    assert ARCHITECTURES[arch].build() is ARCHITECTURES[arch].build(real())
            assert len(calls) == 1
        finally:
            classical._builtin_gates.cache_clear()

    def test_catalogs_never_share_a_build_table_or_report(self):
        row = ARCHITECTURES["rev_conventional"]
        broken = identity_tsg_catalog()
        for _ in range(2):
            assert not verify_architecture("rev_conventional", broken).passed
            assert verify_architecture("rev_conventional").passed
        assert row.build(broken) is not row.build()
        got = [[simulate_digit_add(row.build(catalog), op) for op in ALL_OPS]
               for catalog in (broken, None)]
        assert got[0] == [simulated(row.build(broken), op) for op in ALL_OPS]
        assert got[1] == [oracle(op) for op in ALL_OPS] != got[0]

    def test_cache_never_outgrows_its_bound(self):
        bound = classical._cached_build.cache_info().maxsize
        row = ARCHITECTURES["rev_carry_skip"]
        for k in range(2 * bound + 1):
            spare = GatePermutation(f"SPARE{k}", 1, [1, 0])
            catalog = {**builtin_catalog(), spare.name: spare}
            assert row.build(catalog) is row.build(dict(catalog))
            assert verify_architecture("rev_carry_skip", catalog).passed
            assert classical._cached_build.cache_info().currsize <= bound

    def test_a_failed_build_is_not_cached(self):
        before = classical._cached_build.cache_info().currsize
        for _ in range(2):
            with pytest.raises(UnknownGate, match="TSG"):
                ARCHITECTURES["rev_conventional"].build({})
        assert classical._cached_build.cache_info().currsize == before


def ripple(add, x_digits, y_digits, cin):
    """``(sum digits, carry)`` of ``add`` applied digit by digit, least significant first."""
    out = []
    for x, y in zip(x_digits, y_digits):
        result = add(BcdOperands(x, y, cin))
        out.append(result.sum)
        cin = result.cout
    return out, cin


def chain_cases(rng: random.Random) -> list[tuple[list[int], list[int], int]]:
    """Every valid one-digit input, then 50 random eight-digit ones."""
    def digits() -> list[int]:
        return [rng.randrange(10) for _ in range(8)]

    return [*(([op.a], [op.b], op.cin) for op in ALL_OPS),
            *((digits(), digits(), rng.randrange(2)) for _ in range(50))]


class TestDecimalChain:
    """``decimal_add`` ripples a row's digits through the build of its
    catalog, and a classical row's through its own ``digit_pairs``."""

    CASES = chain_cases(random.Random(20261020))

    @pytest.mark.parametrize("order", ["broken-first", "builtin-first"])
    @pytest.mark.parametrize("arch", TestBuildCache.BUILDERS)
    def test_each_catalog_chains_through_its_own_build(self, arch, order):
        classical._cached_build.cache_clear()
        row, catalogs = ARCHITECTURES[arch], {"broken": identity_tsg_catalog(), "builtin": None}
        got = {}
        for key in sorted(catalogs, reverse=order == "builtin-first"):
            build, catalog = row.build(catalogs[key]), catalogs[key]
            got[key] = [decimal_add(x, y, cin, arch, catalog) for x, y, cin in self.CASES]
            assert got[key] == [ripple(lambda op: simulate_digit_add(build, op), *case)
                                for case in self.CASES]
        assert got["builtin"] == [ripple(oracle, *case) for case in self.CASES] != got["broken"]

    @pytest.mark.parametrize("arch", [n for n, row in ARCHITECTURES.items()
                                      if row.exact and row.lanes])
    def test_a_classical_row_ignores_the_catalog(self, monkeypatch, arch):
        calls = []
        monkeypatch.setitem(ARCHITECTURES, arch, counting_row(ARCHITECTURES[arch], calls))
        # An empty catalog would fail any build, so none is made.
        for catalog in ({}, identity_tsg_catalog(), None):
            assert decimal_add([5, 9, 9], [5, 0, 0], 1, arch, catalog) == ([1, 0, 0], 1)
        assert calls == [ALL_CODES]
