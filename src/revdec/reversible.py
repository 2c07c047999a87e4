"""Reversible-netlist constructions of the one-digit BCD adders.

Both builders emit a :class:`~revdec.netlist.Netlist` over the built-in
gate library (or a caller-supplied catalog of replacement tables) with the
same primary interface: nine primary inputs (operand ``a`` on lines 0..3,
operand ``b`` on lines 4..7, carry-in on line 8) and five primary outputs
(sum bits then carry-out).  Everything else the circuit produces is
declared garbage.

A design is one table of placed gates, one ``(gate, input wires, output
wires)`` row per gate in the order ``revdec export`` writes them.  A catalog
changes only the gates' tables, never the wiring, so each design is placed
and validated once per process, on its first build, by replaying its rows
through :class:`~revdec.netlist.NetlistBuilder`: the builder names the
ancillas, checks each row as it is placed, lists the garbage and validates
the finished netlist.  Each build then makes only its gate records from its
catalog and shares the rest of that netlist: its declarations and its
validated analysis.

The circuits follow the reference structure for each architecture: four
four-line full-adder gates form the binary stage, a detection layer builds
the decimal-carry trigger out of mutually exclusive conditions, and a
correction layer folds the conditional add-six into further full-adder
gates.  Where a result is needed twice, it rides a gate's pass-through
line instead of being copied, which is what keeps the garbage counts low.
The exact wiring was reconstructed from circuit behavior rather than
transcribed from legible schematics, so each build carries
``figure_fidelity = "RECONSTRUCTED"`` and its measured costs are reported
next to the design targets instead of being asserted equal to them.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache, cached_property

from ._record import record
from .classical import BcdOperands, BcdResult, digit_table
from .gates import BitVector, GatePermutation, UnknownGate, builtin_catalog
from .netlist import CostMetrics, Netlist, NetlistBuilder

__all__ = [
    "FIDELITY_RECONSTRUCTED",
    "ReversibleAdderBuild",
    "build_conventional_reversible",
    "build_carry_skip_reversible",
    "input_pattern",
    "decode_primary",
    "simulate_digit_add",
]

FIDELITY_RECONSTRUCTED = "RECONSTRUCTED"

PRIMARY_INPUT_ORDER = ("a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "cin")
PRIMARY_OUTPUT_ORDER = ("s0", "s1", "s2", "s3", "cout")


@record
class ReversibleAdderBuild:
    """A finished adder netlist and the (gates, garbage) ``target`` its
    measured costs are compared against.  Its primary output vector is the
    :meth:`BcdResult.code` of the result.  Every build is a behavioral
    reconstruction of its reference schematic, as ``figure_fidelity`` says.
    """

    netlist: Netlist
    target: tuple[int, int]

    figure_fidelity = FIDELITY_RECONSTRUCTED

    @cached_property
    def metrics(self) -> CostMetrics:
        return self.netlist.metrics()

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """The primary-output lanes over all 512 input codes, in the layout of
        :func:`~revdec.classical.oracle_sweep`'s columns.

        :meth:`Netlist.columns` validates the netlist and fills its cached
        lanes (a netlist too wide to sweep raises there); then one
        :meth:`Netlist.simulate` call, a gate pass for pattern 0, raises its
        :class:`~revdec.gates.WidthMismatch` unless the netlist has nine
        primary inputs.
        """
        net = self.netlist
        lanes = net.columns()
        net.simulate(BitVector(9, 0))
        return tuple(lanes[w] for w in net.primary_output_wires())

    @cached_property
    def _digit_table(self) -> tuple[BcdResult, ...]:
        """Every digit result at ``a*20 + b*2 + cin``: the
        :func:`~revdec.classical.digit_table` of :attr:`columns`."""
        return digit_table(self.columns)

    @cached_property
    def digit_pairs(self) -> tuple[tuple[int, int], ...]:
        """The ``(sum, cout)`` of each :attr:`_digit_table` result, for ``decimal_add``."""
        return tuple((r.sum, r.cout) for r in self._digit_table)


# A design: netlist name, (gates, garbage) target, the gates it looks up (in
# the order a missing one is reported) and one (gate, inputs, outputs) row
# per placed gate.  An input written 0 or 1 is a fresh ancilla.
_CONVENTIONAL = ("bcd_adder_conventional", (11, 22), ("TSG", "NEW_GATE"), (
    # Binary stage: four full-adder gates, operands on lines 0/1, constant
    # zero on line 2, carry on line 3.  raw0 is already the final low sum
    # bit because adding six never changes bit 0.
    ("TSG", ("a0", "b0", 0, "cin"), ("pass_a0", "hsum0", "s0", "carry1")),
    ("TSG", ("a1", "b1", 0, "carry1"), ("pass_a1", "hsum1", "raw1", "carry2")),
    ("TSG", ("a2", "b2", 0, "carry2"), ("pass_a2", "hsum2", "raw2", "carry3")),
    ("TSG", ("a3", "b3", 0, "carry3"), ("pass_a3", "hsum3", "raw3", "carry4")),
    # Detection: raw3 & (raw1 | raw2) is 1 exactly when the binary total
    # lies in 10..15.  Both gates pass their operands through for the
    # correction stage.
    ("NEW_GATE", ("raw1", 0, "raw2"), ("raw1_b", "raw2_b", "or12")),
    ("NEW_GATE", ("raw3", "or12", 0), ("raw3_b", "detect", "det_mix")),
    # Correction: the first full-adder gate merges the exclusive carry
    # conditions into the trigger and simultaneously corrects bit 1; the
    # second corrects bit 2 and hands the trigger on as the carry-out; the
    # last three-line gate folds the remaining correction carry into bit 3.
    ("TSG", ("carry4", "detect", 0, "raw1_b"), ("stage_k", "trigger", "s1", "corr_c2")),
    ("TSG", ("trigger", "raw2_b", 0, "corr_c2"), ("cout", "mix2", "s2", "corr_c3")),
    ("NEW_GATE", ("corr_c3", "raw3_b", 0), ("corr_end", "mix3", "s3")),
))

_CARRY_SKIP = ("bcd_adder_carry_skip", (15, 27),
               ("TSG", "TS3", "TOFFOLI", "NEW_GATE", "FREDKIN"), (
    # Bit-0 propagate, extracted before the low adder consumes the
    # operands; the parity gate passes both operand bits through.
    ("TS3", ("a0", "b0", 0), ("a0_t", "b0_t", "p0")),
    # Low full adder with the carry-in on the pass-through line: its line-0
    # output re-emits cin for the skip multiplexer.
    ("TSG", ("cin", "a0_t", 0, "b0_t"), ("cin_thread", "g2_mix", "s0", "carry1")),
    # Remaining ripple stages; their line-1 outputs are the propagate
    # signals the skip path needs.
    ("TSG", ("a1", "b1", 0, "carry1"), ("pass_a1", "p1", "raw1", "carry2")),
    ("TSG", ("a2", "b2", 0, "carry2"), ("pass_a2", "p2", "raw2", "carry3")),
    ("TSG", ("a3", "b3", 0, "carry3"), ("pass_a3", "p3", "raw3", "carry4")),
    # Block propagate: each controlled swap routes the running conjunction
    # onto its constant-zero line only when its control is high, so
    # and4_acc3 is p0 & p1 & p2 & p3.
    ("FREDKIN", ("p0", "p1", 0), ("and4_thru1", "and4_skip1", "and4_acc1")),
    ("FREDKIN", ("and4_acc1", "p2", 0), ("and4_thru2", "and4_skip2", "and4_acc2")),
    ("FREDKIN", ("and4_acc2", "p3", 0), ("and4_thru3", "and4_skip3", "and4_acc3")),
    # Skip multiplexer: skip_out is the early cin_thread where the block
    # propagates and the rippled carry4 elsewhere.
    ("FREDKIN", ("and4_acc3", "cin_thread", "carry4"), ("skip_sel", "skip_rej", "skip_out")),
    # Detection terms from the raw sum bits: raw3&raw2, then
    # raw3&~raw2&raw1 via an inverter stage and two AND gates, all while
    # passing the raw bits through for the correction layer.
    ("TOFFOLI", ("raw3", "raw2", 0), ("raw3_b", "raw2_b", "term_high")),
    ("NEW_GATE", (1, "raw2_b", 0), ("inv_one", "raw2_c", "not_raw2")),
    ("TOFFOLI", ("raw3_b", "not_raw2", 0), ("raw3_c", "inv_used", "x32")),
    ("TOFFOLI", ("x32", "raw1", 0), ("x32_t", "raw1_b", "term_mid")),
    # The three conditions are mutually exclusive, so a single three-way
    # parity merges them into the trigger.
    ("TS3", ("term_high", "term_mid", "skip_out"), ("term_high_t", "term_mid_t", "trigger")),
    # Correction layer, same scheme as the conventional build: the trigger
    # rides the full adders' pass-through lines and leaves as the carry-out.
    ("TSG", ("trigger", "raw1_b", 0, 0), ("trig2", "s1", "s1_dup", "corr_c2")),
    ("TSG", ("trig2", "raw2_c", 0, "corr_c2"), ("cout", "mix2", "s2", "corr_c3")),
    ("TS3", ("raw3_c", "corr_c3", 0), ("raw3_t", "corr_t", "s3")),
))


def _place(name: str, inputs: tuple[str, ...], rows: tuple, outputs: tuple[str, ...],
           gates: Mapping[str, GatePermutation]) -> Netlist:
    """A design's rows placed between ``inputs`` and ``outputs``: each row
    replayed through :class:`~revdec.netlist.NetlistBuilder`, whose ancilla
    names, garbage order and call-time checks it therefore has.  Every
    ``0`` or ``1`` input becomes a fresh ancilla.  It runs once per design
    and process, from :func:`_template`.
    """
    builder = NetlistBuilder(name)
    for wire in inputs:
        builder.primary_input(wire)
    for gate, ins, outs in rows:
        wires = [builder.ancilla(w) if type(w) is int else w for w in ins]
        builder.gate(gates[gate], wires, outs)
    for wire in outputs:
        builder.primary_output(wire)
    return builder.build()


@cache
def _template(design: tuple) -> Netlist:
    """A design placed with the built-in gates, on its first build: the
    wiring and validated analysis that every build of it shares."""
    name, _, _, rows = design
    return _place(name, PRIMARY_INPUT_ORDER, rows, PRIMARY_OUTPUT_ORDER, builtin_catalog())


def _build(design: tuple,
           catalog: Mapping[str, GatePermutation] | None) -> ReversibleAdderBuild:
    """Look a design's gates up in ``catalog`` and put them on its wiring.

    The template's wires were checked when it was placed, so only a
    catalog gate whose width differs from the built-in one is checked
    against its row (see :meth:`~revdec.netlist.Netlist._with_gates`): it
    raises what :func:`_place` would raise for that catalog, in the same row.
    """
    _, target, lookup, rows = design
    catalog = builtin_catalog() if catalog is None else catalog
    gates = {gate: catalog.get(gate) for gate in lookup}
    for gate, table in gates.items():
        if table is None:
            raise UnknownGate(f"the adder builders need a gate named {gate!r}")
    net = _template(design)._with_gates([gates[gate] for gate, _, _ in rows])
    return ReversibleAdderBuild(net, target)


def build_conventional_reversible(
    catalog: Mapping[str, GatePermutation] | None = None,
) -> ReversibleAdderBuild:
    """The conventional adder as a nine-gate reversible netlist.

    Binary stage: four full-adder gates, each wired operands-on-lines-0/1,
    constant zero on line 2, carry on line 3.  Detection: two three-line
    gates compute ``raw3 & (raw1 | raw2)`` (binary total in 10..15) while
    passing the raw bits through for reuse.  Correction: the trigger is
    formed inside a full-adder gate (the stage carry and the detection
    signal can never fire together, so their XOR is their OR) and then
    rides the pass-through lines of the remaining correction adders, so no
    copy gate is spent on it; the last pass-through delivers the trigger as
    the decimal carry-out.
    """
    return _build(_CONVENTIONAL, catalog)


def build_carry_skip_reversible(
    catalog: Mapping[str, GatePermutation] | None = None,
) -> ReversibleAdderBuild:
    """The carry-skip adder as a seventeen-gate reversible netlist.

    The low full adder is wired with the carry-in on its pass-through line
    so that the carry-in emerges reusable for the skip path without a copy
    gate; a parity gate ahead of it extracts the bit-0 propagate signal for
    the same reason.  The skip path conjoins the four propagate signals
    with a chain of three controlled swaps and selects between the early
    carry-in and the rippled stage carry with a fourth.  Detection
    rebuilds the two remaining exclusive conditions from the raw sum bits
    (Toffoli AND chains plus one inverter stage) and a final parity gate
    merges all three exclusive conditions into the trigger, which then
    drives the same correction layer as the conventional build.
    """
    return _build(_CARRY_SKIP, catalog)


def input_pattern(op: BcdOperands) -> BitVector:
    """Encode operands for the adder netlists: :meth:`BcdOperands.code`."""
    return BitVector(9, op.code())


def decode_primary(build: ReversibleAdderBuild, primary: BitVector) -> BcdResult:
    """Read a build's primary output vector back as :meth:`BcdResult.code`."""
    return BcdResult.from_code(primary.value)


def simulate_digit_add(build: ReversibleAdderBuild, op: BcdOperands) -> BcdResult:
    """One digit addition through a built netlist, read from the build's
    digit table; the first call decodes all 200 digits from its columns."""
    return build._digit_table[op.a * 20 + op.b * 2 + op.cin]
