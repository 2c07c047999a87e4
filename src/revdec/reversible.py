"""Reversible-netlist constructions of the one-digit BCD adders.

Both builders emit a :class:`~revdec.netlist.Netlist` over the built-in
gate library (or a caller-supplied catalog of replacement tables) with the
same primary interface: nine primary inputs (operand ``a`` on lines 0..3,
operand ``b`` on lines 4..7, carry-in on line 8) and five primary outputs
(sum bits then carry-out).  Everything else the circuit produces is
declared garbage.

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

from collections.abc import Mapping, Sequence
from functools import cached_property

from ._record import record
from .classical import BcdOperands, BcdResult, digit_table
from .gates import BitVector, GatePermutation, UnknownGate, builtin_catalog
from .netlist import CostMetrics, Netlist, NetlistBuilder

__all__ = [
    "FIDELITY_RECONSTRUCTED",
    "ReversibleAdderBuild",
    "and4_subcircuit",
    "skip_mux_subcircuit",
    "build_conventional_reversible",
    "build_carry_skip_reversible",
    "input_pattern",
    "decode_primary",
    "simulate_digit_add",
]

FIDELITY_RECONSTRUCTED = "RECONSTRUCTED"

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
        :func:`~revdec.classical.output_columns`.

        :meth:`Netlist.columns` validates the netlist and fills its cached
        lanes (a netlist too wide to sweep raises there); then one
        :meth:`Netlist.simulate` call, which reads a bit of them, raises its
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


def _required(catalog: Mapping[str, GatePermutation], name: str) -> GatePermutation:
    gate = catalog.get(name)
    if gate is None:
        raise UnknownGate(f"the adder builders need a gate named {name!r}")
    return gate


def and4_subcircuit(
    builder: NetlistBuilder,
    wires: Sequence[str],
    catalog: Mapping[str, GatePermutation],
) -> str:
    """Conjoin four wires with a chain of exactly three controlled swaps.

    Each swap routes the running conjunction onto a constant-zero line only
    when its control is high, so the third stage's swapped output carries
    the AND of all four wires.  The control pass-through and the unselected
    swap leg of each stage are left for garbage classification.  Returns
    the wire holding the conjunction.
    """
    if len(wires) != 4:
        raise ValueError(f"expected four wires, got {len(wires)}")
    fredkin = _required(catalog, "FREDKIN")
    acc = wires[0]
    for i, operand in enumerate(wires[1:], start=1):
        zero = builder.ancilla(0)
        _, _, acc = builder.gate(
            fredkin,
            (acc, operand, zero),
            (f"and4_thru{i}", f"and4_skip{i}", f"and4_acc{i}"),
        )
    return acc


def skip_mux_subcircuit(
    builder: NetlistBuilder,
    select: str,
    when_set: str,
    when_clear: str,
    catalog: Mapping[str, GatePermutation],
) -> str:
    """Select between two carries with a single controlled swap.

    Returns the wire carrying ``when_set`` if ``select`` is high and
    ``when_clear`` otherwise.  The select pass-through and the rejected
    carry are left for garbage classification.
    """
    fredkin = _required(catalog, "FREDKIN")
    _, _, out = builder.gate(
        fredkin,
        (select, when_set, when_clear),
        ("skip_sel", "skip_rej", "skip_out"),
    )
    return out


def _declare_operands(builder: NetlistBuilder) -> tuple[list[str], list[str], str]:
    a = [builder.primary_input(f"a{i}") for i in range(4)]
    b = [builder.primary_input(f"b{i}") for i in range(4)]
    cin = builder.primary_input("cin")
    return a, b, cin


def _finish(builder: NetlistBuilder, target: tuple[int, int]) -> ReversibleAdderBuild:
    for wire in PRIMARY_OUTPUT_ORDER:
        builder.primary_output(wire)
    return ReversibleAdderBuild(builder.build(), target)


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
    gates = builtin_catalog() if catalog is None else catalog
    tsg = _required(gates, "TSG")
    new_gate = _required(gates, "NEW_GATE")

    builder = NetlistBuilder("bcd_adder_conventional")
    a, b, cin = _declare_operands(builder)

    # Binary stage: raw0 is already the final low sum bit because adding
    # six never changes bit 0.
    carry = cin
    raw = []
    for j in range(4):
        zero = builder.ancilla(0)
        raw_name = "s0" if j == 0 else f"raw{j}"
        _, _, raw_j, carry = builder.gate(
            tsg,
            (a[j], b[j], zero, carry),
            (f"pass_a{j}", f"hsum{j}", raw_name, f"carry{j + 1}"),
        )
        raw.append(raw_j)

    # Detection: raw3 & (raw1 | raw2) is 1 exactly when the binary total
    # lies in 10..15.  Both gates pass their operands through for the
    # correction stage.
    raw1_b, raw2_b, low_or = builder.gate(
        new_gate, (raw[1], builder.ancilla(0), raw[2]), ("raw1_b", "raw2_b", "or12")
    )
    raw3_b, detect, _ = builder.gate(
        new_gate, (raw[3], low_or, builder.ancilla(0)), ("raw3_b", "detect", "det_mix")
    )

    # Correction: the first full-adder gate merges the exclusive carry
    # conditions into the trigger and simultaneously corrects bit 1; the
    # second corrects bit 2 and hands the trigger on as the carry-out; the
    # last three-line gate folds the remaining correction carry into bit 3.
    _, trigger, _, corr_c2 = builder.gate(
        tsg, (carry, detect, builder.ancilla(0), raw1_b),
        ("stage_k", "trigger", "s1", "corr_c2"),
    )
    _, _, _, corr_c3 = builder.gate(
        tsg, (trigger, raw2_b, builder.ancilla(0), corr_c2),
        ("cout", "mix2", "s2", "corr_c3"),
    )
    builder.gate(
        new_gate, (corr_c3, raw3_b, builder.ancilla(0)),
        ("corr_end", "mix3", "s3"),
    )
    return _finish(builder, (11, 22))


def build_carry_skip_reversible(
    catalog: Mapping[str, GatePermutation] | None = None,
) -> ReversibleAdderBuild:
    """The carry-skip adder as a seventeen-gate reversible netlist.

    The low full adder is wired with the carry-in on its pass-through line
    so that the carry-in emerges reusable for the skip path without a copy
    gate; a parity gate ahead of it extracts the bit-0 propagate signal for
    the same reason.  The skip path conjoins the four propagate signals
    with :func:`and4_subcircuit` and selects between the early carry-in and
    the rippled stage carry with :func:`skip_mux_subcircuit`.  Detection
    rebuilds the two remaining exclusive conditions from the raw sum bits
    (Toffoli AND chains plus one inverter stage) and a final parity gate
    merges all three exclusive conditions into the trigger, which then
    drives the same correction layer as the conventional build.
    """
    gates = builtin_catalog() if catalog is None else catalog
    tsg = _required(gates, "TSG")
    ts3 = _required(gates, "TS3")
    toffoli = _required(gates, "TOFFOLI")
    new_gate = _required(gates, "NEW_GATE")

    builder = NetlistBuilder("bcd_adder_carry_skip")
    a, b, cin = _declare_operands(builder)

    # Bit-0 propagate, extracted before the low adder consumes the
    # operands; the parity gate passes both operand bits through.
    a0_t, b0_t, p0 = builder.gate(
        ts3, (a[0], b[0], builder.ancilla(0)), ("a0_t", "b0_t", "p0")
    )
    # Low full adder with the carry-in on the pass-through line: its line-0
    # output re-emits cin for the skip multiplexer.
    cin_thread, _, _, carry = builder.gate(
        tsg, (cin, a0_t, builder.ancilla(0), b0_t),
        ("cin_thread", "g2_mix", "s0", "carry1"),
    )
    # Remaining ripple stages; their line-1 outputs are the propagate
    # signals the skip path needs.
    prop = [p0]
    raw = []
    for j in range(1, 4):
        zero = builder.ancilla(0)
        _, p_j, raw_j, carry = builder.gate(
            tsg,
            (a[j], b[j], zero, carry),
            (f"pass_a{j}", f"p{j}", f"raw{j}", f"carry{j + 1}"),
        )
        prop.append(p_j)
        raw.append(raw_j)
    raw1, raw2, raw3 = raw

    # Skip path: block propagate, then the early/late carry selection.
    big_p = and4_subcircuit(builder, prop, gates)
    block_k = skip_mux_subcircuit(builder, big_p, cin_thread, carry, gates)

    # Detection terms from the raw sum bits: raw3&raw2, then
    # raw3&~raw2&raw1 via an inverter stage and two AND gates, all while
    # passing the raw bits through for the correction layer.
    raw3_b, raw2_b, term_high = builder.gate(
        toffoli, (raw3, raw2, builder.ancilla(0)), ("raw3_b", "raw2_b", "term_high")
    )
    _, raw2_c, not_raw2 = builder.gate(
        new_gate, (builder.ancilla(1), raw2_b, builder.ancilla(0)),
        ("inv_one", "raw2_c", "not_raw2"),
    )
    raw3_c, _, x32 = builder.gate(
        toffoli, (raw3_b, not_raw2, builder.ancilla(0)), ("raw3_c", "inv_used", "x32")
    )
    _, raw1_b, term_mid = builder.gate(
        toffoli, (x32, raw1, builder.ancilla(0)), ("x32_t", "raw1_b", "term_mid")
    )
    # The three conditions are mutually exclusive, so a single three-way
    # parity merges them into the trigger.
    _, _, trigger = builder.gate(
        ts3, (term_high, term_mid, block_k), ("term_high_t", "term_mid_t", "trigger")
    )

    # Correction layer, same scheme as the conventional build: the trigger
    # rides the full adders' pass-through lines and leaves as the carry-out.
    trig2, _, _, corr_c2 = builder.gate(
        tsg, (trigger, raw1_b, builder.ancilla(0), builder.ancilla(0)),
        ("trig2", "s1", "s1_dup", "corr_c2"),
    )
    _, _, _, corr_c3 = builder.gate(
        tsg, (trig2, raw2_c, builder.ancilla(0), corr_c2),
        ("cout", "mix2", "s2", "corr_c3"),
    )
    builder.gate(ts3, (raw3_c, corr_c3, builder.ancilla(0)), ("raw3_t", "corr_t", "s3"))
    return _finish(builder, (15, 27))


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
