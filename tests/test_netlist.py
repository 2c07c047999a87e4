"""Netlist tests: wire rules, simulation, metrics, injectivity, export."""

from __future__ import annotations

import copy
import json
import random
import re
from collections import deque
from functools import cached_property

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revdec import netlist as netlist_module
from revdec.gates import BitVector, GatePermutation, ParseError, builtin_catalog
from revdec.netlist import (
    _MAX_INJECTIVITY_INPUTS,
    ROLE_ANCILLA,
    ROLE_GARBAGE,
    ROLE_PRIMARY_INPUT,
    ROLE_PRIMARY_OUTPUT,
    CostMetrics,
    GateInstance,
    InputDecl,
    MalformedNetlist,
    Netlist,
    NetlistBuilder,
    OutputDecl,
    TraceStep,
    _dot_escape,
    _lane_function,
)
from revdec.reversible import build_carry_skip_reversible, build_conventional_reversible

BUILTINS = builtin_catalog()
TS3 = BUILTINS["TS3"]
TSG = BUILTINS["TSG"]
NEW_GATE = BUILTINS["NEW_GATE"]
GATE_POOL = [BUILTINS[n] for n in ("FREDKIN", "TOFFOLI", "TS3", "NEW_GATE", "TSG")]


def full_adder_net() -> Netlist:
    """One TSG wired as a full adder: inputs x, y, cin; outputs s, co."""
    b = NetlistBuilder("full_adder")
    x = b.primary_input("x")
    y = b.primary_input("y")
    cin = b.primary_input("cin")
    zero = b.ancilla(0)
    _, _, s, co = b.gate(TSG, (x, y, zero, cin), ("res_x", "res_h", "s", "co"))
    b.primary_output(s)
    b.primary_output(co)
    return b.build()


def random_net(rng: random.Random, name: str, n_outputs: int = 1,
               n_inputs: tuple[int, int] = (2, 6), n_gates: tuple[int, int] = (1, 8)) -> Netlist:
    """A builder-made netlist of 1-8 random gates over 2-6 primary inputs.

    Each gate line takes a still-unconsumed wire (70%) or a fresh ancilla;
    the last ``n_outputs`` free wires become primary outputs, the rest garbage.
    ``n_inputs`` and ``n_gates`` widen either range.
    """
    b = NetlistBuilder(name)
    available = [b.primary_input(f"i{k}") for k in range(rng.randint(*n_inputs))]
    for g in range(rng.randint(*n_gates)):
        gate = rng.choice(GATE_POOL)
        ins = []
        for line in range(gate.width):
            if available and rng.random() < 0.7:
                ins.append(available.pop(rng.randrange(len(available))))
            else:
                ins.append(b.ancilla(rng.randint(0, 1)))
        outs = b.gate(gate, ins, [f"w{g}_{i}" for i in range(gate.width)])
        available.extend(outs)
    for _ in range(n_outputs):
        b.primary_output(available.pop())
    return b.build()


def reference_order(net: Netlist) -> list[int]:
    """Gate indices in dependency order: a FIFO of ready gates, in index order."""
    driver = {w: g for g, inst in enumerate(net.gates) for w in inst.output_wires}
    missing = [sum(w in driver for w in inst.input_wires) for inst in net.gates]
    ready = deque(g for g, n in enumerate(missing) if n == 0)
    order = []
    while ready:
        g = ready.popleft()
        order.append(g)
        for h, inst in enumerate(net.gates):
            for w in inst.input_wires:
                if driver.get(w) == g:
                    missing[h] -= 1
                    if missing[h] == 0:
                        ready.append(h)
    return order


def reference_values(net: Netlist, pattern: int):
    """Scalar reference: every wire's value in a dict keyed by wire name.

    Returns that dict and the trace steps.
    """
    values, bit = {}, 0
    for decl in net.inputs:
        if decl.role == ROLE_PRIMARY_INPUT:
            values[decl.wire] = (pattern >> bit) & 1
            bit += 1
        else:
            values[decl.wire] = decl.const
    steps = []
    for g in reference_order(net):
        inst = net.gates[g]
        entry = sum(values[w] << i for i, w in enumerate(inst.input_wires))
        result = inst.gate.table[entry]
        for i, w in enumerate(inst.output_wires):
            values[w] = (result >> i) & 1
        steps.append(TraceStep(
            g, inst.gate.name,
            tuple((w, values[w]) for w in inst.input_wires),
            tuple((w, values[w]) for w in inst.output_wires),
        ))
    return values, tuple(steps)


def reference_simulate(net: Netlist, pattern: int):
    """The primary output vector, the vector of every output and the trace steps."""
    values, steps = reference_values(net, pattern)

    def vector(wires) -> BitVector:
        return BitVector(len(wires), sum(values[w] << i for i, w in enumerate(wires)))

    return (vector(net.primary_output_wires()), vector([d.wire for d in net.outputs]),
            steps)


def assert_columns_match_the_reference(net: Netlist, columns: dict[str, int]) -> None:
    """Bit ``p`` of every wire's column is the reference value under pattern ``p``."""
    for pattern in range(1 << len(net.primary_input_wires())):
        values, _ = reference_values(net, pattern)
        assert {w: (lane >> pattern) & 1 for w, lane in columns.items()} == values


def wide_net(n_inputs: int = _MAX_INJECTIVITY_INPUTS + 2) -> Netlist:
    """A random netlist with more primary inputs than a domain sweep allows."""
    return random_net(random.Random(n_inputs), "wide", 3, (n_inputs, n_inputs), (12, 12))


def reference_collision(net: Netlist):
    """The first pair of primary patterns whose outputs collide, or None."""
    width = len(net.primary_input_wires())
    seen = {}
    for pattern in range(1 << width):
        full = reference_simulate(net, pattern)[1]
        if full in seen:
            return BitVector(width, seen[full]), BitVector(width, pattern)
        seen[full] = pattern
    return None


def reference_doc(net: Netlist) -> dict:
    """The interchange document as plain data; ``to_json`` writes its
    ``json.dumps(doc, indent=2)``."""
    gate_defs: dict[str, GatePermutation] = {}
    for inst in net.gates:
        gate_defs.setdefault(inst.gate.name, inst.gate)
    return {
        "name": net.name,
        "inputs": [{"wire": d.wire, "role": d.role, "const": d.const}
                   if d.role == ROLE_ANCILLA else {"wire": d.wire, "role": d.role}
                   for d in net.inputs],
        "outputs": [{"wire": d.wire, "role": d.role} for d in net.outputs],
        "gates": [{"gate_name": inst.gate.name, "in": list(inst.input_wires),
                   "out": list(inst.output_wires)} for inst in net.gates],
        "gate_defs": [{"name": g.name, "width": g.width, "table": list(g.table)}
                      for g in sorted(gate_defs.values(), key=lambda g: g.name)],
    }


def reference_dot(net: Netlist) -> str:
    """The Graphviz rendering, quoting every string where it is written."""

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    driver_node = {d.wire: quote(f"in:{d.wire}") for d in net.inputs}
    driver_node.update((w, f'"g{g}"') for g, inst in enumerate(net.gates)
                       for w in inst.output_wires)
    lines = [f"digraph {quote(net.name)} {{", "  rankdir=LR;"]
    for decl in net.inputs:
        label = (f"{decl.wire} = {decl.const} [{decl.role}]" if decl.role == ROLE_ANCILLA
                 else f"{decl.wire} [{decl.role}]")
        lines.append(f"  {quote(f'in:{decl.wire}')} [shape=ellipse, label={quote(label)}];")
    for g, inst in enumerate(net.gates):
        lines.append(f'  "g{g}" [shape=box, label={quote(f"g{g}: {inst.gate.name}")}];')
    for decl in net.outputs:
        shape = "doublecircle" if decl.role == ROLE_PRIMARY_OUTPUT else "ellipse"
        label = quote(f"{decl.wire} [{decl.role}]")
        lines.append(f"  {quote(f'out:{decl.wire}')} [shape={shape}, label={label}];")
    for g, inst in enumerate(net.gates):
        for wire in inst.input_wires:
            lines.append(f'  {driver_node[wire]} -> "g{g}" [label={quote(wire)}];')
    for decl in net.outputs:
        lines.append(f"  {driver_node[decl.wire]} -> {quote(f'out:{decl.wire}')} "
                     f"[label={quote(decl.wire)}];")
    lines.append("}")
    return "\n".join(lines)


def reference_drivers(net: Netlist) -> dict[str, tuple[str, int]]:
    """Each wire's driver, ``("input", i)`` or ``("gate", g)``: the first of
    three separate passes that validate a netlist."""
    drivers: dict[str, tuple[str, int]] = {}
    for i, decl in enumerate(net.inputs):
        if decl.wire in drivers:
            raise MalformedNetlist(f"wire {decl.wire!r} is declared twice")
        drivers[decl.wire] = ("input", i)
    for g, inst in enumerate(net.gates):
        for wire in inst.output_wires:
            if wire in drivers:
                raise MalformedNetlist(f"wire {wire!r} is driven twice")
            drivers[wire] = ("gate", g)
    return drivers


def reference_evaluable(net: Netlist) -> None:
    """The second pass: every consumed wire is driven and no cycle exists."""
    drivers = reference_drivers(net)
    missing = [0] * len(net.gates)
    consumers: dict[int, list[int]] = {}
    for g, inst in enumerate(net.gates):
        for wire in inst.input_wires:
            if wire not in drivers:
                raise MalformedNetlist(f"wire {wire!r} is consumed but never driven")
            kind, idx = drivers[wire]
            if kind == "gate":
                missing[g] += 1
                consumers.setdefault(idx, []).append(g)
    for decl in net.outputs:
        if decl.wire not in drivers:
            raise MalformedNetlist(f"output {decl.wire!r} is never driven")
    order = [g for g, n in enumerate(missing) if n == 0]
    for g in order:
        for nxt in consumers.get(g, ()):
            missing[nxt] -= 1
            if missing[nxt] == 0:
                order.append(nxt)
    if len(order) != len(net.gates):
        raise MalformedNetlist("netlist contains a dependency cycle")


def reference_validate(net: Netlist) -> None:
    """The third pass, after the other two: the consumption and role rules."""
    reference_evaluable(net)
    consumed: dict[str, str] = {}

    def consume(wire: str, where: str) -> None:
        if wire in consumed:
            raise MalformedNetlist(
                f"wire {wire!r} is consumed twice ({consumed[wire]} and {where}); "
                f"fan-out requires an explicit copy gate")
        consumed[wire] = where

    for g, inst in enumerate(net.gates):
        for wire in inst.input_wires:
            consume(wire, f"gate {g} ({inst.gate.name})")
    seen_outputs: set[str] = set()
    for decl in net.outputs:
        if decl.wire in seen_outputs:
            raise MalformedNetlist(f"output {decl.wire!r} is declared twice")
        seen_outputs.add(decl.wire)
        consume(decl.wire, "circuit output")
    dangling = [w for w in reference_drivers(net) if w not in consumed]
    if dangling:
        raise MalformedNetlist(
            f"wire(s) {sorted(dangling)} are driven but neither consumed by a "
            f"gate nor declared as outputs; classify them as garbage")
    if not net.primary_input_wires():
        raise MalformedNetlist("netlist declares no primary inputs")
    if not net.primary_output_wires():
        raise MalformedNetlist("netlist declares no primary outputs")


def reference_faults(net: Netlist) -> tuple[str | None, str | None]:
    """The reference's message for an unevaluable netlist and for an invalid
    one, each ``None`` when its check passes."""
    messages = []
    for check in (reference_evaluable, reference_validate):
        try:
            check(net)
            messages.append(None)
        except MalformedNetlist as exc:
            messages.append(str(exc))
    return messages[0], messages[1]


def mutated_net(rng: random.Random, n_mutations: int) -> Netlist:
    """A :func:`random_net` netlist after ``n_mutations`` random rule breaks.

    A mutation that would make a :class:`GateInstance` itself invalid (a
    wire twice on one side, or on both sides) is skipped.
    """
    net = random_net(rng, "r", rng.randint(1, 3))
    inputs, outputs = list(net.inputs), list(net.outputs)
    gates = [[inst.gate, list(inst.input_wires), list(inst.output_wires)] for inst in net.gates]
    for _ in range(n_mutations):
        ins, outs = list(inputs), list(outputs)
        lines = [[gate, list(i), list(o)] for gate, i, o in gates]
        driven = [d.wire for d in ins] + [w for _, _, o in lines for w in o]
        _, gate_ins, gate_outs = rng.choice(lines)
        k = rng.randrange(len(gate_ins))
        kind = rng.choice(["reconsume", "alias", "drop", "duplicate", "undriven",
                           "redrive", "cycle", "strip"])
        if kind == "reconsume":  # a gate reads a wire another sink reads
            gate_ins[k] = rng.choice(driven)
        elif kind == "alias" and outs:  # an output names another driven wire
            j = rng.randrange(len(outs))
            outs[j] = OutputDecl(rng.choice(driven), outs[j].role)
        elif kind == "drop" and outs:
            del outs[rng.randrange(len(outs))]
        elif kind == "duplicate" and outs:
            outs.insert(rng.randrange(len(outs) + 1),
                        OutputDecl(rng.choice(outs).wire,
                                   rng.choice([ROLE_PRIMARY_OUTPUT, ROLE_GARBAGE])))
        elif kind == "undriven":  # a gate input or an output no one drives
            ghost = f"ghost{rng.randrange(1 << 30)}"
            if rng.random() < 0.5:
                gate_ins[k] = ghost
            else:
                outs.append(OutputDecl(ghost, ROLE_GARBAGE))
        elif kind == "redrive":  # a second input declaration or gate output
            if rng.random() < 0.5:
                ins.insert(rng.randrange(len(ins) + 1),
                           InputDecl(rng.choice(driven), ROLE_PRIMARY_INPUT))
            else:
                gate_outs[rng.randrange(len(gate_outs))] = rng.choice(driven)
        elif kind == "cycle":
            # Gate g reads wire b of a gate h that reads g's output, and
            # b's other readers read g's old input a instead: a 2-cycle.
            pairs = [(g, h) for g, (_, _, o) in enumerate(lines)
                     for h, (_, i, _) in enumerate(lines) if h != g and set(o) & set(i)]
            if pairs:
                g, h = rng.choice(pairs)
                g_ins = lines[g][1]
                j = rng.randrange(len(g_ins))
                a, b = g_ins[j], rng.choice(lines[h][2])
                for _, i, _ in lines:
                    i[:] = [a if w == b else w for w in i]
                outs = [OutputDecl(a if d.wire == b else d.wire, d.role) for d in outs]
                g_ins[j] = b
        elif kind == "strip":  # strip primary input roles, output roles or both
            side = rng.choice(["inputs", "outputs", "both"])
            if side != "outputs":
                ins = [InputDecl(d.wire, ROLE_ANCILLA, 0) if d.role == ROLE_PRIMARY_INPUT
                       else d for d in ins]
            if side != "inputs":
                outs = [OutputDecl(d.wire, ROLE_GARBAGE) for d in outs]
        try:
            [GateInstance(gate, tuple(i), tuple(o)) for gate, i, o in lines]
        except MalformedNetlist:
            continue
        inputs, outputs, gates = ins, outs, lines
    return Netlist("mutant", tuple(inputs), tuple(outputs),
                   tuple(GateInstance(gate, tuple(i), tuple(o)) for gate, i, o in gates))


# Names an encoder must escape or pass through unchanged: quotes,
# backslashes, non-ASCII (one character outside the BMP) and control
# characters that str.split does not count as whitespace.
AWKWARD_TEXT = st.text(st.sampled_from('a"\\\x00\x07\x1b\x7f\u00e9\u20ac\U0001f600')
                       | st.characters(), min_size=1, max_size=5)
WIRE_TEXT = AWKWARD_TEXT.filter(lambda s: s.split() == [s])
# Gate names are printable ASCII without whitespace, in upper case.
GATE_TEXT = st.text(st.sampled_from('A"\\_0') | st.characters(min_codepoint=0x21,
                                                                max_codepoint=0x7e),
                    min_size=1, max_size=5).map(str.upper).filter(lambda s: s not in BUILTINS)


# Wire names that DOT must escape, or pass as they are: quotes, backslashes,
# non-ASCII letters and ordinary characters.
DOT_WIRE_TEXT = st.text(st.sampled_from('"\\aZ_0\u00e9\u00df\u03a9\u0436'),
                        min_size=1, max_size=6)


@st.composite
def awkward_netlists(draw, wire_text=WIRE_TEXT) -> Netlist:
    """A valid builder-made netlist of 0-5 gates with awkward netlist, wire
    and gate names.  Wire ``k`` is ``f"{piece}#{k}"`` for a ``piece`` drawn
    from ``wire_text``, so names never clash."""
    pieces = draw(st.lists(wire_text, min_size=1, max_size=4))
    serial = iter(range(1 << 30))

    def fresh() -> str:
        k = next(serial)
        return f"{pieces[k % len(pieces)]}#{k}"

    def take(wires: list[str]) -> str:
        return wires.pop(draw(st.integers(0, len(wires) - 1)))

    odd = GatePermutation(draw(GATE_TEXT), 2, draw(st.permutations(range(4))))
    b = NetlistBuilder(draw(st.text(max_size=6)))
    available = [b.primary_input(fresh()) for _ in range(draw(st.integers(1, 3)))]
    available += [b.ancilla(draw(st.integers(0, 1))) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 5))):
        gate = draw(st.sampled_from([*GATE_POOL, odd]))
        ins = [take(available) if available and draw(st.booleans())
               else b.ancilla(draw(st.integers(0, 1))) for _ in range(gate.width)]
        available += b.gate(gate, ins, [fresh() for _ in range(gate.width)])
    for _ in range(draw(st.integers(1, len(available)))):
        b.primary_output(take(available))
    return b.build()


def reference_gate_instance(gate: GatePermutation, input_wires, output_wires) -> None:
    """The per-side check of a placed gate: the input names, the input
    width and a duplicate input, then the same three for the outputs, then
    an overlap of the two sides."""
    input_wires, output_wires = tuple(input_wires), tuple(output_wires)
    for wires, side in ((input_wires, "input"), (output_wires, "output")):
        for wire in wires:
            if not isinstance(wire, str) or wire.split() != [wire]:
                raise MalformedNetlist(
                    f"wire names must be non-empty strings without whitespace, got {wire!r}")
        if len(wires) != gate.width:
            raise MalformedNetlist(f"gate {gate.name!r} has {gate.width} lines but "
                                   f"{len(wires)} {side} wires were given")
        if len(set(wires)) != len(wires):
            raise MalformedNetlist(f"gate {gate.name!r} lists a duplicate {side} wire")
    overlap = set(input_wires) & set(output_wires)
    if overlap:
        raise MalformedNetlist(f"gate {gate.name!r} would drive its own input wire(s) "
                               f"{sorted(overlap)}; give outputs fresh names")


# Names a gate line must refuse: empty, whitespace anywhere, not a string.
BAD_GATE_WIRES = st.one_of(
    st.sampled_from(["", " ", "a b", "\tc", "d\n", "e\u3000", 7, None, b"w0", 1.5, ["w1"]]),
    st.text(max_size=3).filter(lambda s: s.split() != [s]),
)


@st.composite
def gate_instance_args(draw):
    """``(gate, input_wires, output_wires)``: distinct clean names, each side
    one line short, one line long or empty now and then, and up to three
    faults: a bad name, a name repeated within a side or across the two."""
    gate = draw(st.sampled_from(GATE_POOL))
    width = [gate.width] * 4 + [gate.width - 1, gate.width + 1, 0]
    n_in, n_out = draw(st.sampled_from(width)), draw(st.sampled_from(width))
    names = draw(st.permutations([f"w{k}" for k in range(12)]))
    sides = [names[:n_in], names[n_in:n_in + n_out]]
    for kind, side, k, j, bad in draw(st.lists(st.tuples(
            st.sampled_from(["bad", "repeat", "overlap"]), st.integers(0, 1),
            st.integers(0, 9), st.integers(0, 9), BAD_GATE_WIRES), max_size=3)):
        wires = sides[side]
        source = sides[1 - side] if kind == "overlap" else wires
        if wires and (kind == "bad" or source):
            wires[k % len(wires)] = bad if kind == "bad" else source[j % len(source)]
    return (gate, *(draw(st.sampled_from([tuple, list]))(wires) for wires in sides))


class TestBuilder:
    def test_duplicate_wire_name(self):
        b = NetlistBuilder("n")
        b.primary_input("a")
        with pytest.raises(MalformedNetlist, match="already exists"):
            b.primary_input("a")

    def test_unknown_input_wire(self):
        b = NetlistBuilder("n")
        with pytest.raises(MalformedNetlist, match="does not exist"):
            b.gate(TS3, ("a", "b", "c"), ("d", "e", "f"))

    def test_wire_cannot_fan_out(self):
        b = NetlistBuilder("n")
        a = b.primary_input("a")
        b.gate(TS3, (a, b.ancilla(0), b.ancilla(0)), ("p", "q", "r"))
        with pytest.raises(MalformedNetlist, match="already consumed"):
            b.gate(TS3, (a, "p", "q"), ("u", "v", "w"))

    def test_primary_output_of_consumed_wire(self):
        b = NetlistBuilder("n")
        a = b.primary_input("a")
        b.gate(TS3, (a, b.ancilla(0), b.ancilla(0)), ("p", "q", "r"))
        with pytest.raises(MalformedNetlist, match="already consumed"):
            b.primary_output(a)

    def test_ancilla_autonaming_and_constants(self):
        b = NetlistBuilder("n")
        z = b.ancilla(0)
        o = b.ancilla(1)
        assert z.startswith("zero") and o.startswith("one")

    def test_garbage_in_creation_order(self):
        net = full_adder_net()
        assert net.garbage_wires() == ("res_x", "res_h")
        assert net.primary_output_wires() == ("s", "co")

    def test_wire_names_must_be_clean(self):
        b = NetlistBuilder("n")
        with pytest.raises(MalformedNetlist):
            b.primary_input("has space")
        with pytest.raises(MalformedNetlist):
            b.primary_input("")

    def test_primary_output_marked_once(self):
        b = NetlistBuilder("n")
        a = b.primary_input("a")
        b.primary_output(a)
        with pytest.raises(MalformedNetlist, match="is already a primary output"):
            b.primary_output(a)
        assert b.build().primary_output_wires() == ("a",)

    # The builder checks wires and consumption as gates are placed, but only
    # build()'s validate() checks that the circuit has primary inputs and
    # outputs; it also fills the analysis cache that every later export reads.
    def test_build_without_primary_outputs(self):
        b = NetlistBuilder("n")
        b.gate(TS3, (b.primary_input("a"), b.ancilla(0), b.ancilla(0)), ("p", "q", "r"))
        with pytest.raises(MalformedNetlist, match="^netlist declares no primary outputs$"):
            b.build()

    def test_build_with_only_ancilla_inputs(self):
        b = NetlistBuilder("n")
        b.gate(TS3, (b.ancilla(0), b.ancilla(1), b.ancilla(0)), ("p", "q", "r"))
        b.primary_output("p")
        with pytest.raises(MalformedNetlist, match="^netlist declares no primary inputs$"):
            b.build()


def started_builder() -> NetlistBuilder:
    """Inputs x, y, w and ancilla zero0; one gate consumed x, y and zero0."""
    b = NetlistBuilder("boundary")
    x, y = b.primary_input("x"), b.primary_input("y")
    b.primary_input("w")
    b.gate(TS3, (x, y, b.ancilla(0)), ("p", "q", "r"))
    return b


def finished(b: NetlistBuilder) -> Netlist:
    """Add one auto-named ancilla and one gate, mark ``s`` and build."""
    b.gate(TS3, ("p", "q", b.ancilla(1)), ("s", "t", "u"))
    b.primary_output("s")
    return b.build()


# Taken names: "w" and "p" exist unconsumed, "x" and "zero0" were consumed.
BAD_WIRES = ["w", "x", "zero0", "has space", "", "tab\t", 7, None, ["v"]]

REJECTED_CALLS = {
    **{f"primary_input-{w!r}": lambda b, w=w: b.primary_input(w) for w in BAD_WIRES},
    **{f"gate_output-{w!r}": lambda b, w=w: b.gate(TS3, ("p", "q", "r"), ("s", "t", w))
       for w in [*BAD_WIRES, "p"]},
    **{f"gate_input-{w!r}": lambda b, w=w: b.gate(TS3, (w, "q", "r"), ("s", "t", "u"))
       for w in ["x", "zero0", "missing", "has space", 7, ["v"]]},
    **{f"primary_output-{w!r}": lambda b, w=w: b.primary_output(w)
       for w in ["x", "missing", "has space", 7, ["v"]]},
    "ancilla-const-2": lambda b: b.ancilla(2),
}


class TestBuilderBoundaries:
    """Every rejected builder call raises and leaves the builder as it was.

    Byte-identical ``to_json()`` of both built-in adder builds, which pins
    the builder's wire and garbage order, is covered by the export cases in
    ``tests/cli_fixtures.json``.
    """

    @pytest.mark.parametrize("call", REJECTED_CALLS.values(), ids=REJECTED_CALLS.keys())
    def test_rejected_call_raises_and_registers_nothing(self, call):
        b = started_builder()
        with pytest.raises(MalformedNetlist):
            call(b)
        net = finished(b)
        reference = finished(started_builder())
        assert net == reference
        assert net.to_json() == reference.to_json()

    def test_reference_netlist(self):
        net = finished(started_builder())
        assert [d.wire for d in net.inputs] == ["x", "y", "w", "zero0", "one1"]
        assert net.garbage_wires() == ("w", "r", "t", "u")


class TestSimulate:
    def test_full_adder_truth_table(self):
        net = full_adder_net()
        for x in (0, 1):
            for y in (0, 1):
                for cin in (0, 1):
                    primary, full = net.simulate(BitVector(3, x | y << 1 | cin << 2))
                    s, co = primary.value & 1, primary.value >> 1 & 1
                    assert 2 * co + s == x + y + cin
                    assert full.width == 4  # two results plus two garbage lines

    def test_example_one_plus_zero_plus_one(self):
        net = full_adder_net()
        primary, _ = net.simulate(BitVector(3, 0b101))
        assert primary == BitVector(2, 0b10)

    def test_width_mismatch(self):
        from revdec.gates import WidthMismatch

        with pytest.raises(WidthMismatch):
            full_adder_net().simulate(BitVector(2, 0))

    def test_trace_reports_every_gate(self):
        net = full_adder_net()
        primary, _, steps = net.simulate_trace(BitVector(3, 0b011))
        assert len(steps) == 1
        step = steps[0]
        assert step.gate_name == "TSG"
        assert dict(step.inputs) == {"x": 1, "y": 1, "zero0": 0, "cin": 0}
        assert dict(step.outputs)["s"] == primary.value & 1

    def test_gate_order_does_not_change_results(self):
        # Two independent parity gates, listed in both construction orders.
        def build(reverse: bool) -> Netlist:
            inputs = tuple(
                InputDecl(w, ROLE_PRIMARY_INPUT) for w in ("a", "b", "c", "d")
            )
            g1 = GateInstance(TS3, ("a", "b", "z1"), ("p", "q", "r"))
            g2 = GateInstance(TS3, ("c", "d", "z2"), ("u", "v", "w"))
            gates = (g2, g1) if reverse else (g1, g2)
            return Netlist(
                "pair",
                inputs + (InputDecl("z1", ROLE_ANCILLA, 0), InputDecl("z2", ROLE_ANCILLA, 0)),
                tuple(
                    OutputDecl(w, ROLE_PRIMARY_OUTPUT) for w in ("r", "w")
                )
                + tuple(OutputDecl(w, ROLE_GARBAGE) for w in ("p", "q", "u", "v")),
                gates,
            )

        forward, backward = build(False), build(True)
        for pattern in range(16):
            x = BitVector(4, pattern)
            assert forward.simulate(x)[0] == backward.simulate(x)[0]
        assert forward.metrics().gate_count == backward.metrics().gate_count
        assert forward.metrics().depth == backward.metrics().depth


def ancillas_only(net: Netlist) -> tuple[InputDecl, ...]:
    return tuple(InputDecl(d.wire, ROLE_ANCILLA, 0) for d in net.inputs)


def garbage_only(net: Netlist) -> tuple[OutputDecl, ...]:
    return tuple(OutputDecl(d.wire, ROLE_GARBAGE) for d in net.outputs)


# The full adder's (inputs, outputs) redeclared, and the message validation
# gives; the last two pin the order in which the last three rules apply.
DECLARATION_FAULTS = {
    "input-declared-twice": (lambda n: (n.inputs + n.inputs[:1], n.outputs),
                             "wire 'x' is declared twice"),
    "output-declared-twice": (lambda n: (n.inputs, n.outputs + n.outputs[:1]),
                              "output 's' is declared twice"),
    "no-primary-inputs": (lambda n: (ancillas_only(n), n.outputs),
                          "netlist declares no primary inputs"),
    "no-primary-outputs": (lambda n: (n.inputs, garbage_only(n)),
                           "netlist declares no primary outputs"),
    "dangling-before-no-primary-inputs": (
        lambda n: (ancillas_only(n), n.outputs[:-1]),
        "wire(s) ['res_h'] are driven but neither consumed by a gate nor declared as "
        "outputs; classify them as garbage"),
    "no-primary-inputs-before-outputs": (lambda n: (ancillas_only(n), garbage_only(n)),
                                         "netlist declares no primary inputs"),
}


class TestValidation:
    def _net(self, inputs, outputs, gates) -> Netlist:
        return Netlist("bad", tuple(inputs), tuple(outputs), tuple(gates))

    def test_fan_out_detected(self):
        net = self._net(
            [InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("b", ROLE_PRIMARY_INPUT),
             InputDecl("z", ROLE_ANCILLA, 0), InputDecl("z2", ROLE_ANCILLA, 0),
             InputDecl("z3", ROLE_ANCILLA, 0)],
            [OutputDecl("r1", ROLE_PRIMARY_OUTPUT), OutputDecl("r2", ROLE_PRIMARY_OUTPUT),
             OutputDecl("p1", ROLE_GARBAGE), OutputDecl("q1", ROLE_GARBAGE),
             OutputDecl("p2", ROLE_GARBAGE), OutputDecl("q2", ROLE_GARBAGE)],
            [GateInstance(TS3, ("a", "b", "z"), ("p1", "q1", "r1")),
             GateInstance(TS3, ("a", "z2", "z3"), ("p2", "q2", "r2"))],
        )
        with pytest.raises(MalformedNetlist, match="consumed twice"):
            net.validate()

    def test_driven_twice_detected(self):
        net = self._net(
            [InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("b", ROLE_PRIMARY_INPUT),
             InputDecl("c", ROLE_PRIMARY_INPUT), InputDecl("z", ROLE_ANCILLA, 0),
             InputDecl("z2", ROLE_ANCILLA, 0), InputDecl("z3", ROLE_ANCILLA, 0)],
            [OutputDecl("r", ROLE_PRIMARY_OUTPUT)],
            [GateInstance(TS3, ("a", "b", "z"), ("p", "q", "r")),
             GateInstance(TS3, ("c", "z2", "z3"), ("p", "u", "v"))],
        )
        with pytest.raises(MalformedNetlist, match="driven twice"):
            net.validate()

    def test_dangling_wire_detected(self):
        net = self._net(
            [InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("b", ROLE_PRIMARY_INPUT),
             InputDecl("z", ROLE_ANCILLA, 0)],
            [OutputDecl("r", ROLE_PRIMARY_OUTPUT), OutputDecl("p", ROLE_GARBAGE)],
            [GateInstance(TS3, ("a", "b", "z"), ("p", "q", "r"))],
        )
        with pytest.raises(MalformedNetlist, match="garbage"):
            net.validate()

    def test_undriven_output_detected(self):
        net = self._net(
            [InputDecl("a", ROLE_PRIMARY_INPUT)],
            [OutputDecl("a", ROLE_PRIMARY_OUTPUT), OutputDecl("ghost", ROLE_GARBAGE)],
            [],
        )
        with pytest.raises(MalformedNetlist, match="never driven"):
            net.validate()

    def test_cycle_detected(self):
        net = self._net(
            [InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("b", ROLE_PRIMARY_INPUT),
             InputDecl("z", ROLE_ANCILLA, 0), InputDecl("z2", ROLE_ANCILLA, 0)],
            [OutputDecl("y1", ROLE_PRIMARY_OUTPUT), OutputDecl("y2", ROLE_GARBAGE),
             OutputDecl("x1", ROLE_GARBAGE), OutputDecl("x2", ROLE_GARBAGE)],
            [GateInstance(TS3, ("a", "w2", "z"), ("x1", "w1", "y1")),
             GateInstance(TS3, ("b", "w1", "z2"), ("x2", "w2", "y2"))],
        )
        with pytest.raises(MalformedNetlist, match="cycle"):
            net.validate()

    def test_ancilla_needs_constant(self):
        with pytest.raises(MalformedNetlist, match="constant"):
            InputDecl("z", ROLE_ANCILLA, None)
        with pytest.raises(MalformedNetlist):
            InputDecl("a", ROLE_PRIMARY_INPUT, 1)

    def test_bad_roles(self):
        with pytest.raises(MalformedNetlist):
            InputDecl("a", "output")
        with pytest.raises(MalformedNetlist):
            OutputDecl("a", "input")

    def test_instance_width_mismatch(self):
        with pytest.raises(MalformedNetlist, match="lines"):
            GateInstance(TS3, ("a", "b"), ("c", "d"))

    def test_instance_duplicate_wires(self):
        with pytest.raises(MalformedNetlist, match="duplicate"):
            GateInstance(TS3, ("a", "a", "b"), ("c", "d", "e"))

    def test_instance_self_loop(self):
        with pytest.raises(MalformedNetlist, match="own input"):
            GateInstance(TS3, ("a", "b", "c"), ("a", "d", "e"))

    @settings(max_examples=400, deadline=None)
    @given(gate_instance_args())
    @example((TS3, ["a", "b", "c"], ("d", "e", "f")))
    @example((TS3, ("a", "a b", "c"), ("d", "e")))  # input name before output width
    @example((TS3, ("a", "b"), ("d", "", "f")))  # input width before output name
    @example((TS3, ("a", "a", "c"), ("a", "e")))  # input duplicate before output width
    @example((TS3, ("a", "b", "c"), ("d", "d", "a")))  # output duplicate before overlap
    @example((TS3, ("a", "b", "c"), ("d", 7, "a")))  # output name before overlap
    @example((TS3, ("a", "b", "c"), ("c", "a", "e")))  # overlap, named in sorted order
    @example((TS3, ("a", ["v"], "c"), ("d", "e", "f")))  # unhashable, still a name error
    def test_messages_and_precedence_match_the_per_side_reference(self, args):
        gate, ins, outs = args
        try:
            reference_gate_instance(gate, ins, outs)
        except MalformedNetlist as exc:
            with pytest.raises(MalformedNetlist) as info:
                GateInstance(gate, ins, outs)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
        else:
            inst = GateInstance(gate, ins, outs)
            assert (inst.input_wires, inst.output_wires) == (tuple(ins), tuple(outs))
            assert type(inst.input_wires) is type(inst.output_wires) is tuple

    @pytest.mark.parametrize("declare, message", DECLARATION_FAULTS.values(),
                             ids=DECLARATION_FAULTS.keys())
    def test_declaration_faults(self, declare, message):
        adder = full_adder_net()
        net = Netlist("bad", *declare(adder), adder.gates)
        exact = f"^{re.escape(message)}$"
        with pytest.raises(MalformedNetlist, match=exact):
            net.validate()
        with pytest.raises(MalformedNetlist, match=exact):
            Netlist.from_json(json.dumps(reference_doc(net)))

    # A seeded Random rather than st.randoms: Hypothesis's own draws favour
    # the first choice, which leaves pairs of rule breaks rare.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2))
    def test_messages_and_precedence_match_the_three_pass_reference(self, seed, n_mutations):
        net = mutated_net(random.Random(seed), n_mutations)
        unevaluable, invalid = reference_faults(net)
        if invalid is None:
            net.validate()
        else:
            with pytest.raises(MalformedNetlist) as info:
                net.validate()
            assert str(info.value) == invalid
        # check_injective needs only an evaluable netlist.
        if unevaluable is None:
            collision = net.check_injective()
            if net.primary_output_wires():  # else the reference has no output vector
                assert collision == reference_collision(net)
        else:
            with pytest.raises(MalformedNetlist) as info:
                net.check_injective()
            assert str(info.value) == unevaluable


class TestCheckInjective:
    def test_valid_netlist_passes(self):
        assert full_adder_net().check_injective() is None

    def test_information_loss_is_caught(self):
        # Outputs alias wire a twice and drop wire b entirely: inputs that
        # differ only in b collide.
        net = Netlist(
            "lossy",
            (InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("b", ROLE_PRIMARY_INPUT)),
            (OutputDecl("a", ROLE_PRIMARY_OUTPUT), OutputDecl("a", ROLE_GARBAGE)),
            (),
        )
        collision = net.check_injective()
        assert collision is not None
        x1, x2 = collision
        assert x1 != x2
        assert x1.value & 1 == x2.value & 1  # they differ only in the dropped wire
        # The sweep reads the cached columns, so every later call agrees.
        assert all(net.check_injective() == collision for _ in range(3))

    def test_too_many_inputs_refused(self):
        wires = [f"w{i}" for i in range(21)]
        net = Netlist(
            "wide",
            tuple(InputDecl(w, ROLE_PRIMARY_INPUT) for w in wires),
            tuple(OutputDecl(w, ROLE_PRIMARY_OUTPUT) for w in wires),
            (),
        )
        with pytest.raises(MalformedNetlist, match="2\\*\\*"):
            net.check_injective()

    def test_wide_netlist_is_refused_but_still_simulates(self):
        net = wide_net()
        width = len(net.primary_input_wires())
        assert width > _MAX_INJECTIVITY_INPUTS
        with pytest.raises(MalformedNetlist, match="2\\*\\*"):
            net.check_injective()
        with pytest.raises(MalformedNetlist, match="2\\*\\*"):
            net.columns()
        rng = random.Random(7)
        for pattern in [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(40)]:
            *want, steps = reference_simulate(net, pattern)
            x = BitVector(width, pattern)
            assert net.simulate(x) == tuple(want)
            assert net.simulate_trace(x) == (*want, steps)
        assert "_columns" not in vars(net)

    def test_wide_trace_evaluates_the_netlist_once(self, monkeypatch):
        net = wide_net(_MAX_INJECTIVITY_INPUTS + 1)
        x = BitVector(len(net.primary_input_wires()), 0x15A5A5)
        passes = []
        real_lanes = Netlist._lanes
        monkeypatch.setattr(Netlist, "_lanes",
                            lambda net, *args: passes.append(1) or real_lanes(net, *args))
        primary, full, _ = net.simulate_trace(x)
        assert len(passes) == 1
        assert net.simulate(x) == (primary, full)
        assert len(passes) == 2

    def test_randomly_composed_netlists_are_injective(self):
        rng = random.Random(1207)
        for trial in range(20):
            net = random_net(rng, f"random{trial}")
            assert net.check_injective() is None, net.name

    def test_identity_at_the_input_limit(self):
        # 2**20 patterns: the widest netlist the sweep accepts.
        n = _MAX_INJECTIVITY_INPUTS
        wires = [f"x{i}" for i in range(n)]
        inputs = tuple(InputDecl(w, ROLE_PRIMARY_INPUT) for w in wires)
        outputs = [OutputDecl(w, ROLE_PRIMARY_OUTPUT) for w in wires]
        assert Netlist("identity", inputs, tuple(outputs), ()).check_injective() is None
        for k in (3, n - 1):
            # Output k aliases wire k + 1 (mod n), so input k is dropped.
            lossy = list(outputs)
            lossy[k] = OutputDecl(wires[(k + 1) % n], ROLE_PRIMARY_OUTPUT)
            net = Netlist("lossy", inputs, tuple(lossy), ())
            assert net.check_injective() == (BitVector(n, 0), BitVector(n, 1 << k))

    def test_no_primary_inputs_means_no_collision(self):
        # One pattern (the ancilla constants) cannot collide with another.
        net = Netlist(
            "constant",
            tuple(InputDecl(w, ROLE_ANCILLA, 1) for w in ("z0", "z1", "z2")),
            (OutputDecl("p", ROLE_PRIMARY_OUTPUT), OutputDecl("q", ROLE_GARBAGE),
             OutputDecl("r", ROLE_GARBAGE)),
            (GateInstance(TS3, ("z0", "z1", "z2"), ("p", "q", "r")),),
        )
        assert net.check_injective() is None


class TestReferenceEvaluator:
    """simulate, simulate_trace and check_injective against a dict-keyed reference."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3))
    def test_random_netlists_match_the_reference(self, rng, n_outputs):
        built = random_net(rng, "r", n_outputs)
        # Shuffled placements and declarations: dependency order differs
        # from placement order, and primary bits feed other wires.
        gates, inputs = list(built.gates), list(built.inputs)
        rng.shuffle(gates)
        rng.shuffle(inputs)
        net = Netlist("r", tuple(inputs), built.outputs, tuple(gates))
        net.validate()
        width = len(net.primary_input_wires())
        for pattern in range(1 << width):
            *want, steps = reference_simulate(net, pattern)
            x = BitVector(width, pattern)
            assert net.simulate(x) == tuple(want)
            assert net.simulate_trace(x) == (*want, steps)
        assert reference_collision(net) is None
        assert net.check_injective() is None
        assert_columns_match_the_reference(net, net.columns())

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_lossy_netlists_report_the_reference_collision(self, rng, wide):
        # Aliasing one output onto another drops a wire: check_injective
        # skips the consumption rules, so it still sweeps such a netlist.
        net = random_net(rng, "r", rng.randint(1, 3))
        outputs = list(net.outputs)
        if wide:
            # 65-130 outputs in shuffled order: constant ancillas passed
            # straight to garbage spread the real outputs over two chunks
            # of 64 output codes.
            pads = [InputDecl(f"pad{j}", ROLE_ANCILLA, rng.randint(0, 1))
                    for j in range(rng.randint(65, 130) - len(outputs))]
            outputs += [OutputDecl(d.wire, ROLE_GARBAGE) for d in pads]
            rng.shuffle(outputs)
            net = Netlist("r", net.inputs + tuple(pads), tuple(outputs), net.gates)
        k = rng.randrange(len(outputs))
        outputs[k] = OutputDecl(rng.choice(outputs).wire, outputs[k].role)
        lossy = Netlist("lossy", net.inputs, tuple(outputs), net.gates)
        assert lossy.check_injective() == reference_collision(lossy)
        # columns() validates, so read the lossy netlist's lanes by wire index.
        assert_columns_match_the_reference(lossy, dict(zip(lossy._analysis.wires,
                                                           lossy._columns)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 130), st.randoms(use_true_random=False))
    @example(0, 0, random.Random(0))  # one pattern, no outputs
    @example(2, 0, random.Random(0))  # no outputs: patterns 0 and 1 collide
    @example(3, 64, random.Random(1))  # 8 patterns padded to 64
    @example(7, 65, random.Random(2))  # one code past the chunk boundary
    @example(12, 130, random.Random(3))
    def test_pattern_words_equal_the_per_pattern_reference(self, n, m, rng):
        # check_injective over random output lanes: each copies an input
        # column, XORs two of them, is random or is sparse, so the sweep
        # sees both distinct and colliding codes at every word width.
        size = 1 << n
        net = Netlist("columns", tuple(InputDecl(f"x{i}", ROLE_PRIMARY_INPUT) for i in range(n))
                      + tuple(InputDecl(f"c{j}", ROLE_ANCILLA, 0) for j in range(m)),
                      tuple(OutputDecl(f"c{j}", ROLE_GARBAGE) for j in range(m)), ())
        inputs = net._columns[:n] or [0]
        lanes = [rng.choice([
            rng.choice(inputs),
            rng.choice(inputs) ^ rng.choice(inputs),
            rng.getrandbits(size),
            rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size),
        ]) for _ in range(m)]
        vars(net)["_columns"] = net._columns[:n] + lanes
        # The reference: each pattern's tuple of output bits, in pattern order.
        bits = [format(lane, f"0{size}b")[::-1] for lane in lanes]
        seen, want = {}, None
        for pattern, code in enumerate(zip(*bits) if bits else [()] * size):
            first = seen.setdefault(code, pattern)
            if first != pattern:
                want = BitVector(n, first), BitVector(n, pattern)
                break
        assert net.check_injective() == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda width: st.permutations(range(1 << width)).map(lambda t: (width, tuple(t)))))
    def test_lane_functions_equal_the_gate_tables(self, width_table):
        width, table = width_table
        gate = GatePermutation("RANDOM", width, table)
        lane_function = _lane_function(gate.width, gate.table)
        size = 1 << width
        ins = [sum(1 << p for p in range(size) if (p >> i) & 1) for i in range(width)]
        outs = lane_function((1 << size) - 1, *ins)
        for p in range(size):
            assert sum(((lane >> p) & 1) << j for j, lane in enumerate(outs)) == table[p]
        # The compiled code reads only its own arguments: no global name.
        code = lane_function.__code__
        assert not code.co_names and not code.co_freevars
        assert code.co_varnames == ("ones", *(f"x{i}" for i in range(width)))

    def test_lane_function_cache_stays_bounded(self):
        # Netlists drawn from more distinct random tables than the cache
        # holds, each sharing the built-in TS3: the cache never passes its
        # bound, and a table evicted earlier compiles again when it returns.
        bound = _lane_function.cache_info().maxsize
        _lane_function.cache_clear()
        rng = random.Random(1515)
        pool = {tuple(rng.sample(range(8), 8)) for _ in range(bound + bound // 2)}
        assert len(pool) > bound
        pool = sorted(pool)
        for trial in range(bound // 2):
            gates = [TS3, *(GatePermutation("TS3", 3, rng.choice(pool))
                            for _ in range(rng.randint(0, 8)))]
            b = NetlistBuilder(f"random{trial}")
            wires = [b.primary_input(f"i{k}") for k in range(3)]
            for g, gate in enumerate(gates):
                wires = b.gate(gate, wires, [f"w{g}_{i}" for i in range(3)])
            for wire in wires:
                b.primary_output(wire)
            net = b.build()
            assert_columns_match_the_reference(net, net.columns())
            assert _lane_function.cache_info().currsize <= bound
            for pattern in range(8):
                primary = reference_simulate(net, pattern)[0]
                assert net.simulate(BitVector(3, pattern))[0] == primary
        assert _lane_function.cache_info().misses > bound


def undriven_net() -> Netlist:
    """A netlist whose analysis fails: wire "b" is consumed but never driven."""
    return Netlist(
        "undriven",
        (InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("z", ROLE_ANCILLA, 0)),
        (OutputDecl("p", ROLE_PRIMARY_OUTPUT), OutputDecl("q", ROLE_GARBAGE),
         OutputDecl("r", ROLE_GARBAGE)),
        (GateInstance(TS3, ("a", "b", "z"), ("p", "q", "r")),),
    )


def cyclic_net() -> Netlist:
    """A netlist whose analysis fails: its two gates feed each other."""
    return Netlist(
        "cyclic",
        (InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("b", ROLE_PRIMARY_INPUT),
         InputDecl("z", ROLE_ANCILLA, 0), InputDecl("z2", ROLE_ANCILLA, 0)),
        (OutputDecl("y1", ROLE_PRIMARY_OUTPUT), OutputDecl("y2", ROLE_GARBAGE),
         OutputDecl("x1", ROLE_GARBAGE), OutputDecl("x2", ROLE_GARBAGE)),
        (GateInstance(TS3, ("a", "w2", "z"), ("x1", "w1", "y1")),
         GateInstance(TS3, ("b", "w1", "z2"), ("x2", "w2", "y2"))),
    )


class TestAnalysisCache:
    def test_analysis_runs_once_per_netlist(self, monkeypatch):
        calls = {}
        for name in ("_analysis", "_columns"):
            analysis = vars(Netlist)[name].func

            def counted(net, analysis=analysis, name=name):
                calls[name] = calls.get(name, 0) + 1
                return analysis(net)

            prop = cached_property(counted)
            prop.__set_name__(Netlist, name)
            monkeypatch.setattr(Netlist, name, prop)
        net = full_adder_net()
        for pattern in range(200):
            net.simulate(BitVector(3, pattern % 8))
            net.simulate_trace(BitVector(3, pattern % 8))
        net.check_injective()
        net.check_injective()
        net.columns()
        net.metrics()
        net.to_dot()
        assert calls == {"_analysis": 1, "_columns": 1}

    @pytest.mark.parametrize(
        "net",
        [
            undriven_net(),
            # the analysis passes and keeps a broken consumption rule: "z" dangles
            Netlist(
                "dangling",
                (InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("z", ROLE_ANCILLA, 0)),
                (OutputDecl("a", ROLE_PRIMARY_OUTPUT),),
                (),
            ),
        ],
        ids=["undriven", "dangling"],
    )
    def test_malformed_netlist_raises_on_every_call(self, net):
        for _ in range(2):
            with pytest.raises(MalformedNetlist):
                net.validate()
        for call in (net.simulate, net.simulate_trace):
            for _ in range(2):
                with pytest.raises(MalformedNetlist):
                    call(BitVector(1, 0))
        for _ in range(2):
            with pytest.raises(MalformedNetlist):
                net.columns()
        # Only the evaluable netlist keeps its analysis; neither keeps columns.
        assert ("_analysis" in vars(net)) == (net.name == "dangling")
        assert "_columns" not in vars(net)

    def test_validation_and_export_compile_no_gate(self):
        # Lane functions compile where a netlist is first evaluated, so the
        # cold metrics and export paths never derive a gate's covers.
        _lane_function.cache_clear()
        net = build_carry_skip_reversible().netlist
        net.validate()
        net.metrics()
        net.to_json()
        net.to_dot()
        assert _lane_function.cache_info().misses == 0
        net.check_injective()
        assert _lane_function.cache_info().misses > 0

    def test_gate_functions_are_looked_up_once_per_distinct_gate(self, monkeypatch):
        # A parsed netlist holds one gate object per definition: the 17
        # placed carry-skip gates share 5 of them.
        calls = []
        monkeypatch.setattr(netlist_module, "_lane_function",
                            lambda width, table: calls.append(table) or _lane_function(width, table))
        net = Netlist.from_json(build_carry_skip_reversible().netlist.to_json())
        net.simulate(BitVector(9, 0))
        assert len(calls) == len(set(calls)) == 5
        net.simulate_trace(BitVector(9, 1))
        net.check_injective()
        assert len(calls) == 5
        # Builds that share an analysis keep their own functions.
        other = net._with_gates(inst.gate for inst in net.gates)
        other.simulate(BitVector(9, 0))
        assert len(calls) == 10 and other._gate_functions == net._gate_functions

    def test_unevaluable_netlist_caches_no_columns(self):
        net = undriven_net()
        for _ in range(2):
            with pytest.raises(MalformedNetlist, match="never driven"):
                net.check_injective()
        assert not {"_analysis", "_columns"} & set(vars(net))

    @pytest.mark.parametrize("make, match", [(undriven_net, "never driven"),
                                             (cyclic_net, "cycle")],
                             ids=["undriven", "cyclic"])
    def test_unevaluable_netlist_raises_on_every_call(self, make, match):
        net = make()
        for _ in range(3):
            with pytest.raises(MalformedNetlist, match=match):
                net.check_injective()
        assert not {"_analysis", "_columns"} & set(vars(net))


def random_tables(rng: random.Random, net: Netlist) -> list[GatePermutation]:
    """One random bijective table per placed gate, of its width, each under
    a fresh name."""
    return [GatePermutation(f"R{g}", inst.gate.width,
                            rng.sample(range(1 << inst.gate.width), 1 << inst.gate.width))
            for g, inst in enumerate(net.gates)]


def placed_afresh(net: Netlist, gates) -> Netlist:
    """``net`` with ``gates`` placed on its wires, built from scratch."""
    return Netlist(net.name, net.inputs, net.outputs,
                   tuple(GateInstance(gate, inst.input_wires, inst.output_wires)
                         for gate, inst in zip(gates, net.gates)))


class TestWithGates:
    """``_with_gates`` puts other tables on a netlist's wires: it shares the
    declarations, and the analysis only once a walk has found no fault."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_other_tables_share_the_fresh_walk(self, rng):
        net = random_net(rng, "r", rng.randint(1, 3), (2, 6), (1, 10))
        net.validate()
        gates = random_tables(rng, net)
        swapped, fresh = net._with_gates(gates), placed_afresh(net, gates)
        assert swapped == fresh
        assert swapped.inputs is net.inputs and swapped.outputs is net.outputs
        assert swapped._analysis is net._analysis
        assert swapped._analysis == fresh._analysis
        assert swapped.columns() == fresh.columns()
        assert swapped.to_json() == fresh.to_json() and swapped.to_dot() == fresh.to_dot()

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_a_wrong_width_gate_raises_its_instance_message(self, rng):
        net = random_net(rng, "r", rng.randint(1, 3))
        net.validate()
        gates = random_tables(rng, net)
        g = rng.randrange(len(gates))
        width = gates[g].width + (1 if gates[g].width < 4 else -1)
        gates[g] = GatePermutation("WRONG", width, range(1 << width))
        with pytest.raises(MalformedNetlist) as reference:
            GateInstance(gates[g], net.gates[g].input_wires, net.gates[g].output_wires)
        with pytest.raises(MalformedNetlist) as swapped:
            net._with_gates(gates)
        assert str(swapped.value) == str(reference.value)
        with pytest.raises(ValueError):
            net._with_gates(gates[:-1])

    # A seeded Random, as for the three-pass reference: most mutants break
    # a rule, and a fault may name a gate, so the tables get fresh names.
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2))
    def test_a_netlist_with_a_fault_shares_no_analysis(self, seed, n_mutations):
        rng = random.Random(seed)
        net = mutated_net(rng, n_mutations)
        unevaluable, invalid = reference_faults(net)
        if unevaluable is None:
            assert net._analysis.fault == invalid
        gates = random_tables(rng, net)
        swapped, fresh = net._with_gates(gates), placed_afresh(net, gates)
        assert swapped == fresh
        assert ("_analysis" in vars(swapped)) == (invalid is None)
        assert reference_faults(swapped) == reference_faults(fresh)
        if unevaluable is None:
            assert swapped._analysis == fresh._analysis
            assert swapped._analysis.fault == reference_faults(fresh)[1]

    @pytest.mark.parametrize("make", [undriven_net, cyclic_net, lambda: Netlist(
        "dangling", (InputDecl("a", ROLE_PRIMARY_INPUT), InputDecl("z", ROLE_ANCILLA, 0)),
        (OutputDecl("a", ROLE_PRIMARY_OUTPUT),), ())], ids=["undriven", "cyclic", "dangling"])
    def test_a_rejected_netlist_shares_nothing_it_walked(self, make):
        net = make()
        with pytest.raises(MalformedNetlist):
            net.validate()
        swapped = net._with_gates([inst.gate for inst in net.gates])
        assert swapped == net and "_analysis" not in vars(swapped)


ONE_PATTERN_NETS = {
    "conventional": lambda: build_conventional_reversible().netlist,
    "carry_skip": lambda: build_carry_skip_reversible().netlist,
    **{f"random{k}": lambda k=k: random_net(random.Random(2200 + k), f"random{k}", 1 + k % 3,
                                            (2, 9), (1, 12)) for k in range(6)},
    "wide": wide_net,
}


def counted_passes(monkeypatch) -> list:
    """A list that gains one entry per ``Netlist._lanes`` pass from now on."""
    passes = []
    real_lanes = Netlist._lanes
    monkeypatch.setattr(Netlist, "_lanes",
                        lambda net, *args: passes.append(1) or real_lanes(net, *args))
    return passes


class TestOnePatternSimulation:
    """simulate and simulate_trace always run one gate pass for their one
    pattern and cache nothing, whether or not columns() has filled the
    cached columns; a loop over many patterns reads columns() instead."""

    @pytest.mark.parametrize("make", ONE_PATTERN_NETS.values(), ids=ONE_PATTERN_NETS.keys())
    def test_fresh_netlist_runs_one_pass_per_call(self, monkeypatch, make):
        net = make()
        width = len(net.primary_input_wires())
        rng = random.Random(width)
        patterns = (range(1 << width) if width <= 9
                    else [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(30)])
        passes = counted_passes(monkeypatch)
        for pattern in patterns:
            *want, steps = reference_simulate(net, pattern)
            x = BitVector(width, pattern)
            assert net.simulate(x) == tuple(want)
            assert net.simulate_trace(x) == (*want, steps)
        assert len(passes) == 2 * len(patterns)
        assert "_columns" not in vars(net)

    @pytest.mark.parametrize("make", [build_conventional_reversible,
                                      build_carry_skip_reversible])
    def test_cached_columns_leave_one_pass_per_call(self, monkeypatch, make):
        net = make().netlist
        columns = net.columns()
        passes = counted_passes(monkeypatch)

        def at(wires, pattern):
            return BitVector(len(wires), sum((columns[w] >> pattern & 1) << i
                                             for i, w in enumerate(wires)))

        for pattern in range(512):
            *want, steps = reference_simulate(net, pattern)
            want = tuple(want)
            assert want == (at(net.primary_output_wires(), pattern),
                            at([d.wire for d in net.outputs], pattern))
            x = BitVector(9, pattern)
            assert net.simulate(x) == want
            assert len(passes) == 2 * pattern + 1
            primary, full, trace = net.simulate_trace(x)
            assert len(passes) == 2 * pattern + 2
            assert (primary, full, trace) == (*want, steps)
            for step in trace:
                for wire, value in step.inputs + step.outputs:
                    assert value == columns[wire] >> pattern & 1

def reference_depths(net: Netlist) -> dict[str, int]:
    """Each wire's longest driving path in gates, walking gates in
    :func:`reference_order`."""
    depths = {d.wire: 0 for d in net.inputs}
    for g in reference_order(net):
        inst = net.gates[g]
        level = 1 + max(depths[w] for w in inst.input_wires)
        depths.update((w, level) for w in inst.output_wires)
    return depths


def shuffled_net(rng: random.Random) -> Netlist:
    """A :func:`random_net` netlist with its gates placed in shuffled order."""
    net = random_net(rng, "r", rng.randint(1, 3), (2, 6), (1, 10))
    gates = list(net.gates)
    rng.shuffle(gates)
    return Netlist("r", net.inputs, net.outputs, tuple(gates))


class TestMetrics:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.randoms(use_true_random=False).map(shuffled_net), awkward_netlists()))
    def test_depth_is_the_reference_longest_path(self, net):
        depths = reference_depths(net)
        assert dict(zip(net._analysis.wires, net._depths())) == depths
        assert net.metrics().depth == max(depths.values())

    def test_gate_free_netlist_has_depth_zero(self):
        b = NetlistBuilder("wires")
        for wire in ("x", "y"):
            b.primary_output(b.primary_input(wire))
        net = b.build()
        assert dict(zip(net._analysis.wires, net._depths())) == reference_depths(net)
        assert reference_depths(net) == {"x": 0, "y": 0}
        assert net.metrics() == CostMetrics(gate_count=0, garbage_count=0,
                                            ancilla_count=0, depth=0)

    def test_full_adder_metrics(self):
        m = full_adder_net().metrics()
        assert m == CostMetrics(gate_count=1, garbage_count=2, ancilla_count=1, depth=1)
        assert m.as_dict() == {"gates": 1, "garbage": 2, "ancilla": 1, "depth": 1}

    def test_depth_counts_longest_path(self):
        b = NetlistBuilder("chain")
        a = b.primary_input("a")
        x = b.primary_input("x")
        acc = a
        for i in range(3):
            _, _, acc = b.gate(
                TS3, (x if i == 0 else f"s{i - 1}", acc, b.ancilla(0)),
                (f"s{i}", f"g{i}", f"acc{i}"),
            )
        b.primary_output(acc)
        net = b.build()
        assert net.metrics().depth == 3

    def test_wire_depths(self):
        net = full_adder_net()
        depths = dict(zip(net._analysis.wires, net._depths()))
        assert depths == reference_depths(net)
        assert depths["x"] == 0 and depths["s"] == 1


class TestSerialization:
    def test_json_round_trip_is_structural_equality(self):
        net = full_adder_net()
        assert Netlist.from_json(net.to_json()) == net

    def test_json_carries_gate_tables(self):
        text = full_adder_net().to_json()
        assert '"gate_defs"' in text and '"table"' in text

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            '{"name": "x"}',
            '{"name": "x", "inputs": [], "outputs": [], "gates": 3, "gate_defs": []}',
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            Netlist.from_json(text)

    def test_unknown_gate_reference(self):
        doc = full_adder_net().to_json().replace('"gate_name": "TSG"', '"gate_name": "XYZ"')
        with pytest.raises(ParseError, match="XYZ"):
            Netlist.from_json(doc)

    def test_malformed_structure_in_valid_json(self):
        import json as jsonlib

        doc = jsonlib.loads(full_adder_net().to_json())
        doc["outputs"] = doc["outputs"][:-1]  # drop a consumer: wire dangles
        with pytest.raises(MalformedNetlist):
            Netlist.from_json(jsonlib.dumps(doc))

    def test_dot_export_mentions_structure(self):
        dot = full_adder_net().to_dot()
        assert dot.startswith('digraph "full_adder"')
        assert 'label="g0: TSG"' in dot
        assert "[primary_input]" in dot and "[garbage]" in dot
        assert 'label="zero0 = 0 [ancilla]"' in dot
        # one edge per wire: 4 into the gate, 4 out of the circuit
        assert dot.count("->") == 8


class TestInterchangeBytes:
    """``to_json`` and ``to_dot`` write the same bytes as the plain-data
    references above, for any valid netlist and any legal names."""

    @given(awkward_netlists())
    def test_json_is_the_reference_document_dumped(self, net):
        assert net.to_json() == json.dumps(reference_doc(net), indent=2)

    @given(awkward_netlists())
    def test_json_round_trips(self, net):
        assert Netlist.from_json(net.to_json()) == net

    @given(awkward_netlists())
    def test_dot_is_the_reference_rendering(self, net):
        assert net.to_dot() == reference_dot(net)

    @given(awkward_netlists(DOT_WIRE_TEXT))
    def test_dot_escapes_all_wires_as_each_one_alone(self, net):
        # to_dot escapes every wire name in one pass over their
        # newline-joined text; the reference escapes each name on its own.
        wires = net._analysis.wires
        assert _dot_escape("\n".join(wires)).split("\n") == list(map(_dot_escape, wires))
        assert net.to_dot() == reference_dot(net)

    def test_zero_gate_netlist(self):
        b = NetlistBuilder('q"\\\u00e9')
        b.primary_output(b.primary_input("x\x00\U0001f600"))
        net = b.build()
        text = net.to_json()
        assert '"gates": []' in text and '"gate_defs": []' in text and text.isascii()
        assert text == json.dumps(reference_doc(net), indent=2)
        assert Netlist.from_json(text) == net
        assert net.to_dot() == reference_dot(net)

    @staticmethod
    def two_gates_named_x(second: GatePermutation) -> Netlist:
        b = NetlistBuilder("clash")
        (y,) = b.gate(GatePermutation("X", 1, [1, 0]), [b.primary_input("x")], ["y"])
        (z,) = b.gate(second, [y], ["z"])
        b.primary_output(z)
        return b.build()

    def test_same_named_gates_with_different_tables_are_refused(self):
        # The document keys tables by name: writing one table for both gates
        # would turn this circuit's NOT x into NOT NOT x once parsed back.
        net = self.two_gates_named_x(GatePermutation("X", 1, [0, 1]))
        with pytest.raises(MalformedNetlist, match="'X'"):
            net.to_json()

    def test_same_named_gates_with_equal_tables_share_one_definition(self):
        net = self.two_gates_named_x(GatePermutation("X", 1, [1, 0]))
        assert net.gates[0].gate is not net.gates[1].gate
        text = net.to_json()
        assert len(json.loads(text)["gate_defs"]) == 1
        assert text == json.dumps(reference_doc(net), indent=2)
        assert Netlist.from_json(text) == net


# Both builds' interchange documents, decoded.
ROUND_TRIP_DOCS = [json.loads(build().netlist.to_json())
                   for build in (build_conventional_reversible, build_carry_skip_reversible)]


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def per_record_from_json(text: str):
    """The outcome of :meth:`Netlist.from_json` with its bulk step refused,
    so that it builds every record through ``_checked_records``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netlist_module, "_trusted_records", lambda cls, doc, defs: None)
        return outcome(lambda: Netlist.from_json(text))


def wire_slots(doc: dict) -> list[tuple]:
    """``(container, key)`` of every wire name in a document."""
    return ([(e, "wire") for e in doc["inputs"] + doc["outputs"]]
            + [(e[side], j) for e in doc["gates"] for side in ("in", "out")
               for j in range(len(e[side]))])


def drop_key(doc, draw):
    where = draw(st.sampled_from([doc, *doc["inputs"], *doc["outputs"], *doc["gates"]]))
    del where[draw(st.sampled_from(sorted(where)))]


def bad_wire(doc, draw):
    container, key = draw(st.sampled_from(wire_slots(doc)))
    container[key] = draw(st.sampled_from(["", " ", "a b", "x\t", " y", "z\n", 7, None,
                                           ["w"]]))


def repeated_wire(doc, draw):
    e = draw(st.sampled_from(doc["gates"]))
    source, target = draw(st.sampled_from([("in", "in"), ("out", "out"),
                                           ("in", "out"), ("out", "in")]))
    i = draw(st.integers(0, len(e[source]) - 1))
    j = draw(st.integers(0, len(e[target]) - 1).filter(lambda j: (source, i) != (target, j)))
    e[target][j] = e[source][i]


def bad_role(doc, draw):
    e = draw(st.sampled_from(doc["inputs"] + doc["outputs"]))
    e["role"] = draw(st.sampled_from(["bogus", "", [e["role"]], {"role": 1}, None, 1,
                                      ROLE_PRIMARY_INPUT, ROLE_ANCILLA,
                                      ROLE_PRIMARY_OUTPUT, ROLE_GARBAGE]))


def bad_const(doc, draw):
    e = draw(st.sampled_from(doc["inputs"]))
    e["const"] = draw(st.sampled_from([True, False, 1.0, 0.0, 2, -1, "1", None, 0, 1, [1]]))


def bad_sides(doc, draw):
    e = draw(st.sampled_from(doc["gates"]))
    side = draw(st.sampled_from(["in", "out"]))
    wires = e[side]
    e[side] = draw(st.sampled_from([" ".join(wires), "".join(wires), tuple(wires),
                                    dict.fromkeys(wires, 0), wires[:-1], [*wires, "extra"],
                                    [], None]))


def unknown_gate(doc, draw):
    e = draw(st.sampled_from(doc["gates"]))
    e["gate_name"] = draw(st.sampled_from(["NOPE", "tsg", "", 3, None, ["TSG"]]))


def bad_name(doc, draw):
    doc["name"] = draw(st.sampled_from([3, None, ["n"], {"n": 1}, 1.5, True, "", "a b"]))


class TestBulkParse:
    """``from_json`` builds a document's records unchecked once it has proved
    them valid in bulk; any other document goes through ``_checked_records``,
    the per-record path, with the same result or the same first error."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_edit_parses_as_on_the_per_record_path(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(ROUND_TRIP_DOCS)))
        edit = data.draw(st.sampled_from([drop_key, bad_wire, repeated_wire, bad_role,
                                          bad_const, bad_sides, unknown_gate, bad_name]))
        edit(doc, data.draw)
        text = json.dumps(doc)
        assert outcome(lambda: Netlist.from_json(text)) == per_record_from_json(text)
        # The decoded document itself, tuples included, which JSON cannot hold.
        defs = {e["name"]: GatePermutation(e["name"], e["width"], e["table"])
                for e in ROUND_TRIP_DOCS[0]["gate_defs"] + ROUND_TRIP_DOCS[1]["gate_defs"]}
        checked = outcome(lambda: netlist_module._checked_records(Netlist, doc, defs))
        trusted = netlist_module._trusted_records(Netlist, doc, defs)
        assert trusted is None or trusted == checked

    @pytest.mark.parametrize("doc", ROUND_TRIP_DOCS, ids=["conventional", "carry_skip"])
    def test_a_valid_document_checks_no_record(self, monkeypatch, doc):
        checked = []
        for cls in (InputDecl, OutputDecl, GateInstance, Netlist):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda record, real=cls.__post_init__:
                                checked.append(record) or real(record))
        net = Netlist.from_json(json.dumps(doc))
        assert checked == []
        monkeypatch.undo()
        assert net == per_record_from_json(json.dumps(doc))
        assert net.to_json() == json.dumps(doc, indent=2)
