"""Gate-level reversible netlists with strict wire bookkeeping.

A netlist here is a directed acyclic circuit of reversible gates in which
every wire has exactly one driver (a circuit input or one gate output) and
exactly one consumer (one gate input or one circuit output).  Fan-out is
disallowed by construction, because copying a value in reversible logic
costs a gate; if a design needs a value twice it must route it through a
gate that reproduces it.  Any driven wire that no gate consumes must be
declared as a circuit output, either a primary output carrying a result or
a garbage output carrying a leftover value.

:class:`NetlistBuilder` is the convenient way to assemble a netlist; it
tracks consumption as gates are added and classifies leftover wires as
garbage automatically.  :class:`Netlist` itself is an immutable value with
simulation, cost metrics, an exhaustive injectivity check, and JSON / DOT
serialization.

Evaluation is lane-parallel: bit ``p`` of a wire's *lane* int is its value
under primary input pattern ``p``, and each gate step calls its gate's
:attr:`~revdec.gates.GatePermutation.lane_function`.  One pass computes
every wire's lane over the whole input domain for :meth:`Netlist.columns`
and the injectivity sweep, and is cached; simulation evaluates its one
pattern over 1-bit lanes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii

from ._record import record
from .gates import BitVector, GatePermutation, NotBijective, ParseError, WidthMismatch
from .sop import input_lanes

__all__ = [
    "ROLE_PRIMARY_INPUT",
    "ROLE_ANCILLA",
    "ROLE_PRIMARY_OUTPUT",
    "ROLE_GARBAGE",
    "MalformedNetlist",
    "InputDecl",
    "OutputDecl",
    "GateInstance",
    "CostMetrics",
    "TraceStep",
    "Netlist",
    "NetlistBuilder",
]

ROLE_PRIMARY_INPUT = "primary_input"
ROLE_ANCILLA = "ancilla"
ROLE_PRIMARY_OUTPUT = "primary_output"
ROLE_GARBAGE = "garbage"

_INPUT_ROLES = (ROLE_PRIMARY_INPUT, ROLE_ANCILLA)
_OUTPUT_ROLES = (ROLE_PRIMARY_OUTPUT, ROLE_GARBAGE)

# Up to this many primary inputs, a netlist is evaluated over all 2**n patterns
# at once and can be swept for injectivity.
_MAX_INJECTIVITY_INPUTS = 20


class MalformedNetlist(ValueError):
    """The netlist breaks a structural rule (drivers, consumers, cycles)."""


_WORD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}

# Transpose masks are cached up to this many patterns (at most 192 KiB an
# entry); a 20-input sweep's would take up to 48 MiB, so it builds its own.
_CACHED_MASK_PATTERNS = 1 << 12


@lru_cache(maxsize=8)
def _transpose_steps(word: int, length: int) -> tuple[tuple[int, int], ...]:
    """``(shift, mask)`` per step of transposing every ``word`` x ``word``
    block of a matrix whose row ``r`` is bits ``r * length`` onwards.

    The step for ``d = word / 2, .., 2, 1`` swaps each block's top-right and
    bottom-left ``d`` x ``d`` quarters (Hacker's Delight, section 7-3): the
    mask holds the bits of rows with bit ``d`` clear in columns with it set,
    and the shift moves one of them to its partner, ``d`` rows down and
    ``d`` columns left.
    """
    row = length // 8
    steps = []
    d = word // 2
    while d:
        if d >= 8:
            columns = (bytes(d // 8) + b"\xff" * (d // 8)) * (row * 4 // d)
        else:
            columns = bytes([{1: 0xAA, 2: 0xCC, 4: 0xF0}[d]]) * row
        mask = (columns * d + bytes(row * d)) * (word // (2 * d))
        steps.append((d * (length - 1), int.from_bytes(mask, "little")))
        d //= 2
    return tuple(steps)


def _check_wire_name(wire: object) -> str:
    if not isinstance(wire, str) or wire.split() != [wire]:
        raise MalformedNetlist(
            f"wire names must be non-empty strings without whitespace, got {wire!r}")
    return wire


@record
class InputDecl:
    """One circuit input: a primary operand line or a constant ancilla line."""

    wire: str
    role: str
    const: int | None = None

    def __post_init__(self) -> None:
        _check_wire_name(self.wire)
        if self.role not in _INPUT_ROLES:
            raise MalformedNetlist(f"input {self.wire!r} has role {self.role!r}, "
                                   f"expected one of {_INPUT_ROLES}")
        if self.role == ROLE_ANCILLA:
            if type(self.const) is not int or self.const not in (0, 1):
                raise MalformedNetlist(f"ancilla {self.wire!r} needs a constant of 0 or 1, "
                                       f"got {self.const!r}")
        elif self.const is not None:
            raise MalformedNetlist(f"primary input {self.wire!r} must not carry a constant")


@record
class OutputDecl:
    """One circuit output: a primary result line or a garbage line."""

    wire: str
    role: str

    def __post_init__(self) -> None:
        _check_wire_name(self.wire)
        if self.role not in _OUTPUT_ROLES:
            raise MalformedNetlist(f"output {self.wire!r} has role {self.role!r}, "
                                   f"expected one of {_OUTPUT_ROLES}")


@record
class GateInstance:
    """One placed gate: which wires enter each line and which leave it.

    Line ``i`` of the gate reads ``input_wires[i]`` and drives
    ``output_wires[i]``.
    """

    gate: GatePermutation
    input_wires: tuple[str, ...]
    output_wires: tuple[str, ...]

    def __post_init__(self) -> None:
        ins, outs = self.input_wires, self.output_wires
        if type(ins) is not tuple:
            object.__setattr__(self, "input_wires", ins := tuple(ins))
        if type(outs) is not tuple:
            object.__setattr__(self, "output_wires", outs := tuple(outs))
        # One pass over both sides.  Splitting the joined names gives them
        # back exactly when each is a non-empty string without whitespace;
        # one set of both sides finds duplicates and overlap alike.  Only a
        # failure runs the checks side by side, which name the culprit.
        wires = ins + outs
        try:
            named = " ".join(wires).split() == list(wires)
        except TypeError:
            named = False
        if named and len(ins) == self.gate.width == len(outs) and len(set(wires)) == len(wires):
            return
        for wires, side in ((ins, "input"), (outs, "output")):
            for wire in wires:
                _check_wire_name(wire)
            if len(wires) != self.gate.width:
                raise MalformedNetlist(
                    f"gate {self.gate.name!r} has {self.gate.width} lines but "
                    f"{len(wires)} {side} wires were given")
            if len(set(wires)) != len(wires):
                raise MalformedNetlist(
                    f"gate {self.gate.name!r} lists a duplicate {side} wire")
        overlap = set(ins) & set(outs)
        if overlap:
            raise MalformedNetlist(
                f"gate {self.gate.name!r} would drive its own input wire(s) "
                f"{sorted(overlap)}; give outputs fresh names")


@record
class CostMetrics:
    """Standard reversible-circuit cost figures for one netlist."""

    gate_count: int
    garbage_count: int
    ancilla_count: int
    depth: int

    def as_dict(self) -> dict[str, int]:
        return {"gates": self.gate_count, "garbage": self.garbage_count,
                "ancilla": self.ancilla_count, "depth": self.depth}


@record
class TraceStep:
    """One gate evaluation in a simulation trace."""

    index: int
    gate_name: str
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]


@record
class _Analysis:
    """What :attr:`Netlist._analysis` finds in its one walk over the wires.

    Wire ``i`` is named ``wires[i]``: the circuit inputs in declaration
    order, then each gate's output wires in placement order.  ``steps``
    holds ``(gate index, input wires, output wires)`` per gate in dependency
    order; every other wire here is an index.

    The walk reads wire names and roles, never a gate's table; a gate's name
    appears only in ``fault``'s message.  So a valid netlist's analysis
    holds for any gates placed on its wires, and :meth:`Netlist._with_gates`
    shares it.
    """

    wires: tuple[str, ...]
    drivers: tuple[int, ...]  # per wire: its gate's index, or -1 for a circuit input
    steps: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    primary_inputs: tuple[int, ...]
    primary_outputs: tuple[int, ...]
    outputs: tuple[int, ...]
    fault: str | None  # the first broken consumption rule, raised by validate


@record
class Netlist:
    """An immutable reversible circuit.

    Equality is structural: two netlists are equal when they declare the
    same inputs, outputs and gate placements (including the gates' tables)
    in the same order.  Validation is explicit via :meth:`validate`;
    operations that only make sense on well-formed circuits (simulation,
    metrics, export) call it themselves.  One walk over the wires, cached on
    first use, gives each wire's index and driver, the gates' dependency
    order and the first broken consumption rule, which :meth:`validate`
    raises on every call.  A circuit that cannot be evaluated (a wire
    driven twice or never, a cycle) caches nothing and raises again.
    """

    name: str
    inputs: tuple[InputDecl, ...]
    outputs: tuple[OutputDecl, ...]
    gates: tuple[GateInstance, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise MalformedNetlist(f"netlist name must be a string, got {self.name!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "gates", tuple(self.gates))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def primary_input_wires(self) -> tuple[str, ...]:
        return tuple(d.wire for d in self.inputs if d.role == ROLE_PRIMARY_INPUT)

    def primary_output_wires(self) -> tuple[str, ...]:
        return tuple(d.wire for d in self.outputs if d.role == ROLE_PRIMARY_OUTPUT)

    def garbage_wires(self) -> tuple[str, ...]:
        return tuple(d.wire for d in self.outputs if d.role == ROLE_GARBAGE)

    @cached_property
    def _analysis(self) -> _Analysis:
        """Walk inputs, gate outputs, gate inputs and outputs once.

        Raises :class:`MalformedNetlist` only for a circuit that cannot be
        evaluated, naming the first of: a wire declared or driven twice, a
        consumed wire never driven, an output never driven, a dependency
        cycle.  Gates are ordered by Kahn's FIFO queue of ready gates.  The
        first broken consumption rule is only kept as ``fault``, so
        :meth:`check_injective` still sweeps a netlist that :meth:`validate`
        rejects, for example one whose outputs alias a wire.
        """
        # Sources drive wires: -1 the circuit inputs, then each gate its
        # outputs.  Sinks consume them: each gate its inputs, then -1 the
        # circuit outputs.  A wire needs one source; validate wants one sink.
        index: dict[str, int] = {}
        drivers: list[int] = []  # per wire: its source
        outs_of = []  # per source: its wires
        for g, names in [(-1, [d.wire for d in self.inputs]),
                         *enumerate(inst.output_wires for inst in self.gates)]:
            outs_of.append(tuple(range(len(drivers), len(drivers) + len(names))))
            for wire in names:
                if wire in index:
                    raise MalformedNetlist(f"wire {wire!r} is "
                                           + ("driven twice" if g >= 0 else "declared twice"))
                index[wire] = len(drivers)
                drivers.append(g)
        del outs_of[0]
        fault = None
        consumers: list[int | None] = [None] * len(drivers)  # per wire: its sink
        missing = [0] * len(self.gates)  # gate-driven inputs not yet ordered
        successors: list[list[int]] = [[] for _ in self.gates]
        ins_of = []  # per sink: its wires
        for g, names in [*enumerate(inst.input_wires for inst in self.gates),
                         (-1, [d.wire for d in self.outputs])]:
            ins = []
            for wire in names:
                i = index.get(wire)
                if i is None:
                    raise MalformedNetlist(f"wire {wire!r} is consumed but never driven"
                                           if g >= 0 else f"output {wire!r} is never driven")
                ins.append(i)
                if g >= 0 and drivers[i] >= 0:
                    missing[g] += 1
                    successors[drivers[i]].append(g)
                first = consumers[i]
                if first is not None and fault is None:
                    where = [f"gate {k} ({self.gates[k].gate.name})" if k >= 0
                             else "circuit output" for k in (first, g)]
                    fault = (f"output {wire!r} is declared twice" if first == g == -1 else
                             f"wire {wire!r} is consumed twice ({where[0]} and {where[1]}); "
                             f"fan-out requires an explicit copy gate")
                consumers[i] = g
            ins_of.append(tuple(ins))
        outputs = ins_of.pop()

        order = [g for g, n in enumerate(missing) if n == 0]
        for g in order:  # a FIFO queue: the loop reaches the gates it appends
            for nxt in successors[g]:
                missing[nxt] -= 1
                if missing[nxt] == 0:
                    order.append(nxt)
        if len(order) != len(self.gates):
            raise MalformedNetlist("netlist contains a dependency cycle")

        primary_inputs = tuple(i for i, d in enumerate(self.inputs)
                               if d.role == ROLE_PRIMARY_INPUT)
        primary_outputs = tuple(i for i, d in zip(outputs, self.outputs)
                                if d.role == ROLE_PRIMARY_OUTPUT)
        if fault is None:
            dangling = [w for w, c in zip(index, consumers) if c is None]
            if dangling:
                fault = (f"wire(s) {sorted(dangling)} are driven but neither consumed by a "
                         f"gate nor declared as outputs; classify them as garbage")
            elif not primary_inputs:
                fault = "netlist declares no primary inputs"
            elif not primary_outputs:
                fault = "netlist declares no primary outputs"
        return _Analysis(tuple(index), tuple(drivers),
                         tuple((g, ins_of[g], outs_of[g]) for g in order),
                         primary_inputs, primary_outputs, outputs, fault)

    def _with_gates(self, gates: Iterable[GatePermutation]) -> Netlist:
        """Validate, then place ``gates`` on this netlist's gates' wires, in order.

        Its records were checked when made, and only a side's width depends
        on the gate: a gate as wide as the one it replaces keeps the wire
        tuples unchecked, any other is checked by :class:`GateInstance`,
        which raises its width error.  The result shares :attr:`inputs`,
        :attr:`outputs`, the analysis (see :class:`_Analysis`) and the
        :attr:`_wiring` this netlist renders once.
        """
        self.validate()
        placed = tuple([
            (GateInstance._trusted if gate.width == inst.gate.width else GateInstance)(
                gate, inst.input_wires, inst.output_wires)
            for gate, inst in zip(gates, self.gates, strict=True)])
        net = Netlist._trusted(self.name, self.inputs, self.outputs, placed)
        net.__dict__["_wiring"] = self._wiring
        net.__dict__["_analysis"] = self._analysis
        return net

    def validate(self) -> None:
        """Check every structural invariant; raise :class:`MalformedNetlist`.

        Rules: unique wire names per declaration site, exactly one driver
        and exactly one consumer per wire (fan-out is not allowed), no
        driven-but-unclassified wires, no cycles, and at least one primary
        input and one primary output.  The answer comes from the cached
        analysis; a netlist that failed raises on every call.
        """
        fault = self._analysis.fault
        if fault:
            raise MalformedNetlist(fault)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def _lanes(self, columns: Sequence[int], ones: int = 1) -> list[int]:
        """Every wire's lane, by index, with ``columns`` on the primary inputs.

        ``ones`` has a 1 in every lane bit in use.  Each wire has one driver,
        so its lane is written once, before any gate reads it.
        """
        analysis = self._analysis
        functions = [inst.gate.lane_function for inst in self.gates]
        lanes = [ones if d.const else 0 for d in self.inputs]
        lanes += [0] * (len(analysis.wires) - len(lanes))
        for wire, column in zip(analysis.primary_inputs, columns):
            lanes[wire] = column
        for g, ins, outs in analysis.steps:
            for wire, lane in zip(outs, functions[g](ones, *[lanes[w] for w in ins])):
                lanes[wire] = lane
        return lanes

    @cached_property
    def _columns(self) -> list[int]:
        """Every wire's lane over all ``2**n`` primary patterns, by wire index,
        with :func:`~revdec.sop.input_lanes` on the primary inputs."""
        width = len(self._analysis.primary_inputs)
        if width > _MAX_INJECTIVITY_INPUTS:
            raise MalformedNetlist(f"refusing to enumerate 2**{width} input patterns "
                                   f"(limit is 2**{_MAX_INJECTIVITY_INPUTS})")
        return self._lanes(input_lanes(width), (1 << (1 << width)) - 1)

    def _lanes_at(self, x: BitVector) -> list[int]:
        """Validate; every wire's value under ``x``, from one pass over 1-bit lanes."""
        self.validate()
        width = len(self._analysis.primary_inputs)
        if x.width != width:
            raise WidthMismatch(f"netlist {self.name!r} has {width} primary inputs "
                                f"but the pattern has {x.width} bits")
        return self._lanes([(x.value >> i) & 1 for i in range(width)])

    def simulate(self, x: BitVector) -> tuple[BitVector, BitVector]:
        """Evaluate the circuit on one primary input pattern.

        Bit ``i`` of ``x`` feeds the ``i``-th declared primary input.  Returns
        ``(primary, full)``: the primary output bits, then every declared
        output (primary and garbage), each in declaration order.  Each call
        runs one gate pass for its pattern and caches nothing; a loop over
        many patterns reads :meth:`columns` instead.
        """
        return self._outputs(self._lanes_at(x))

    def simulate_trace(self, x: BitVector) -> tuple[BitVector, BitVector, tuple[TraceStep, ...]]:
        """Like :meth:`simulate` but also report every gate evaluation."""
        values = self._lanes_at(x)
        trace = tuple(
            TraceStep(g, self.gates[g].gate.name,
                      tuple(zip(self.gates[g].input_wires, [values[w] for w in ins])),
                      tuple(zip(self.gates[g].output_wires, [values[w] for w in outs])))
            for g, ins, outs in self._analysis.steps)
        return (*self._outputs(values), trace)

    def _outputs(self, values: list[int]) -> tuple[BitVector, BitVector]:
        """The primary and the full output vector of one pattern's wire values."""
        vectors = []
        for wires in (self._analysis.primary_outputs, self._analysis.outputs):
            value = 0
            for i, wire in enumerate(wires):
                value |= values[wire] << i
            vectors.append(BitVector(len(wires), value))
        return tuple(vectors)

    def columns(self) -> dict[str, int]:
        """Map each wire to its lane over all ``2**n`` primary patterns (n <= 20)."""
        self.validate()
        return dict(zip(self._analysis.wires, self._columns))

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def _depths(self) -> list[int]:
        """Each wire's number of gates on its longest driving path, by index:
        0 for a circuit input, else one past the deepest input of its gate."""
        depth = [0] * len(self._analysis.wires)
        for _, ins, outs in self._analysis.steps:
            level = 1 + max([depth[w] for w in ins])
            for wire in outs:
                depth[wire] = level
        return depth

    def metrics(self) -> CostMetrics:
        """Gate count, garbage count, ancilla count and depth."""
        self.validate()
        return CostMetrics(
            gate_count=len(self.gates),
            garbage_count=len(self.garbage_wires()),
            ancilla_count=sum(1 for d in self.inputs if d.role == ROLE_ANCILLA),
            depth=max(self._depths(), default=0),
        )

    def check_injective(self) -> tuple[BitVector, BitVector] | None:
        """Exhaustively test that distinct inputs produce distinct outputs.

        Sweeps every primary input pattern (constants fixed on ancilla
        lines) and compares the complete output tuples, garbage included.
        Returns ``None`` when no two inputs collide, otherwise the first
        collision in pattern order: the earliest pattern whose outputs an
        earlier pattern already produced, after that earlier pattern.
        Unlike :meth:`simulate` it needs only an evaluable circuit, not the
        consumption rules :meth:`validate` adds, so it can diagnose
        information loss in netlists that :meth:`validate` would reject, for
        example outputs that alias one wire while another wire is dropped.

        The answer is not cached; each call sweeps the cached output lanes
        again.  Up to 64 lanes are the rows of one bit matrix, and a
        transpose of its ``word`` x ``word`` blocks (``word`` is 8, 16, 32 or
        64 bits) turns them into one output code per pattern; more outputs
        take one code per 64 of them.  The sweep passes when the codes are
        all distinct, and only otherwise walks the patterns in order.
        """
        lanes = self._columns
        outputs = self._analysis.outputs
        width = len(self._analysis.primary_inputs)
        size = 1 << width
        word = max(8, 1 << (min(len(outputs), 64) - 1).bit_length())
        length = max(size, word)  # row length; patterns past size are padding
        row = length // 8
        steps = (_transpose_steps if size <= _CACHED_MASK_PATTERNS
                 else _transpose_steps.__wrapped__)(word, length)
        views = []
        for start in range(0, len(outputs) or 1, 64):
            # Output j of the chunk is row j.  After the transpose, word
            # i * blocks + b holds the code of pattern b * word + i; a byte
            # swap is one-to-one, so the native byte order does not matter.
            x = int.from_bytes(b"".join(lanes[w].to_bytes(row, "little")
                                        for w in outputs[start:start + 64]), "little")
            for shift, mask in steps:
                t = ((x >> shift) ^ x) & mask
                x ^= t ^ (t << shift)
            views.append(memoryview(x.to_bytes(row * word, "little")).cast(_WORD_FORMATS[word]))
        blocks = length // word
        # With padding there is one block, whose words are in pattern order.
        codes = views[0][:size] if len(views) == 1 else list(zip(*views))[:size]
        if len(set(codes)) < size:
            seen: dict = {}
            for pattern in range(size):
                first = seen.setdefault(codes[pattern % word * blocks + pattern // word],
                                        pattern)
                if first != pattern:
                    return BitVector(width, first), BitVector(width, pattern)
        return None

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    @cached_property
    def _wiring(self) -> tuple[str, tuple[str, ...]]:
        """What :meth:`to_json` writes from the wires alone: the text from
        ``"inputs"`` to ``"gates"``, and per gate the text after its name."""
        quote = encode_basestring_ascii
        inputs = [f'{{\n      "wire": {quote(d.wire)},\n      "role": {quote(d.role)}'
                  + (f',\n      "const": {d.const!r}\n    }}' if d.role == ROLE_ANCILLA
                     else "\n    }")
                  for d in self.inputs]
        outputs = [f'{{\n      "wire": {quote(d.wire)},\n      "role": {quote(d.role)}\n    }}'
                   for d in self.outputs]
        return (f'  "inputs": {_json_array(inputs, 2)},\n'
                f'  "outputs": {_json_array(outputs, 2)},\n  "gates": ',
                tuple(f',\n      "in": {_json_array(map(quote, inst.input_wires), 6)},\n'
                      f'      "out": {_json_array(map(quote, inst.output_wires), 6)}\n    }}'
                      for inst in self.gates))

    def to_json(self) -> str:
        """Serialize to the interchange JSON schema (self-contained).

        The text is byte for byte what ``json.dumps(doc, indent=2)`` writes
        for the document ``{"name", "inputs", "outputs", "gates",
        "gate_defs"}``: keys in that order, a two-space indent, non-ASCII
        characters as ``\\uXXXX`` escapes, an ancilla's ``const`` as its one
        extra key and ``gate_defs`` sorted by name.  The document keys gate
        tables by name, so two placed gates that share a name but not a
        table raise :class:`MalformedNetlist` naming that gate.  Only the
        names and ``gate_defs`` render per call; :attr:`_wiring` is shared.
        """
        self.validate()
        quote = encode_basestring_ascii
        wiring, tails = self._wiring
        defs: dict[str, GatePermutation] = {}
        gates = []
        for inst, tail in zip(self.gates, tails):
            gate = inst.gate
            known = defs.setdefault(gate.name, gate)
            if known is not gate and known != gate:
                raise MalformedNetlist(
                    f"two placed gates named {gate.name!r} have different tables; "
                    f"the interchange JSON keys gate tables by name")
            gates.append(f'{{\n      "gate_name": {quote(gate.name)}{tail}')
        gate_defs = [f'{{\n      "name": {quote(name)},\n      "width": {gate.width!r},\n'
                     f'      "table": {_json_array(map(repr, gate.table), 6)}\n    }}'
                     for name, gate in sorted(defs.items())]
        return (f'{{\n  "name": {quote(self.name)},\n{wiring}{_json_array(gates, 2)},\n'
                f'  "gate_defs": {_json_array(gate_defs, 2)}\n}}')

    @classmethod
    def from_json(cls, text: str | bytes) -> "Netlist":
        """Parse the interchange JSON schema and validate the result.

        Raises :class:`ParseError` for malformed JSON or a wrong document
        shape, :class:`~revdec.gates.NotBijective` for an irreversible gate
        table, and :class:`MalformedNetlist` for structural rule breaks.

        Every declaration and placed gate goes through its checked record
        constructor in document order, valid document or not, so the first
        faulty record raises its own error.
        """
        try:
            doc = json.loads(text)
        except (RecursionError, ValueError) as exc:
            # ValueError also covers undecodable bytes; RecursionError is
            # what the decoder raises on pathologically deep nesting.
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("top-level JSON value must be an object")
        try:
            if not isinstance(doc["name"], str):
                raise ParseError(f"netlist name must be a string, got {doc['name']!r}")
            defs: dict[str, GatePermutation] = {}
            for entry in doc["gate_defs"]:
                gate = GatePermutation(entry["name"], entry["width"], entry["table"])
                if gate.name in defs:
                    raise ParseError(f"gate {gate.name!r} is defined twice")
                defs[gate.name] = gate
            inputs = []
            for e in doc["inputs"]:
                wire, role, const = e["wire"], e["role"], e.get("const")
                if const is not None and type(const) is not int:
                    raise ParseError(f"input {wire!r} has a non-integer const {const!r}")
                inputs.append(InputDecl(wire, role, const))
            outputs = [OutputDecl(e["wire"], e["role"]) for e in doc["outputs"]]
            gates = []
            for e in doc["gates"]:
                gate_name = e["gate_name"]
                if gate_name not in defs:
                    raise ParseError(f"gate {gate_name!r} is placed but not defined in gate_defs")
                if not (isinstance(e["in"], list) and isinstance(e["out"], list)):
                    raise ParseError(f"gate {gate_name!r} needs 'in' and 'out' wire arrays")
                gates.append(GateInstance(defs[gate_name], tuple(e["in"]), tuple(e["out"])))
            net = cls(doc["name"], inputs, outputs, gates)
        except (ParseError, MalformedNetlist, NotBijective):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"netlist document has a wrong shape: {exc}") from exc
        net.validate()
        return net

    def to_dot(self) -> str:
        """Render the circuit as a Graphviz digraph.

        Inputs and outputs become ellipse nodes annotated with their role
        (ancillas show their constant), gate instances become boxes, and
        each wire becomes one labelled edge from its driver to its consumer.
        """
        self.validate()
        # Escaping is per character, so each wire's escaped name is wrapped
        # as is for its node ids, labels and edges.  Wire names hold no
        # whitespace, so all of them escape at once joined by newlines.
        wires = self._analysis.wires
        escaped = dict(zip(wires, _dot_escape("\n".join(wires)).split("\n")))
        source = {wire: f'"g{g}"' if g >= 0 else f'"in:{escaped[wire]}"'
                  for wire, g in zip(escaped, self._analysis.drivers)}
        lines = [f"digraph {_dot_quote(self.name)} {{", "  rankdir=LR;"]
        for decl in self.inputs:
            wire = escaped[decl.wire]
            label = (f"{wire} = {decl.const} [{decl.role}]" if decl.role == ROLE_ANCILLA
                     else f"{wire} [{decl.role}]")
            lines.append(f'  "in:{wire}" [shape=ellipse, label="{label}"];')
        for g, inst in enumerate(self.gates):
            label = _dot_quote(f"g{g}: {inst.gate.name}")
            lines.append(f'  "g{g}" [shape=box, label={label}];')
        for decl in self.outputs:
            shape = "doublecircle" if decl.role == ROLE_PRIMARY_OUTPUT else "ellipse"
            wire = escaped[decl.wire]
            lines.append(f'  "out:{wire}" [shape={shape}, label="{wire} [{decl.role}]"];')
        for g, inst in enumerate(self.gates):
            for wire in inst.input_wires:
                lines.append(f'  {source[wire]} -> "g{g}" [label="{escaped[wire]}"];')
        for decl in self.outputs:
            wire = escaped[decl.wire]
            lines.append(f'  {source[decl.wire]} -> "out:{wire}" [label="{wire}"];')
        lines.append("}")
        return "\n".join(lines)


def _json_array(items: Iterable[str], depth: int) -> str:
    """A JSON array of rendered ``items`` laid out as ``json.dumps(indent=2)``
    lays out one that opens ``depth`` spaces in."""
    pad = "\n" + " " * depth
    body = f",{pad}  ".join(items)
    return f"[{pad}  {body}{pad}]" if body else "[]"


def _dot_escape(text: str) -> str:
    """``text`` inside a DOT quoted string: backslashes and double quotes escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(text: str) -> str:
    """A DOT quoted string."""
    return f'"{_dot_escape(text)}"'


class NetlistBuilder:
    """Incremental netlist assembly with consumption tracking.

    Wires are introduced by :meth:`primary_input`, :meth:`ancilla` or as
    gate outputs, and each may be consumed at most once.  Calling
    :meth:`build` declares every marked result wire as a primary output,
    classifies every other unconsumed wire as garbage (in creation order)
    and validates the finished netlist.  Bookkeeping is a constant-time
    lookup per wire, and each name is checked by the record that declares
    it; a rejected call registers nothing.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._inputs: list[InputDecl] = []
        self._gates: list[GateInstance] = []
        self._wires: dict[str, None] = {}  # in creation order
        self._consumed: set[str] = set()
        self._primary_outputs: dict[str, None] = {}
        self._ancilla_serial = 0

    def _fresh(self, wires: Sequence[str]) -> None:
        for wire in wires:
            if wire in self._wires:
                raise MalformedNetlist(f"wire {wire!r} already exists")

    def _declare(self, decl: InputDecl) -> str:
        self._fresh((decl.wire,))
        self._wires[decl.wire] = None
        self._inputs.append(decl)
        return decl.wire

    def primary_input(self, wire: str) -> str:
        """Declare a primary input line and return its wire name."""
        return self._declare(InputDecl(wire, ROLE_PRIMARY_INPUT))

    def ancilla(self, const: int) -> str:
        """Declare a constant input line (0 or 1) and return its wire name."""
        decl = InputDecl(f"{'one' if const else 'zero'}{self._ancilla_serial}",
                         ROLE_ANCILLA, const)
        self._ancilla_serial += 1
        return self._declare(decl)

    def gate(self, gate: GatePermutation, inputs: Sequence[str],
             outputs: Sequence[str]) -> tuple[str, ...]:
        """Place a gate, consuming ``inputs`` and driving fresh ``outputs``."""
        inst = GateInstance(gate, tuple(inputs), tuple(outputs))
        for wire in inst.input_wires:
            if wire not in self._wires:
                raise MalformedNetlist(f"wire {wire!r} does not exist yet")
            if wire in self._consumed:
                raise MalformedNetlist(
                    f"wire {wire!r} was already consumed; reversible wires "
                    f"cannot fan out")
        self._fresh(inst.output_wires)
        self._wires.update(dict.fromkeys(inst.output_wires))
        self._consumed.update(inst.input_wires)
        self._gates.append(inst)
        return inst.output_wires

    def primary_output(self, wire: str) -> None:
        """Mark a wire as carrying a circuit result."""
        if _check_wire_name(wire) not in self._wires:
            raise MalformedNetlist(f"wire {wire!r} does not exist")
        if wire in self._consumed:
            raise MalformedNetlist(f"wire {wire!r} was already consumed")
        if wire in self._primary_outputs:
            raise MalformedNetlist(f"wire {wire!r} is already a primary output")
        self._primary_outputs[wire] = None

    def build(self) -> Netlist:
        """Finish and validate: leftovers become garbage in creation order."""
        outputs = [OutputDecl(w, ROLE_PRIMARY_OUTPUT) for w in self._primary_outputs]
        outputs += [OutputDecl(w, ROLE_GARBAGE) for w in self._wires
                    if w not in self._consumed and w not in self._primary_outputs]
        net = Netlist(self.name, tuple(self._inputs), tuple(outputs), tuple(self._gates))
        net.validate()
        return net
