"""Classical (irreversible) models of three one-digit BCD adders.

Every adder takes two binary-coded-decimal digits plus a carry-in and
produces a decimal digit plus a carry-out.  The three architectures differ
in how they obtain the binary stage result and the decimal-carry decision:

* ``conventional``: a four-bit ripple adder, a carry-detection layer that
  fires when the binary result exceeds nine, and a conditional add-six
  correction stage.
* ``cla``: per-position generate/propagate/half-sum signals combined by
  carry-look-ahead aggregates, evaluated in two variants.  The ``verbatim``
  variant reproduces an as-given set of direct sum equations exactly as
  printed, including their faults; the ``corrected`` variant derives
  equivalent-cost sum-of-products equations from the decimal truth table
  and is exact.
* ``carry_skip``: the conventional datapath plus a block-propagate skip
  path that forwards the incoming carry straight to the detection layer
  whenever every bit position propagates.  On valid digits that path never
  decides the decimal carry: every position propagates only when
  ``a + b == 15``, where the carry-out is 1 for either carry-in, and the
  carry-out depends on the carry-in only when ``a + b == 9``, where the
  skip path is not taken.

:func:`oracle` is the ground truth all of them are judged against; it uses
plain integer arithmetic and nothing from the circuit models.  This module
owns the :data:`ARCHITECTURES` registry of every design, classical and
reversible, and :func:`oracle_sweep`, the process's one oracle truth table.

Each classical design is one branch-free function over *lanes*, ints whose
bit ``p`` is a signal's value under input pattern ``p``: ``(a lanes, b
lanes, cin, ones) -> (sum lanes, cout lane, signal lanes)``, where ``ones``
has every lane bit in use set.  Over the lanes of all 512 input codes
(:func:`code_lanes`) one call gives a row's output columns; over 1-bit lanes
it adds one digit, whose signals fill the row's signal record.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from functools import cached_property, lru_cache, partial
from typing import TYPE_CHECKING, Any

from ._record import record
from .sop import compile_lanes, derive_sop, input_lanes

if TYPE_CHECKING:
    from .gates import GatePermutation

__all__ = [
    "InvalidBcd",
    "LengthMismatch",
    "BcdOperands",
    "BcdResult",
    "ClaSignals",
    "ConventionalTrace",
    "SkipSignals",
    "Architecture",
    "CLA_VERBATIM",
    "CLA_CORRECTED",
    "ARCHITECTURES",
    "valid_operands",
    "oracle",
    "oracle_sweep",
    "code_lanes",
    "digit_table",
    "conventional_add",
    "detection_terms",
    "naive_detection_terms",
    "cla_add",
    "carry_skip_add",
    "decimal_add",
]

CLA_VERBATIM = "verbatim"
CLA_CORRECTED = "corrected"


class InvalidBcd(ValueError):
    """An operand digit is outside the decimal range 0 through 9."""


class LengthMismatch(ValueError):
    """Multi-digit operands have different digit counts."""


@record
class BcdOperands:
    """One digit-adder input: two decimal digits and a carry-in bit."""

    a: int
    b: int
    cin: int

    def __post_init__(self) -> None:
        a, b, cin = self.a, self.b, self.cin
        if (type(a) is int and 0 <= a <= 9 and type(b) is int and 0 <= b <= 9
                and type(cin) is int and 0 <= cin <= 1):
            return
        for label, digit in (("a", a), ("b", b)):
            if type(digit) is not int or not 0 <= digit <= 9:
                raise InvalidBcd(f"operand {label}={digit!r} is not a BCD digit")
        _check_carry(cin)

    def a_bits(self) -> tuple[int, int, int, int]:
        return tuple((self.a >> i) & 1 for i in range(4))  # type: ignore[return-value]

    def b_bits(self) -> tuple[int, int, int, int]:
        return tuple((self.b >> i) & 1 for i in range(4))  # type: ignore[return-value]

    def code(self) -> int:
        """The nine-bit input code: ``a`` on bits 0-3, ``b`` on 4-7, ``cin`` on 8."""
        return self.a | (self.b << 4) | (self.cin << 8)

    def as_dict(self) -> dict[str, int]:
        return {"a": self.a, "b": self.b, "cin": self.cin}


@record
class BcdResult:
    """One digit-adder output: a four-bit sum value and a carry-out bit.

    ``sum`` ranges over 0..15 so that measured behavior of faulty equation
    sets can be represented; results consistent with :func:`oracle` always
    satisfy ``sum <= 9`` and ``10 * cout + sum == a + b + cin``.
    """

    sum: int
    cout: int

    def __post_init__(self) -> None:
        if type(self.sum) is not int or not 0 <= self.sum <= 15:
            raise ValueError(f"sum {self.sum!r} does not fit in four bits")
        if type(self.cout) is not int or self.cout not in (0, 1):
            raise ValueError(f"cout must be 0 or 1, got {self.cout!r}")

    def sum_bits(self) -> tuple[int, int, int, int]:
        return tuple((self.sum >> i) & 1 for i in range(4))  # type: ignore[return-value]

    def code(self) -> int:
        """The five-bit output code: ``sum`` on bits 0-3, ``cout`` on bit 4."""
        return self.sum | (self.cout << 4)

    def as_dict(self) -> dict[str, int]:
        return {"sum": self.sum, "cout": self.cout}

    @classmethod
    def from_code(cls, code: int) -> BcdResult:
        """The result whose :meth:`code` is ``code``, which must be 0..31."""
        if type(code) is not int or not 0 <= code < 32:
            raise ValueError(f"output code {code!r} does not fit in five bits")
        return cls(code & 15, code >> 4)


@record
class ClaSignals:
    """The look-ahead signal layer for one digit addition.

    ``g``, ``p`` and ``h`` are the per-position generate (both operand bits
    set), propagate (at least one set) and half-sum (exactly one set)
    signals, indexed from the least significant position.  ``m`` fires when
    the operands' upper three positions alone push the digit total past
    nine; ``n`` fires when they reach the boundary where a carry out of
    position 0 completes the push; ``c1`` is that carry out of position 0.
    The decimal carry is therefore ``m | (n & c1)``.
    """

    g: tuple[int, int, int, int]
    p: tuple[int, int, int, int]
    h: tuple[int, int, int, int]
    m: int
    n: int
    c1: int


@record
class ConventionalTrace:
    """Intermediate signals of the conventional adder.

    ``z`` is the packed four-bit binary stage sum, ``k`` the binary stage
    carry-out, and ``correct`` the decimal-carry trigger that also enables
    the add-six correction.
    """

    z: int
    k: int
    correct: int


@record
class SkipSignals:
    """Intermediate signals of the carry-skip adder.

    ``p_bits`` are the per-position propagate (XOR) signals, ``big_p``
    their conjunction (the block propagate), ``c4`` the ripple carry out of
    the binary stage, and ``cout`` the decimal carry actually produced.
    When ``big_p`` is set the skip path forwards the incoming carry in place
    of ``c4``; on valid digits the forwarded value always equals ``c4``.
    ``big_p`` holds only when ``a + b == 15``, where ``cout`` is 1 for either
    carry-in, so the skip never speeds up a carry-out that ``cin`` decides
    (those are the inputs with ``a + b == 9``).
    """

    p_bits: tuple[int, int, int, int]
    big_p: int
    c4: int
    cout: int


def _check_carry(cin: object) -> None:
    if type(cin) is not int or cin not in (0, 1):
        raise ValueError(f"cin must be 0 or 1, got {cin!r}")


def valid_operands() -> Iterator[BcdOperands]:
    """All 200 valid digit-adder inputs in canonical sweep order.

    The order (``a`` outermost, then ``b``, then ``cin``) is the one every
    exhaustive check and every "first failing input" report in this package
    uses.  They are the operands of :func:`oracle_sweep`, made once per process.
    """
    return (op for op, _ in oracle_sweep()[0])


def oracle(op: BcdOperands) -> BcdResult:
    """Reference decimal addition: plain integer arithmetic, no circuitry."""
    total = op.a + op.b + op.cin
    return BcdResult(sum=total % 10, cout=total // 10)


@lru_cache(maxsize=1)
def oracle_sweep() -> tuple[tuple[tuple[BcdOperands, BcdResult], ...], tuple[int, ...], int]:
    """Every valid input with its oracle result in canonical order, the
    oracle's five output columns (bit ``op.code()`` of column ``i`` is bit
    ``i`` of ``result.code()``) and the mask of the valid input codes;
    computed once per process."""
    ops = (BcdOperands(a, b, cin) for a in range(10) for b in range(10) for cin in (0, 1))
    pairs = tuple((op, oracle(op)) for op in ops)
    columns = tuple(sum((r.code() >> i & 1) << op.code() for op, r in pairs) for i in range(5))
    return pairs, columns, sum(1 << op.code() for op, _ in pairs)


@lru_cache(maxsize=1)
def code_lanes() -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """A lane design's ``(a lanes, b lanes, cin, ones)`` over all 512 input
    codes: bit ``x`` of a lane is that input bit of :meth:`BcdOperands.code` ``x``."""
    lanes = input_lanes(9)
    return tuple(lanes[:4]), tuple(lanes[4:8]), lanes[8], (1 << 512) - 1


def digit_table(columns: Sequence[int]) -> tuple[BcdResult, ...]:
    """A row's result for each valid input, read from its five output columns
    (laid out as :func:`oracle_sweep`'s), at slot ``a*20 + b*2 + cin``."""
    return tuple(
        BcdResult.from_code(sum((col >> x & 1) << i for i, col in enumerate(columns)))
        for x in (op.code() for op in valid_operands())
    )


# ----------------------------------------------------------------------
# shared four-bit binary stage
# ----------------------------------------------------------------------


def _ripple4(a: Sequence[int], b: Sequence[int], cin: int) -> tuple[list[int], int]:
    """Four chained full adders over lanes; returns (sum lanes, carry out)."""
    carry = cin
    out = []
    for x, y in zip(a, b):
        out.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    return out, carry


def _pack(bits: Sequence[int]) -> int:
    value = 0
    for i, bit in enumerate(bits):
        value |= bit << i
    return value


# ----------------------------------------------------------------------
# conventional adder
# ----------------------------------------------------------------------


def detection_terms(k: int, z: Sequence[int]) -> tuple[int, int, int]:
    """The three mutually exclusive decimal-carry conditions.

    Given the binary stage carry ``k`` and the four sum bits (or lanes)
    ``z``, the terms are ``k`` (total is 16 or more), ``z3 & z2`` (total
    12..15) and ``z3 & ~z2 & z1`` (total 10..11).  At most one term fires
    for any reachable ``(k, z)``, which is what makes OR and XOR
    interchangeable when combining them.
    """
    return k, z[3] & z[2], z[3] & ~z[2] & z[1]


def naive_detection_terms(k: int, z: Sequence[int]) -> tuple[int, int, int]:
    """The textbook non-exclusive carry conditions ``(k, z3&z2, z3&z1)``.

    Correct when combined with OR, wrong when combined with XOR: both
    pair terms fire at once for binary totals 14 and 15.  Kept as the
    negative control for the OR-to-XOR substitution audit.
    """
    return k, z[3] & z[2], z[3] & z[1]


def _correct(z: Sequence[int], k: int, ones: int) -> tuple[list[int], int]:
    """Exclusive carry detection and the add-six correction it selects."""
    t_k, t_high, t_mid = detection_terms(k, z)
    correct = t_k | t_high | t_mid
    plus_six, _ = _ripple4(z, (0, ones, ones, 0), 0)
    return [(correct & x) | (~correct & y) for x, y in zip(plus_six, z)], correct


def _conventional(a: Sequence[int], b: Sequence[int], cin: int, ones: int) -> tuple:
    """The conventional design; its signals are ``(z lanes, k, correct)``."""
    z, k = _ripple4(a, b, cin)
    sum_lanes, correct = _correct(z, k, ones)
    return sum_lanes, correct, (z, k, correct)


def conventional_add(op: BcdOperands) -> tuple[BcdResult, ConventionalTrace]:
    """Ripple binary stage, exclusive carry detection, add-six correction."""
    return ARCHITECTURES["conventional"].model(op)


# ----------------------------------------------------------------------
# carry-look-ahead adder
# ----------------------------------------------------------------------


def _cla_layer(a: Sequence[int], b: Sequence[int], cin: int) -> tuple:
    """The look-ahead signal lanes ``(g, p, h, m, n, c1)`` of :class:`ClaSignals`.

    The aggregates ``m`` and ``n`` are disjunctions of their product
    terms: each product identifies one way the upper positions reach the
    required weight, and several can hold at once (for example both
    operands equal to 9), so combining them exclusively would be wrong.
    """
    g = tuple(x & y for x, y in zip(a, b))
    p = tuple(x | y for x, y in zip(a, b))
    h = tuple(x ^ y for x, y in zip(a, b))
    m = g[3] | (p[3] & p[2]) | (p[3] & p[1]) | (g[2] & p[1])
    n = p[3] | g[2] | (p[2] & g[1])
    return g, p, h, m, n, g[0] | (p[0] & cin)


def _cla_verbatim(a: Sequence[int], b: Sequence[int], cin: int, ones: int) -> tuple:
    """The as-given direct sum equations, transcribed without repair, and
    the signal layer they read.

    These are measured equations, not trusted ones: two of the four sum
    columns disagree with the decimal truth table (see
    ``revdec.verification.cla_errata`` for the exact failure set).  The
    carry-out and the remaining columns are exact.
    """
    signals = g, p, h, m, n, c1 = _cla_layer(a, b, cin)
    s0 = h[0] ^ cin
    s1 = ((h[1] ^ m) & c1) | (~(h[1] ^ n) & c1)
    s2 = (
        (~p[2] & g[1])
        ^ (~p[3] & h[2] & ~p[1])
        ^ ((g[3] ^ (h[2] & h[1])) & ~c1)
        ^ (((~p[3] & ~p[2] & p[1]) ^ (g[2] & g[1]) ^ (p[3] & p[2])) & c1)
    )
    s3 = (~m & n & ~c1) ^ (((g[3] & ~h[3]) ^ (~h[3] & h[2] & h[1])) & c1)
    return (s0, s1, s2, s3), m | (n & c1), signals


def _corrected_covers() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Derive exact sum-of-products covers for the five output columns.

    The on-sets are the oracle's output columns over the 200 valid inputs;
    the 312 unreachable operand encodings are don't-cares, which is the
    same freedom the faulty direct equations were designed under.
    """
    _, columns, valid = oracle_sweep()
    dc = [x for x in range(1 << 9) if not valid >> x & 1]
    return tuple(derive_sop(9, [x for x in range(1 << 9) if c >> x & 1], dc) for c in columns)


@lru_cache(maxsize=1)
def _corrected_lanes() -> Callable[..., tuple[int, ...]]:
    """The derived covers as one lane function, compiled once per process."""
    return compile_lanes(9, _corrected_covers())


def _cla_corrected(a: Sequence[int], b: Sequence[int], cin: int, ones: int) -> tuple:
    """The derived exact covers, beside the look-ahead signal layer."""
    *sum_lanes, cout = _corrected_lanes()(ones, *a, *b, cin)
    return sum_lanes, cout, _cla_layer(a, b, cin)


def cla_add(op: BcdOperands, variant: str = CLA_CORRECTED) -> BcdResult:
    """Carry-look-ahead digit addition, read from its row's ``digit_pairs``.

    ``variant="verbatim"`` gives what the as-given direct sum equations
    compute exactly as printed and can return a wrong digit (the carry-out
    is always right).  ``variant="corrected"`` gives what the derived exact
    covers compute.  Both rows' ``model`` reads the same :class:`ClaSignals` layer.
    """
    if variant not in (CLA_VERBATIM, CLA_CORRECTED):
        raise ValueError(
            f"unknown variant {variant!r}; use {CLA_VERBATIM!r} or {CLA_CORRECTED!r}"
        )
    return BcdResult(*ARCHITECTURES[f"cla_{variant}"].digit_pairs[op.a * 20 + op.b * 2 + op.cin])


# ----------------------------------------------------------------------
# carry-skip adder
# ----------------------------------------------------------------------


def _carry_skip(a: Sequence[int], b: Sequence[int], cin: int, ones: int) -> tuple:
    """Conventional datapath plus a block-propagate carry-skip path.

    When every bit position propagates (``big_p``), the carry out of the
    binary stage must equal the carry in, so the skip multiplexer forwards
    ``cin`` to the detection layer immediately instead of waiting for the
    ripple chain.  Otherwise the ripple carry ``c4`` is selected.  The two
    mux branches (``big_p & cin`` and ``~big_p & c4``) can never both be
    true, which again licenses an exclusive combination.
    """
    z, c4 = _ripple4(a, b, cin)
    p_bits = tuple(x ^ y for x, y in zip(a, b))
    big_p = p_bits[0] & p_bits[1] & p_bits[2] & p_bits[3]
    sum_lanes, cout = _correct(z, (big_p & cin) | (~big_p & c4), ones)
    return sum_lanes, cout, (p_bits, big_p, c4, cout)


def carry_skip_add(op: BcdOperands) -> tuple[BcdResult, SkipSignals]:
    """Conventional datapath plus a block-propagate carry-skip path."""
    return ARCHITECTURES["carry_skip"].model(op)


# ----------------------------------------------------------------------
# architecture registry
# ----------------------------------------------------------------------


@record
class Architecture:
    """One named digit-adder design: the single record every caller looks up.

    A classical row has ``lanes``, its design's lane function, and
    ``signals``, which fills its signal record from 1-bit signal values; it
    answers through :meth:`model`, :meth:`columns` and :attr:`digit_pairs`.
    A reversible row instead has a ``build`` that assembles its netlist from
    an optional gate catalog; nothing is built until it is called, and the
    row answers only through ``build(catalog)``, whose build has its own
    ``columns`` and ``digit_pairs``.  ``exact`` is false only for a design
    whose disagreements with :func:`oracle` are documented errata, not failures.
    """

    name: str
    lanes: Callable[..., tuple] | None = None
    signals: Callable[..., Any] | None = None
    build: Callable[..., Any] | None = None
    exact: bool = True

    def model(self, op: BcdOperands) -> tuple[BcdResult, Any]:
        """A classical row's digit for ``op`` and its signal record, from one
        pass of ``lanes`` over 1-bit lanes."""
        sum_bits, cout, signals = self.lanes(op.a_bits(), op.b_bits(), op.cin, 1)
        return BcdResult(_pack(sum_bits), cout), self.signals(*signals)

    def columns(self) -> tuple[int, ...]:
        """A classical row's five output columns over all 512 input codes,
        laid out as :func:`oracle_sweep`'s, from one ``lanes`` pass over
        :func:`code_lanes`."""
        sum_lanes, cout, _ = self.lanes(*code_lanes())
        return (*sum_lanes, cout)

    @cached_property
    def digit_pairs(self) -> tuple[tuple[int, int], ...]:
        """A classical row's ``(sum, cout)`` per valid input from its :func:`digit_table`."""
        return tuple((r.sum, r.cout) for r in digit_table(self.columns()))


@lru_cache(maxsize=8)
def _cached_build(builder: str, gates: frozenset[tuple[str, GatePermutation]]) -> Any:
    """One build per (builder, catalog content); a failed build caches nothing."""
    from . import reversible

    return getattr(reversible, builder)(dict(gates))


@lru_cache(maxsize=1)
def _builtin_gates() -> frozenset[tuple[str, GatePermutation]]:
    """The built-in catalog's :func:`_cached_build` key, made once per process."""
    from .gates import builtin_catalog

    return frozenset(builtin_catalog().items())


def _build_row(builder: str, catalog: Mapping[str, GatePermutation] | None = None) -> Any:
    """A netlist row's build; the first one imports :mod:`revdec.reversible`.

    Commands that never build a netlist then never load the netlist layer.
    Equal catalogs share one build (``None`` is the built-in catalog), and
    with it the build's digit tables and cost metrics.
    """
    gates = _builtin_gates() if catalog is None else frozenset(catalog.items())
    return _cached_build(builder, gates)


# Every architecture by name, in the order sweeps and reports list them.
ARCHITECTURES: dict[str, Architecture] = {
    arch.name: arch
    for arch in (
        Architecture("conventional", _conventional,
                     lambda z, k, correct: ConventionalTrace(_pack(z), k, correct)),
        Architecture("cla_verbatim", _cla_verbatim, ClaSignals, exact=False),
        Architecture("cla_corrected", _cla_corrected, ClaSignals),
        Architecture("carry_skip", _carry_skip, SkipSignals),
        Architecture("rev_conventional",
                     build=partial(_build_row, "build_conventional_reversible")),
        Architecture("rev_carry_skip",
                     build=partial(_build_row, "build_carry_skip_reversible")),
    )
}


# ----------------------------------------------------------------------
# multi-digit addition
# ----------------------------------------------------------------------

def decimal_add(
    x_digits: Sequence[int],
    y_digits: Sequence[int],
    cin: int = 0,
    arch: str = "conventional",
    catalog: Mapping[str, GatePermutation] | None = None,
) -> tuple[list[int], int]:
    """Add two equal-length little-endian BCD digit strings.

    Digit 0 is the least significant.  Returns the sum digits (same length
    as the inputs) and the final carry.  Each call reads the row's current
    :data:`ARCHITECTURES` entry: a row with a build adds through the
    ``digit_pairs`` of the build of ``catalog`` (by default the built-in
    one); a classical row ignores it and reads its own.  A table is filled
    whole on first use; each digit is then a tuple read.  Raises
    :class:`LengthMismatch` for unequal lengths, :class:`InvalidBcd` for
    out-of-range digits and ``ValueError`` for a carry bit or an architecture
    that is unknown or not ``exact``, saying why a registered one is refused.
    """
    if len(x_digits) != len(y_digits):
        raise LengthMismatch(
            f"operands have {len(x_digits)} and {len(y_digits)} digits"
        )
    if not x_digits:
        raise ValueError("operands must have at least one digit")
    _check_carry(cin)
    row = ARCHITECTURES.get(arch)
    if row is None or not row.exact:
        why = (f"architecture {arch!r} cannot chain digits: it is not exact"
               if row is not None else f"unknown architecture {arch!r}")
        exact = tuple(n for n, r in ARCHITECTURES.items() if r.exact)
        raise ValueError(f"{why}; choose from {exact}")
    table = (row.build(catalog) if row.build else row).digit_pairs
    carry = cin
    out: list[int] = []
    for x, y in zip(x_digits, y_digits):
        # Checked on every digit: a table hit must not let True or 1.0 pass.
        if not (type(x) is int and 0 <= x <= 9 and type(y) is int and 0 <= y <= 9):
            BcdOperands(x, y, carry)  # raises the InvalidBcd naming the digit
        digit, carry = table[x * 20 + y * 2 + carry]
        out.append(digit)
    return out, carry
