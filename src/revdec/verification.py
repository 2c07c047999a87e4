"""Exhaustive verification and measurement of the adder implementations.

Everything here is judged against :func:`revdec.classical.oracle` by
sweeping all 200 valid digit-adder inputs; nothing is sampled.  The module
answers four questions:

* does an architecture compute decimal addition (:func:`verify_architecture`),
* exactly where do the as-given direct carry-look-ahead sum equations go
  wrong (:func:`cla_errata`),
* at which combination points is replacing OR with XOR sound, and where
  does the same substitution break (:func:`xor_substitution_audit`),
* how do the reversible builds' costs compare against the fixed reference
  design and the per-architecture design targets (:func:`table1_report`).

:func:`verify_architecture` is the only place a design meets the oracle.
The equation audits read its ``cla_verbatim`` report per column: bit ``i``
of a mismatch's ``actual.code() ^ expected.code()`` is a failure of
equation ``i``.  The OR-to-XOR audit reads every site's term signals from
one lane pass each of the conventional and carry-skip designs over all 512
input codes; a site's failures are the set bits of one OR-versus-XOR lane.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce
from itertools import product
from operator import or_, xor
from typing import TYPE_CHECKING

from ._record import record
from .classical import (
    ARCHITECTURES,
    BcdOperands,
    BcdResult,
    code_lanes,
    detection_terms,
    naive_detection_terms,
    digit_table,
    oracle_sweep,
    valid_operands,
)

if TYPE_CHECKING:
    from .gates import GatePermutation
    from .netlist import CostMetrics

__all__ = [
    "BASELINE_COSTS",
    "EQUATION_NAMES",
    "Mismatch",
    "VerificationReport",
    "ErrataEntry",
    "SubstitutionSite",
    "Table1Row",
    "Table1Report",
    "verify_architecture",
    "cla_agreement",
    "cla_errata",
    "xor_substitution_audit",
    "table1_report",
    "cost_delta",
]


# Gate and garbage counts of the fixed prior reversible design every cost
# comparison is anchored to.  These are quoted constants, not measurements.
BASELINE_COSTS = (23, 22)

EQUATION_NAMES = (
    "S0_VERBATIM",
    "S1_VERBATIM",
    "S2_VERBATIM",
    "S3_VERBATIM",
    "COUT_VERBATIM",
)


@record
class Mismatch:
    """One input where an implementation disagrees with the oracle."""

    operands: BcdOperands
    expected: BcdResult
    actual: BcdResult


@record
class VerificationReport:
    """Outcome of one exhaustive architecture sweep."""

    architecture: str
    total: int
    mismatches: tuple[Mismatch, ...]
    metrics: CostMetrics | None = None
    targets: tuple[int, int] | None = None

    @property
    def agreement(self) -> float:
        return (self.total - len(self.mismatches)) / self.total

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "total": self.total,
            "mismatches": [
                {**m.operands.as_dict(), "expected": m.expected.as_dict(),
                 "actual": m.actual.as_dict()}
                for m in self.mismatches
            ],
            "agreement": self.agreement,
            "metrics": self.metrics.as_dict() if self.metrics else None,
            "targets": (
                {"gates": self.targets[0], "garbage": self.targets[1]}
                if self.targets
                else None
            ),
        }


def verify_architecture(
    architecture: str,
    catalog: Mapping[str, GatePermutation] | None = None,
) -> VerificationReport:
    """Sweep all 200 valid inputs and report every oracle disagreement.

    A classical row answers through its
    :meth:`~revdec.classical.Architecture.columns`; a reversible row is built
    once, from an optional replacement gate catalog, and its build gives both
    the columns and the report's measured costs and design targets.  One XOR
    per column against the oracle's columns decides the sweep, and only a
    failing sweep is decoded.
    """
    arch = ARCHITECTURES.get(architecture)
    if arch is None:
        choices = tuple(ARCHITECTURES)
        raise ValueError(f"unknown architecture {architecture!r}; choose from {choices}")
    sweep, expected, valid = oracle_sweep()
    build = arch.build(catalog) if arch.build else None
    columns = build.columns if build else arch.columns()
    diff = 0
    for column, want in zip(columns, expected):
        diff |= column ^ want
    mismatches = []
    if diff & valid:  # decode only a failing sweep; report its inputs in canonical order
        for (op, want), got in zip(sweep, digit_table(columns)):
            if diff >> op.code() & 1:
                mismatches.append(Mismatch(op, want, got))
    return VerificationReport(architecture, len(sweep), tuple(mismatches),
                              build.metrics if build else None, build.target if build else None)


# ----------------------------------------------------------------------
# equation errata
# ----------------------------------------------------------------------


@record
class ErrataEntry:
    """The first input on which one as-given equation returns a wrong bit."""

    equation: str
    first_failing_input: BcdOperands
    observed: int
    expected: int


def cla_agreement(report: VerificationReport | None = None) -> dict[str, tuple[int, int]]:
    """Per-equation ``(matching inputs, total inputs)`` over the valid sweep,
    read from ``report`` (by default a fresh ``cla_verbatim`` verify report)."""
    report = report or verify_architecture("cla_verbatim")
    diffs = [m.actual.code() ^ m.expected.code() for m in report.mismatches]
    return {
        name: (report.total - sum(diff >> i & 1 for diff in diffs), report.total)
        for i, name in enumerate(EQUATION_NAMES)
    }


def cla_errata(report: VerificationReport | None = None) -> tuple[ErrataEntry, ...]:
    """One entry per faulty as-given equation, in column order.

    Each entry records the first input (canonical sweep order) on which the
    equation's output bit disagrees with the decimal truth table, together
    with both bits.  Equations that agree everywhere produce no entry, so
    an empty result would mean the printed equations are fully correct.
    ``report`` is read like in :func:`cla_agreement`.
    """
    mismatches = (report or verify_architecture("cla_verbatim")).mismatches
    entries = []
    for i, name in enumerate(EQUATION_NAMES):
        for m in mismatches:
            observed, expected = m.actual.code() >> i & 1, m.expected.code() >> i & 1
            if observed != expected:
                entries.append(ErrataEntry(name, m.operands, observed, expected))
                break
    return tuple(entries)


# ----------------------------------------------------------------------
# OR-to-XOR substitution audit
# ----------------------------------------------------------------------


@record
class SubstitutionSite:
    """One combination point where OR might be replaced by XOR.

    The substitution is sound exactly when at most one term can be true at
    a time.  ``or_equals_xor_on_valid`` reports whether the two operators
    agree on every valid adder input; ``first_valid_counterexample`` and
    ``valid_counterexample_count`` document the failures when they do not.
    ``diverges_off_domain`` reports whether the operators can disagree once
    the term signals are allowed to take combinations no valid input
    produces, with one witnessing signal valuation; a site that cannot
    diverge even then is exclusive by structure rather than by reachable
    cases.
    """

    site: str
    terms: tuple[str, ...]
    or_equals_xor_on_valid: bool
    first_valid_counterexample: BcdOperands | None
    valid_counterexample_count: int
    diverges_off_domain: bool
    off_domain_example: tuple[tuple[str, int], ...] | None

    def to_json_dict(self) -> dict:
        cex = self.first_valid_counterexample
        return {
            "site": self.site,
            "terms": list(self.terms),
            "or_equals_xor_on_valid": self.or_equals_xor_on_valid,
            "first_valid_counterexample": cex.as_dict() if cex else None,
            "valid_counterexample_count": self.valid_counterexample_count,
            "diverges_off_domain": self.diverges_off_domain,
            "off_domain_example": (
                dict(self.off_domain_example) if self.off_domain_example else None
            ),
        }


def _or_differs_from_xor(terms: tuple[int, ...]) -> int:
    """Where OR and XOR of the term bits (or lanes) disagree: an even number
    of set terms, at least two (three set terms agree on both)."""
    return reduce(or_, terms) ^ reduce(xor, terms)


def _signal(value: int, width: int) -> int | tuple[int, ...]:
    """An off-domain signal value as a term function reads it: a 1-bit
    signal as itself, a wider one as its bits, low bit first."""
    return value if width == 1 else tuple(value >> i & 1 for i in range(width))


# The audited OR sites: name, term names, the signals the terms read with
# each signal's width in bits, and the term function of those signals.
_SUBSTITUTION_SITES = (
    ("decimal_carry_detection", ("k", "z3&z2", "z3&~z2&z1"),
     (("k", 1), ("z", 4)), detection_terms),
    ("naive_detection", ("k", "z3&z2", "z3&z1"),
     (("k", 1), ("z", 4)), naive_detection_terms),
    ("skip_mux_select", ("big_p&cin", "~big_p&c4"),
     (("big_p", 1), ("cin", 1), ("c4", 1)),
     lambda big_p, cin, c4: (big_p & cin, ~big_p & c4)),
)


def xor_substitution_audit() -> tuple[SubstitutionSite, ...]:
    """Audit each OR combination point the designs replace with XOR.

    Three sites are audited: the decimal-carry detection layer with its
    exclusive condition set, the same layer with the textbook non-exclusive
    condition set (the negative control, which genuinely breaks), and the
    carry-skip selection point.  One lane pass each of the conventional and
    carry-skip designs gives every site's term signals on all valid inputs;
    off-domain, each site's term signals range over every combination,
    including those no valid digit pair can produce.
    """
    a, b, cin, ones = code_lanes()
    _, _, (z, k, _) = ARCHITECTURES["conventional"].lanes(a, b, cin, ones)
    _, _, (_, big_p, c4, _) = ARCHITECTURES["carry_skip"].lanes(a, b, cin, ones)
    signals = {"k": k, "z": z, "big_p": big_p, "cin": cin, "c4": c4}
    valid = oracle_sweep()[2]
    sites = []
    for site, term_names, signal_widths, terms in _SUBSTITUTION_SITES:
        names, widths = zip(*signal_widths)
        differ = _or_differs_from_xor(terms(*map(signals.get, names))) & valid
        first = next((op for op in valid_operands() if differ >> op.code() & 1), None)
        off = next((tuple(zip(names, values))
                    for values in product(*(range(1 << w) for w in widths))
                    if _or_differs_from_xor(terms(*map(_signal, values, widths)))), None)
        sites.append(SubstitutionSite(site, term_names, not differ, first,
                                      differ.bit_count(), off is not None, off))
    return tuple(sites)


# ----------------------------------------------------------------------
# cost comparison
# ----------------------------------------------------------------------


def cost_delta(gates: int, garbage: int, target: tuple[int, int]) -> str:
    """Measured minus target (gates, garbage), rendered as ``+g/+w``."""
    return f"{gates - target[0]:+d}/{garbage - target[1]:+d}"


@record
class Table1Row:
    """One line of the cost comparison; ``target`` is (gates, garbage)."""

    label: str
    gates: int
    garbage: int
    target: tuple[int, int] | None = None
    fidelity: str | None = None


@record
class Table1Report:
    """Cost comparison of the builds against the fixed reference design."""

    rows: tuple[Table1Row, ...]

    def render(self) -> str:
        header = (
            f"{'architecture':<18} {'gates':>5} {'garbage':>7} "
            f"{'target':>8} {'delta':>8}  fidelity"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            if row.target is None:
                target = delta = "-"
            else:
                target_gates, target_garbage = row.target
                target = f"{target_gates}/{target_garbage}"
                delta = cost_delta(row.gates, row.garbage, row.target)
            lines.append(
                f"{row.label:<18} {row.gates:>5} {row.garbage:>7} "
                f"{target:>8} {delta:>8}  {row.fidelity or '-'}"
            )
        return "\n".join(lines)


def table1_report(
    catalog: Mapping[str, GatePermutation] | None = None,
) -> Table1Report:
    """Measure both builds and set them beside the quoted reference costs.

    The baseline row repeats the fixed reference constants verbatim; the
    build rows carry measured counts and their targets.  Because the
    wirings are behavioral reconstructions, the rendered table shows
    measured-minus-target deltas rather than asserting equality.
    """
    rows = [Table1Row("baseline", *BASELINE_COSTS)]
    for arch in ARCHITECTURES.values():
        if arch.build is None:
            continue
        build = arch.build(catalog)
        m = build.metrics
        rows.append(Table1Row(
            arch.name, m.gate_count, m.garbage_count, build.target, build.figure_fidelity
        ))
    return Table1Report(rows=tuple(rows))
