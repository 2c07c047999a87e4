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
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from ._record import record
from .classical import (
    CLA_VERBATIM,
    CLASSICAL_ROWS,
    Architecture,
    BcdOperands,
    BcdResult,
    carry_skip_add,
    cla_add,
    conventional_add,
    detection_terms,
    naive_detection_terms,
    oracle,
    valid_operands,
)

if TYPE_CHECKING:
    from .gates import GatePermutation
    from .netlist import CostMetrics

__all__ = [
    "ARCHITECTURES",
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
]


def _reversible_row(name: str, builder: str) -> Architecture:
    """A netlist row whose first build imports :mod:`revdec.reversible`.

    Commands that never build a netlist then never load the netlist layer.
    """

    def build(catalog: Mapping[str, GatePermutation] | None = None):
        from . import reversible

        return getattr(reversible, builder)(catalog)

    return Architecture(name, build=build)


# Every architecture by name, in the order sweeps and reports list them.
ARCHITECTURES: dict[str, Architecture] = {
    arch.name: arch
    for arch in (
        *CLASSICAL_ROWS,
        _reversible_row("rev_conventional", "build_conventional_reversible"),
        _reversible_row("rev_carry_skip", "build_carry_skip_reversible"),
    )
}

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
                {
                    "a": m.operands.a,
                    "b": m.operands.b,
                    "cin": m.operands.cin,
                    "expected": {"sum": m.expected.sum, "cout": m.expected.cout},
                    "actual": {"sum": m.actual.sum, "cout": m.actual.cout},
                }
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


# Every valid input with its oracle result, computed by the first
# verify_architecture call and shared by all later ones in the process.
_ORACLE_SWEEP: tuple[tuple[BcdOperands, BcdResult], ...] | None = None


def _oracle_sweep() -> tuple[tuple[BcdOperands, BcdResult], ...]:
    global _ORACLE_SWEEP
    if _ORACLE_SWEEP is None:
        _ORACLE_SWEEP = tuple((op, oracle(op)) for op in valid_operands())
    return _ORACLE_SWEEP


def verify_architecture(
    architecture: str,
    catalog: Mapping[str, GatePermutation] | None = None,
) -> VerificationReport:
    """Sweep all 200 valid inputs and report every oracle disagreement.

    Reversible architectures are built once (optionally from a replacement
    gate catalog) and evaluated over all their inputs in one lane pass; each
    result is read from the build's primary-output columns.  Their reports
    carry the measured cost metrics and the design targets.  The oracle's
    results are computed once per process and shared by every call.
    """
    arch = ARCHITECTURES.get(architecture)
    if arch is None:
        choices = tuple(ARCHITECTURES)
        raise ValueError(f"unknown architecture {architecture!r}; choose from {choices}")
    if arch.build is None:
        build, add = None, arch.add
    else:
        from .gates import BitVector
        from .reversible import decode_primary

        build = arch.build(catalog)
        columns = build.netlist.columns()
        primary = [columns[w] for w in build.netlist.primary_output_wires()]
        # Decode each possible primary output vector once.
        decoded = [decode_primary(build, BitVector(len(primary), code))
                   for code in range(1 << len(primary))]

        def add(op: BcdOperands) -> BcdResult:
            p = op.code()
            return decoded[sum((lane >> p & 1) << i for i, lane in enumerate(primary))]
    sweep = _oracle_sweep()
    mismatches = []
    for op, expected in sweep:
        actual = add(op)
        if actual != expected:
            mismatches.append(Mismatch(op, expected, actual))
    return VerificationReport(
        architecture=architecture,
        total=len(sweep),
        mismatches=tuple(mismatches),
        metrics=build.metrics if build else None,
        targets=build.target if build else None,
    )


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


def _equation_sweep() -> Iterator[tuple[BcdOperands, int, int]]:
    """Each valid input with the observed and the required output code.

    Bit ``i`` of each :meth:`BcdResult.code` is the column of
    ``EQUATION_NAMES[i]``.  The as-given equations and the oracle run once
    per input; both audits below read every column from this one sweep.
    """
    for op in valid_operands():
        yield op, cla_add(op, CLA_VERBATIM).code(), oracle(op).code()


def cla_agreement() -> dict[str, tuple[int, int]]:
    """Per-equation ``(matching inputs, total inputs)`` over the valid sweep."""
    diffs = [observed ^ expected for _, observed, expected in _equation_sweep()]
    return {
        name: (sum(not (diff >> i) & 1 for diff in diffs), len(diffs))
        for i, name in enumerate(EQUATION_NAMES)
    }


def cla_errata() -> tuple[ErrataEntry, ...]:
    """One entry per faulty as-given equation, in column order.

    Each entry records the first input (canonical sweep order) on which the
    equation's output bit disagrees with the decimal truth table, together
    with both bits.  Equations that agree everywhere produce no entry, so
    an empty result would mean the printed equations are fully correct.
    """
    first: dict[int, ErrataEntry] = {}
    for op, observed, expected in _equation_sweep():
        diff = observed ^ expected
        for i, name in enumerate(EQUATION_NAMES):
            if i not in first and (diff >> i) & 1:
                first[i] = ErrataEntry(
                    name, op, (observed >> i) & 1, (expected >> i) & 1
                )
    return tuple(first[i] for i in sorted(first))


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
            "first_valid_counterexample": (
                {"a": cex.a, "b": cex.b, "cin": cex.cin} if cex else None
            ),
            "valid_counterexample_count": self.valid_counterexample_count,
            "diverges_off_domain": self.diverges_off_domain,
            "off_domain_example": (
                dict(self.off_domain_example) if self.off_domain_example else None
            ),
        }


def _or_differs_from_xor(terms: tuple[int, ...]) -> bool:
    xor_value = 0
    for t in terms:
        xor_value ^= t
    return int(any(terms)) != xor_value


def _audit_terms(
    site: str,
    term_names: tuple[str, ...],
    valid_terms: Callable[[BcdOperands], tuple[int, ...]],
    valuations: Iterable[tuple[tuple[tuple[str, int], ...], tuple[int, ...]]],
) -> SubstitutionSite:
    counterexamples = [
        op for op in valid_operands() if _or_differs_from_xor(valid_terms(op))
    ]
    off_example = next(
        (signals for signals, terms in valuations if _or_differs_from_xor(terms)),
        None,
    )
    return SubstitutionSite(
        site=site,
        terms=term_names,
        or_equals_xor_on_valid=not counterexamples,
        first_valid_counterexample=counterexamples[0] if counterexamples else None,
        valid_counterexample_count=len(counterexamples),
        diverges_off_domain=off_example is not None,
        off_domain_example=off_example,
    )


def _detection_site(
    site: str,
    term_names: tuple[str, ...],
    terms: Callable[[int, int], tuple[int, int, int]],
) -> SubstitutionSite:
    """Audit one decimal-carry condition set over the conventional stage."""

    def valid_terms(op: BcdOperands) -> tuple[int, ...]:
        _, trace = conventional_add(op)
        return terms(trace.k, trace.z)

    valuations = (
        ((("k", k), ("z", z)), terms(k, z)) for k in (0, 1) for z in range(16)
    )
    return _audit_terms(site, term_names, valid_terms, valuations)


def xor_substitution_audit() -> tuple[SubstitutionSite, ...]:
    """Audit each OR combination point the designs replace with XOR.

    Three sites are audited: the decimal-carry detection layer with its
    exclusive condition set, the same layer with the textbook non-exclusive
    condition set (the negative control, which genuinely breaks), and the
    carry-skip selection point.  Off-domain behavior is measured by letting
    the underlying term signals range over every combination, including
    those no valid digit pair can produce.
    """

    def mux_valid(op: BcdOperands) -> tuple[int, ...]:
        _, signals = carry_skip_add(op)
        return (
            signals.big_p & op.cin,
            (signals.big_p ^ 1) & signals.c4,
        )

    mux_all = (
        ((("big_p", bp), ("cin", cin), ("c4", c4)), (bp & cin, (bp ^ 1) & c4))
        for bp in (0, 1)
        for cin in (0, 1)
        for c4 in (0, 1)
    )
    return (
        _detection_site(
            "decimal_carry_detection", ("k", "z3&z2", "z3&~z2&z1"), detection_terms
        ),
        _detection_site("naive_detection", ("k", "z3&z2", "z3&z1"), naive_detection_terms),
        _audit_terms(
            "skip_mux_select", ("big_p&cin", "~big_p&c4"), mux_valid, mux_all
        ),
    )


# ----------------------------------------------------------------------
# cost comparison
# ----------------------------------------------------------------------


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
                delta = f"{row.gates - target_gates:+d}/{row.garbage - target_garbage:+d}"
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
