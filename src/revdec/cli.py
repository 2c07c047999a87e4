"""Command-line interface for the adder kit.

Exit codes: 0 on success, 1 when a verification sweep finds disagreements
that count as failures, 2 for usage or input problems (bad digits, missing
files, malformed definitions).  Setting the ``REVDEC_GATE_DEFS``
environment variable to a gate-definition text file substitutes those
tables for the built-in ones in every command that touches gates, which
allows re-measured gate behavior to be dropped in without code changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Sequence

from .classical import (
    ARCHITECTURES,
    BcdOperands,
    BcdResult,
    InvalidBcd,
    LengthMismatch,
    decimal_add,
)
from .gates import UnknownGate, catalog_from_env
from .verification import (
    cla_agreement,
    cla_errata,
    cost_delta,
    table1_report,
    verify_architecture,
    xor_substitution_audit,
)

__all__ = ["main", "main_entry"]


def _parse_digit_pair(text: str) -> tuple[list[int], list[int]]:
    """Split ``"123,45"`` into equal-width little-endian digit lists."""
    parts = text.split(",")
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(
            f"--digits expects two comma-separated decimal numbers, got {text!r}"
        )
    width = max(len(p) for p in parts)
    padded = [p.zfill(width) for p in parts]
    return tuple([int(c) for c in reversed(p)] for p in padded)  # type: ignore[return-value]


def _assignments(pairs: Iterable[tuple[str, object]]) -> str:
    """``name=value`` for each pair, joined by spaces."""
    return " ".join(f"{name}={value}" for name, value in pairs)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.digits is not None:
        for flag, given in (("--a", args.a is not None), ("--b", args.b is not None),
                            ("--trace", args.trace)):
            if given:
                print(f"error: --digits cannot be combined with {flag}", file=sys.stderr)
                return 2
        x_digits, y_digits = _parse_digit_pair(args.digits)
        # As in verify, only a row with a build reads the catalog.
        catalog = catalog_from_env() if ARCHITECTURES[args.arch].build else None
        digits, cout = decimal_add(x_digits, y_digits, args.cin, args.arch, catalog)
        # One hex nibble per digit keeps a sum digit above 9, which only a
        # non-faithful gate catalog gives, inside its own place.
        rendered = "".join(f"{d:X}" for d in reversed(digits))
        print(f"sum={rendered} cout={cout}")
        return 0
    if args.a is None or args.b is None:
        print("error: provide --a and --b (or --digits)", file=sys.stderr)
        return 2
    op = BcdOperands(args.a, args.b, args.cin)
    arch = ARCHITECTURES[args.arch]
    if arch.build is not None:
        from .reversible import input_pattern

        build = arch.build(catalog_from_env())
        primary, _, steps = build.netlist.simulate_trace(input_pattern(op))
        if args.trace:
            for step in steps:
                print(f"g{step.index} {step.gate_name}: "
                      f"{_assignments(step.inputs)} -> {_assignments(step.outputs)}")
        result = BcdResult.from_code(primary.value)
    else:
        result, signals = arch.model(op)
        if args.trace:
            print(_assignments((n, getattr(signals, n)) for n in signals.__match_args__))
    print(f"sum={result.sum} cout={result.cout}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    archs = (
        ARCHITECTURES.values() if args.arch == "all" else (ARCHITECTURES[args.arch],)
    )
    # Gate-free rows never read the catalog, so a bad REVDEC_GATE_DEFS
    # fails only a sweep that builds a netlist, and fails it before any output.
    catalog = catalog_from_env() if any(arch.build for arch in archs) else None
    failed = False
    reports, lines = [], []
    for arch in archs:
        report = verify_architecture(arch.name, catalog)
        reports.append(report)
        ok = report.total - len(report.mismatches)
        line = f"{arch.name}: {ok}/{report.total}"
        if report.metrics is not None:
            line += f" [{_assignments(report.metrics.as_dict().items())}]"
        if report.passed:
            line += " PASS"
        elif not arch.exact and not args.strict:
            line += " agreement={:.3f} (documented errata; not a failure)".format(
                report.agreement
            )
        else:
            line += " FAIL"
            failed = True
        lines.append(line)
    # The report prints only once its --json file is written, so a failed
    # write leaves stdout empty.
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([r.to_json_dict() for r in reports], handle, indent=2)
    print(*lines, sep="\n")
    return 1 if failed else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if not args.arch and not args.table1:
        print("error: provide --arch and/or --table1", file=sys.stderr)
        return 2
    catalog = catalog_from_env()
    if args.arch:
        build = ARCHITECTURES[args.arch].build(catalog)
        m = build.metrics
        target_gates, target_garbage = build.target
        print(
            f"arch={args.arch} {_assignments(m.as_dict().items())} "
            f"fidelity={build.figure_fidelity} target={target_gates}/{target_garbage} "
            f"delta={cost_delta(m.gate_count, m.garbage_count, build.target)}"
        )
    if args.table1:
        print(table1_report(catalog).render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    catalog = catalog_from_env()
    build = ARCHITECTURES[args.arch].build(catalog)
    text = (
        build.netlist.to_json()
        if args.format == "json"
        else build.netlist.to_dot()
    )
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


def _cmd_truthtable(args: argparse.Namespace) -> int:
    catalog = catalog_from_env()
    gate = catalog.get(args.gate.upper())
    if gate is None:
        raise UnknownGate(
            f"unknown gate {args.gate!r}; available: {', '.join(sorted(catalog))}"
        )
    print(f"gate {gate.name} width {gate.width}")
    for pattern in range(1 << gate.width):
        in_bits = "".join(str((pattern >> i) & 1) for i in range(gate.width))
        out = gate.table[pattern]
        out_bits = "".join(str((out >> i) & 1) for i in range(gate.width))
        print(f"{in_bits} -> {out_bits}")
    return 0


def _cmd_errata(args: argparse.Namespace) -> int:
    report = verify_architecture("cla_verbatim")
    agreement = cla_agreement(report)
    entries = cla_errata(report)
    sites = xor_substitution_audit()
    first_by_equation = {e.equation: e for e in entries}
    lines = ["equation agreement over the 200 valid inputs:"]
    for name, (ok, total) in agreement.items():
        line = f"  {name}: {ok}/{total}"
        entry = first_by_equation.get(name)
        if entry is not None:
            line += (
                f"  first failure {_assignments(entry.first_failing_input.as_dict().items())}:"
                f" observed {entry.observed}, expected {entry.expected}"
            )
        lines.append(line)
    lines.append("or-to-xor substitution sites:")
    for site in sites:
        if site.or_equals_xor_on_valid:
            status = "exclusive on all valid inputs"
        else:
            cex = site.first_valid_counterexample.as_dict().items()
            status = (
                f"NOT exclusive: {site.valid_counterexample_count} valid inputs "
                f"disagree, first {_assignments(cex)}"
            )
        if site.diverges_off_domain:
            status += f"; off-domain divergence at {_assignments(site.off_domain_example)}"
        else:
            status += "; structurally exclusive (no divergence anywhere)"
        lines.append(f"  {site.site} [{' , '.join(site.terms)}]: {status}")
    # As in verify, a failed --json write leaves stdout empty.
    if args.json is not None:
        doc = {
            "agreement": {
                name: {"ok": ok, "total": total}
                for name, (ok, total) in agreement.items()
            },
            "errata": [
                {
                    "equation": e.equation,
                    "first_failing_input": e.first_failing_input.as_dict(),
                    "observed": e.observed,
                    "expected": e.expected,
                }
                for e in entries
            ],
            "substitution_sites": [s.to_json_dict() for s in sites],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
    print(*lines, sep="\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    netlist_archs = [name for name, arch in ARCHITECTURES.items() if arch.build]
    parser = argparse.ArgumentParser(
        prog="revdec",
        description="Simulate, verify, measure and export the BCD adder designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="add two digits (or digit strings)")
    p_sim.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p_sim.add_argument("--a", type=int, default=None, help="first digit (0..9)")
    p_sim.add_argument("--b", type=int, default=None, help="second digit (0..9)")
    p_sim.add_argument("--cin", type=int, default=0, choices=(0, 1))
    p_sim.add_argument(
        "--digits",
        default=None,
        metavar="X,Y",
        help="two multi-digit decimal numbers (exact architectures only); "
        "each sum digit prints as one hex digit, so a digit above 9 shows as A-F",
    )
    p_sim.add_argument(
        "--trace", action="store_true", help="print intermediate signals or gate steps"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="exhaustive sweep against the oracle")
    p_verify.add_argument("--arch", default="all", choices=(*ARCHITECTURES, "all"))
    p_verify.add_argument("--json", default=None, help="write the reports to a file")
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="count the documented verbatim-equation errata as failures",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_metrics = sub.add_parser("metrics", help="cost figures for the netlist builds")
    p_metrics.add_argument("--arch", default=None, choices=netlist_archs)
    p_metrics.add_argument(
        "--table1", action="store_true", help="print the full cost comparison"
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_export = sub.add_parser("export", help="write a build as JSON or DOT")
    p_export.add_argument("--arch", required=True, choices=netlist_archs)
    p_export.add_argument("--format", required=True, choices=("json", "dot"))
    p_export.add_argument("--out", required=True, help="output path, or - for stdout")
    p_export.set_defaults(func=_cmd_export)

    p_table = sub.add_parser("truthtable", help="print a gate's permutation table")
    p_table.add_argument("--gate", required=True, help="gate name (catalog-aware)")
    p_table.set_defaults(func=_cmd_truthtable)

    p_errata = sub.add_parser(
        "errata", help="equation errata and the or-to-xor substitution audit"
    )
    p_errata.add_argument("--json", default=None, help="write the findings to a file")
    p_errata.set_defaults(func=_cmd_errata)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidBcd, LengthMismatch) as exc:
        print(f"error: invalid BCD digit ({exc})", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # every revdec error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
