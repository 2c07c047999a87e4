"""Traced cold probes: one fresh interpreter per call, spans in its JSON output.

    python3 revbench/probe.py cli NAME --seed N [--wrong-expected]
    python3 revbench/probe.py firstcall [--wrong-expected]

``cli`` times ``import revdec.cli``, then runs ``revdec.cli.main`` on one of
the benchmark's cold commands with spans around the public functions the CLI
calls, and compares the captured stdout and exit code with the expected
ones.  ``firstcall`` times the first corrected carry-look-ahead addition of a
process (which derives its covers) and, separately, the five ``derive_sop``
calls over the 200 care inputs and 312 don't-cares.  The package is imported
before anything else, so no benchmark import hides part of its cost.
"""

import sys
import time

_start = time.perf_counter()
if sys.argv[1:2] == ["cli"]:
    import revdec.cli as cli_module
else:
    import revdec.classical  # noqa: F401
_imported = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import common  # noqa: E402
from tracer import Tracer  # noqa: E402


def probe_cli(name: str, seed: int, wrong: bool) -> dict:
    tracer = Tracer()
    tracer.spans.append([1, 0, None, "cli.import_s", _start, _imported])
    tracer.op = 1
    argv, want_code, want_stdout = common.cli_commands(seed, wrong)[name]
    cli = cli_module
    tracer.wrap(cli, "verify_architecture", lambda arch, *a: f"verification.verify_s.{arch}")
    tracer.wrap(cli, "cla_agreement", "verification.cla_agreement_s")
    tracer.wrap(cli, "cla_errata", "verification.cla_errata_s")
    tracer.wrap(cli, "xor_substitution_audit", "verification.xor_audit_s")
    tracer.wrap(cli, "table1_report", "verification.table1_s")
    tracer.wrap(cli, "decimal_add", "classical.decimal_add")
    tracer.wrap(cli, "catalog_from_env", "gates.catalog_from_env")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = tracer.call(f"cli.main_s.{name}", cli.main, argv)
    tracer.unwrap()
    ok = code == want_code and buffer.getvalue() == want_stdout
    return {"spans": tracer.spans, "ok": ok}


def probe_first_call(wrong: bool) -> dict:
    from revdec.classical import BcdOperands, BcdResult, cla_add, oracle, valid_operands
    from revdec.reversible import input_pattern
    from revdec.sop import derive_sop, eval_sop

    tracer = Tracer()
    op = BcdOperands(9, 6, 1)
    first = tracer.call("classical.cla_first_call_s", cla_add, op)
    want = oracle(op)
    if wrong:
        want = BcdResult((want.sum + 1) % 10, want.cout)
    ok = first == want

    # The five output columns of the digit adder over the 9-bit operand code.
    care, on_sets = {}, [[] for _ in range(5)]
    for op in valid_operands():
        x = int(input_pattern(op))
        result = oracle(op)
        care[x] = (*result.sum_bits(), result.cout)
        for column, bit in enumerate(care[x]):
            if bit:
                on_sets[column].append(x)
    dont_care = [x for x in range(1 << 9) if x not in care]

    def derive_all():
        return [derive_sop(9, on, dont_care) for on in on_sets]

    covers = tracer.call("sop.derive_sop_s", derive_all)
    ok = ok and len(care) == 200 and len(dont_care) == 312 and all(
        eval_sop(covers[column], x) == bits[column]
        for x, bits in care.items() for column in range(5))
    return {"spans": tracer.spans, "ok": ok,
            "cover_cubes": sum(len(cover) for cover in covers)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "firstcall"))
    parser.add_argument("name", nargs="?", choices=common.CLI_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args()
    if args.mode == "cli":
        result = probe_cli(args.name, args.seed, args.wrong_expected)
    else:
        result = probe_first_call(args.wrong_expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
