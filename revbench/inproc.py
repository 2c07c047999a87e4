"""In-process workloads, run one at a time in a fresh worker interpreter.

Usage (the benchmark's ``run.py`` starts these; one caller, one process)::

    python3 revbench/inproc.py --seed N --setup-only WORKLOAD
    python3 revbench/inproc.py --seed N --run WORKLOAD:SECONDS [WORKLOAD:SECONDS ...]
    python3 revbench/inproc.py --seed N --trace WORKLOAD

The worker prints ``READY`` once the first workload is set up (the parent
times interpreter start to that line as set-up time), then one JSON line.
Every batch is timed around the package calls only; its outputs are checked
against integer arithmetic or the built-in builds after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import common
from common import DECIMAL_ARCHS, DECIMAL_WIDTHS, REV_ARCHS, add_oracle, digits_le

common.require_source()
sys.path.insert(0, str(common.SRC))

from revdec.classical import (  # noqa: E402
    CLA_CORRECTED,
    CLA_VERBATIM,
    BcdOperands,
    BcdResult,
    carry_skip_add,
    cla_add,
    conventional_add,
    decimal_add,
    oracle,
    valid_operands,
)
from revdec.gates import builtin_catalog, parse_gate_defs  # noqa: E402
from revdec.netlist import Netlist  # noqa: E402
from revdec.reversible import (  # noqa: E402
    build_carry_skip_reversible,
    build_conventional_reversible,
    decode_primary,
    input_pattern,
    simulate_digit_add,
)
from revdec.verification import verify_architecture  # noqa: E402

# Gate and garbage counts of the two builds (the cost table's measured rows).
EXPECTED_COSTS = {"rev_conventional": (9, 13), "rev_carry_skip": (17, 21)}
ARCH_OF_NETLIST = {"bcd_adder_conventional": "rev_conventional",
                   "bcd_adder_carry_skip": "rev_carry_skip"}
CHAIN_DIGITS = 34


def build(arch: str, catalog=None):
    if arch == "rev_conventional":
        return build_conventional_reversible(catalog)
    return build_carry_skip_reversible(catalog)


def expect(op: BcdOperands, wrong: bool) -> BcdResult:
    """The oracle's digit result; ``wrong`` perturbs it to prove checks bite."""
    result = oracle(op)
    return BcdResult((result.sum + 1) % 10, result.cout) if wrong else result


# ----------------------------------------------------------------------
# one operation of each workload (module-level so a traced run can wrap it)
# ----------------------------------------------------------------------


def sweep_build(arch: str, adder):
    """Exhaustive sweeps of one build: injectivity over 512 patterns, oracle over 200."""
    return adder.netlist.check_injective(), verify_architecture(arch)


def chain_add(adder, x_digits, y_digits, cin):
    """A multi-digit addition rippled digit by digit through one netlist."""
    carry = cin
    out = []
    for x, y in zip(x_digits, y_digits):
        result = simulate_digit_add(adder, BcdOperands(x, y, carry))
        out.append(result.sum)
        carry = result.cout
    return out, carry


def roundtrip(text: str, operands):
    """Catalog text -> both builds -> JSON -> parsed netlist -> metrics, DOT, one digit."""
    catalog = parse_gate_defs(text)
    out = []
    for arch, op in zip(REV_ARCHS, operands):
        adder = build(arch, catalog)
        parsed = Netlist.from_json(adder.netlist.to_json())
        metrics = parsed.metrics()
        dot = parsed.to_dot()
        primary, _ = parsed.simulate(input_pattern(op))
        out.append((arch, adder.netlist, parsed, metrics, dot, op,
                    decode_primary(adder, primary)))
    return out


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class NetlistSweep:
    """Netlist evaluation: exhaustive sweeps and seeded 34-digit chains."""

    CHAINS = 4  # chained additions per build in one batch
    unit = "patterns"

    def __init__(self, seed: int, wrong: bool) -> None:
        self.wrong = wrong
        self.adders = {arch: build(arch) for arch in REV_ARCHS}
        rng = common.rng_for("netlist_sweep", seed)
        self.pool = []
        for _ in range(64):
            x = common.random_number(rng, CHAIN_DIGITS)
            y = common.random_number(rng, CHAIN_DIGITS)
            self.pool.append((x, y, rng.randrange(2), digits_le(x, CHAIN_DIGITS),
                              digits_le(y, CHAIN_DIGITS)))
        self.next = 0
        self.work = len(REV_ARCHS) * (512 + 200 + self.CHAINS * CHAIN_DIGITS)
        self.ops = len(REV_ARCHS) * (1 + self.CHAINS)

    def batch(self):
        out = [(arch, sweep_build(arch, adder)) for arch, adder in self.adders.items()]
        for _ in range(self.CHAINS):
            item = self.pool[self.next % len(self.pool)]
            self.next += 1
            for adder in self.adders.values():
                out.append((item, chain_add(adder, item[3], item[4], item[2])))
        return out

    def check(self, out) -> int:
        failed = 0
        for arch, (collision, report) in out[:len(REV_ARCHS)]:
            gates = report.metrics.gate_count + (1 if self.wrong else 0)
            if (collision is not None or not report.passed or report.total != 200
                    or (gates, report.metrics.garbage_count) != EXPECTED_COSTS[arch]):
                failed += 1
        for (x, y, cin, _, _), result in out[len(REV_ARCHS):]:
            if tuple(result) != tuple(add_oracle(x, y, cin, CHAIN_DIGITS, self.wrong)):
                failed += 1
        return failed


class NetlistRoundtrip:
    """Catalog parsing, construction, validation and serialisation; one digit each."""

    ROUNDTRIPS = 10  # per batch
    unit = "roundtrips"

    def __init__(self, seed: int, wrong: bool) -> None:
        self.wrong = wrong
        self.text = common.GATE_DEFS.read_text(encoding="utf-8")
        self.reference = {arch: build(arch).netlist for arch in REV_ARCHS}
        self.reference_dot = {arch: net.to_dot() for arch, net in self.reference.items()}
        rng = common.rng_for("netlist_roundtrip", seed)
        operands = list(valid_operands())
        self.pool = [tuple(rng.choice(operands) for _ in REV_ARCHS) for _ in range(64)]
        self.next = 0
        self.work = self.ops = self.ROUNDTRIPS

    def batch(self):
        out = []
        for _ in range(self.ROUNDTRIPS):
            out.append(roundtrip(self.text, self.pool[self.next % len(self.pool)]))
            self.next += 1
        return out

    def check(self, out) -> int:
        failed = 0
        for rows in out:
            ok = len(rows) == len(REV_ARCHS)
            for arch, built, parsed, metrics, dot, op, result in rows:
                ok = ok and (built == self.reference[arch] and parsed == built
                             and (metrics.gate_count, metrics.garbage_count)
                             == EXPECTED_COSTS[arch]
                             and dot == self.reference_dot[arch]
                             and result == expect(op, self.wrong))
            failed += not ok
        return failed


class DecimalChain:
    """Seeded decimal32/64/128-width additions through the classical chain."""

    ADDS = 300  # per width and architecture in one batch
    unit = "digits"

    def __init__(self, seed: int, wrong: bool) -> None:
        rng = common.rng_for("decimal_chain", seed)
        self.items = []
        self.expected = []
        for width in DECIMAL_WIDTHS:
            for arch in DECIMAL_ARCHS:
                for _ in range(self.ADDS):
                    x = common.random_number(rng, width)
                    y = common.random_number(rng, width)
                    cin = rng.randrange(2)
                    self.items.append((digits_le(x, width), digits_le(y, width), cin, arch))
                    self.expected.append(add_oracle(x, y, cin, width, wrong))
        self.work = sum(len(item[0]) for item in self.items)
        self.ops = len(self.items)
        self.batch()  # first use derives the covers and fills the digit cache

    def batch(self):
        return [decimal_add(x, y, cin, arch) for x, y, cin, arch in self.items]

    def check(self, out) -> int:
        return sum(1 for got, want in zip(out, self.expected)
                   if (list(got[0]), got[1]) != (want[0], want[1]))


WORKLOADS = {"netlist_sweep": NetlistSweep, "netlist_roundtrip": NetlistRoundtrip,
             "decimal_chain": DecimalChain}


def run_batches(workload, seconds: float) -> dict:
    """Time batches for ``seconds``, each between two reference timings.

    The outputs of each batch are checked after its clock stops.
    """
    paired = common.Paired(common.reference_s)
    attempted = failed = 0
    end = time.perf_counter() + seconds
    while len(paired.samples) < 3 or time.perf_counter() < end:
        attempted += workload.ops
        try:
            start = time.perf_counter()
            out = workload.batch()
            paired.add(time.perf_counter() - start)
            failed += workload.check(out)
        except Exception:  # a failing operation is counted, and the run goes on
            traceback.print_exc()
            failed += workload.ops
            if not paired.samples:
                raise
    return {"batch_s": paired.samples, "ratio": paired.ratios(), "work": workload.work,
            "unit": workload.unit, "ops_per_batch": workload.ops,
            "attempted": attempted, "failed": failed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# traced run: spans around every call into a layer
# ----------------------------------------------------------------------


def _arch_of(net) -> str:
    return ARCH_OF_NETLIST.get(net.name, net.name)


def _count_pattern(counts, result, net, *args) -> None:
    counts["count.patterns"] += 1
    counts["count.gate_evals"] += len(net.gates)


def _count_sweep(counts, result, net, *args) -> None:
    patterns = 1 << len(net.primary_input_wires())
    counts["count.patterns"] += patterns
    counts["count.gate_evals"] += patterns * len(net.gates)


def _count_digit(counts, result, *args) -> None:
    counts["count.digit_adds"] += 1


def _count_digits(counts, result, x_digits, *args) -> None:
    counts["count.digit_adds"] += len(x_digits)


def _count_verified(counts, report, *args) -> None:
    counts["count.digit_adds"] += report.total


def install_spans(tracer) -> None:
    """Wrap every package function the workloads and the layer pass call."""
    here = sys.modules[__name__]
    tracer.wrap(here, "conventional_add", "classical.digit_add_us.conventional",
                _count_digit)
    tracer.wrap(here, "carry_skip_add", "classical.digit_add_us.carry_skip", _count_digit)
    tracer.wrap(here, "cla_add",
                lambda op, variant=CLA_CORRECTED: f"classical.digit_add_us.cla_{variant}",
                _count_digit)
    tracer.wrap(here, "decimal_add", lambda x, *a: f"classical.decimal_add_us.w{len(x)}",
                _count_digits)
    tracer.wrap(here, "build_conventional_reversible", "reversible.build_us.rev_conventional")
    tracer.wrap(here, "build_carry_skip_reversible", "reversible.build_us.rev_carry_skip")
    tracer.wrap(here, "simulate_digit_add",
                lambda adder, op: f"reversible.simulate_digit_add_us.{_arch_of(adder.netlist)}",
                _count_digit)
    tracer.wrap(here, "verify_architecture",
                lambda arch, *a: f"verification.verify_architecture.{arch}", _count_verified)
    tracer.wrap(here, "parse_gate_defs", "gates.parse_gate_defs_us")
    tracer.wrap(Netlist, "simulate", lambda net, x: f"netlist.simulate_us.{_arch_of(net)}",
                _count_pattern)
    tracer.wrap(Netlist, "validate", lambda net: f"netlist.validate_us.{_arch_of(net)}")
    tracer.wrap(Netlist, "check_injective",
                lambda net: f"netlist.check_injective_s.{_arch_of(net)}", _count_sweep)
    tracer.wrap(Netlist, "to_json", lambda net, *a: f"netlist.to_json.{_arch_of(net)}")
    tracer.wrap(Netlist, "to_dot", lambda net: f"netlist.to_dot.{_arch_of(net)}")
    tracer.wrap(Netlist, "metrics", lambda net: f"netlist.metrics.{_arch_of(net)}")
    tracer.wrap(Netlist, "from_json", lambda cls, text: "netlist.from_json." + next(
        (arch for name, arch in ARCH_OF_NETLIST.items() if f'"{name}"' in text), "other"))
    for name in ("sweep_build", "chain_add"):
        tracer.wrap(here, name, "op.netlist_sweep")
    tracer.wrap(here, "roundtrip", "op.netlist_roundtrip")


def layer_pass(seed: int, wrong: bool) -> tuple[int, int]:
    """A fixed set of calls into every layer; returns (attempted, failed)."""
    attempted = failed = 0

    def tally(ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += not ok

    operands = list(valid_operands())
    for op in operands:
        want = expect(op, wrong)
        tally(conventional_add(op)[0] == want)
        tally(cla_add(op, CLA_VERBATIM).cout == want.cout)  # its sum bits have errata
        tally(cla_add(op) == want)
        tally(carry_skip_add(op)[0] == want)
    rng = common.rng_for("layers", seed)
    for width in DECIMAL_WIDTHS:
        for arch in DECIMAL_ARCHS:
            for _ in range(20):
                x, y = common.random_number(rng, width), common.random_number(rng, width)
                cin = rng.randrange(2)
                got = decimal_add(digits_le(x, width), digits_le(y, width), cin, arch)
                tally((got[0], got[1]) == add_oracle(x, y, cin, width, wrong))
    text = common.GATE_DEFS.read_text(encoding="utf-8")
    builtins = builtin_catalog()
    for _ in range(20):
        tally(parse_gate_defs(text) == builtins)
    adders = {}
    for arch in REV_ARCHS:
        for _ in range(20):
            adders[arch] = build(arch)
            m = adders[arch].metrics
            tally((m.gate_count + wrong, m.garbage_count) == EXPECTED_COSTS[arch])
    for arch, adder in adders.items():
        for op in operands:
            tally(simulate_digit_add(adder, op) == expect(op, wrong))
        for _ in range(2):
            tally(adder.netlist.check_injective() is None)
        for _ in range(20):
            parsed = Netlist.from_json(adder.netlist.to_json())
            m = parsed.metrics()
            dot = parsed.to_dot()
            tally(parsed == adder.netlist and dot.startswith("digraph")
                  and (m.gate_count + wrong, m.garbage_count) == EXPECTED_COSTS[arch])
    return attempted, failed


def traced(workload_name: str, seed: int, wrong: bool) -> dict:
    """Layer pass under spans, plus the workload's own batches with spans off and on."""
    from tracer import Tracer

    for op in valid_operands():  # warm digit cache, as in any multi-digit caller
        for arch in DECIMAL_ARCHS:
            decimal_add([op.a], [op.b], op.cin, arch)
    tracer = Tracer()
    install_spans(tracer)
    attempted, failed = layer_pass(seed, wrong)
    tracer.unwrap()
    overhead = None
    if workload_name in WORKLOADS:
        workload = WORKLOADS[workload_name](seed, wrong)
        plain, spanned = [], []
        for _ in range(5):
            for spans_on, times in ((False, plain), (True, spanned)):
                if spans_on:
                    install_spans(tracer)
                start = time.perf_counter()
                out = workload.batch()
                times.append(time.perf_counter() - start)
                tracer.unwrap()
                attempted += workload.ops
                failed += workload.check(out)
        overhead = {"untraced_s": statistics.median(plain),
                    "traced_s": statistics.median(spanned)}
    return {"spans": tracer.spans, "counts": dict(tracer.counts), "overhead": overhead,
            "attempted": attempted, "failed": failed}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wrong-expected", action="store_true")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", choices=WORKLOADS)
    mode.add_argument("--run", nargs="+", metavar="WORKLOAD:SECONDS")
    mode.add_argument("--trace", choices=common.WORKLOADS)
    args = parser.parse_args()
    if args.trace:
        print("READY", flush=True)
        print(json.dumps(traced(args.trace, args.seed, args.wrong_expected)))
        return
    parts = [(args.setup_only, 0.0)] if args.setup_only else [
        (name, float(seconds)) for name, seconds in (p.split(":") for p in args.run)]
    results = {}
    for i, (name, seconds) in enumerate(parts):
        workload = WORKLOADS[name](args.seed, args.wrong_expected)
        if i == 0:
            print("READY", flush=True)
        if not args.setup_only:
            results[name] = run_batches(workload, seconds)
    print(json.dumps({"parts": results, "peak_rss_mb": peak_rss_mb()}))


if __name__ == "__main__":
    main()
