"""Acceptance gate: one verdict line per shipped guarantee.

Each test exercises one end-to-end guarantee, records a single
``CRITERION n (...): PASS|FAIL`` line through the conftest registry and
then asserts it.  Timed criteria measure their own work with
``time.perf_counter`` and fail when over budget, so a slow machine shows
up as an honest red rather than a silent regression.
"""

from __future__ import annotations

import copy
import random
import time
from collections import Counter

from conftest import equation_bit, gate_outputs, record_criterion

from revdec import classical
from revdec.classical import (
    ARCHITECTURES,
    CLA_VERBATIM,
    cla_add,
    decimal_add,
    oracle,
)
from revdec.gates import builtin_catalog
from revdec.netlist import Netlist
from revdec.reversible import (
    FIDELITY_RECONSTRUCTED,
    build_carry_skip_reversible,
    build_conventional_reversible,
)
from revdec.verification import (
    EQUATION_NAMES,
    cla_agreement,
    cla_errata,
    table1_report,
    verify_architecture,
    xor_substitution_audit,
)


def _verdict(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    record_criterion(f"CRITERION {number} ({name}): {status}{suffix}")


def _gate_checks_ok() -> bool:
    ok = True
    catalog = builtin_catalog()
    for gate in catalog.values():
        ok &= sorted(gate.table) == list(range(1 << gate.width))
    for pattern in range(8):
        x, y, cin = pattern & 1, (pattern >> 1) & 1, (pattern >> 2) & 1
        total = x + y + cin
        _, _, s, cout = gate_outputs(catalog["TSG"], x, y, 0, cin)
        ok &= (s, cout) == (total & 1, total >> 1)
    ts3 = catalog["TS3"]
    for pattern in range(8):
        bits = [(pattern >> i) & 1 for i in range(3)]
        ok &= (ts3.table[pattern] >> 2) & 1 == bits[0] ^ bits[1] ^ bits[2]
    return ok


def test_criterion_1_gate_validity():
    _gate_checks_ok()  # warm-up so imports and caches stay out of the timing
    best = float("inf")
    ok = True
    for _ in range(3):
        start = time.perf_counter()
        ok = _gate_checks_ok()
        best = min(best, time.perf_counter() - start)
    ok = ok and best < 1e-3
    _verdict(1, "gate validity", ok, f"best {best * 1e3:.3f} ms")
    assert ok, f"gate checks ok={ok} best={best * 1e3:.3f} ms (budget 1 ms)"


def test_criterion_2_single_digit_correctness():
    classical._corrected_lanes.cache_clear()
    architectures = (
        "conventional",
        "cla_corrected",
        "carry_skip",
        "rev_conventional",
        "rev_carry_skip",
    )
    start = time.perf_counter()
    reports = [verify_architecture(arch) for arch in architectures]
    elapsed = time.perf_counter() - start
    exact = all(r.total == 200 and not r.mismatches for r in reports)
    ok = exact and elapsed < 1.0
    _verdict(2, "single-digit correctness", ok, f"{elapsed:.3f} s")
    assert ok, [(r.architecture, len(r.mismatches)) for r in reports] + [elapsed]


def test_criterion_3_reversibility():
    builds = (build_conventional_reversible(), build_carry_skip_reversible())
    start = time.perf_counter()
    injective = all(b.netlist.check_injective() is None for b in builds)
    elapsed = time.perf_counter() - start
    fanout_ok = True
    for build in builds:
        consumers: Counter[str] = Counter()
        for inst in build.netlist.gates:
            consumers.update(inst.input_wires)
        consumers.update(decl.wire for decl in build.netlist.outputs)
        fanout_ok &= all(count <= 1 for count in consumers.values())
    ok = injective and fanout_ok and elapsed < 1.0
    _verdict(3, "reversibility", ok, f"{elapsed:.3f} s")
    assert ok, (injective, fanout_ok, elapsed)


def test_criterion_4_cost_table():
    rows = {row.label: row for row in table1_report().rows}
    baseline = rows["baseline"]
    conventional = rows["rev_conventional"]
    carry_skip = rows["rev_carry_skip"]
    ok = (baseline.gates, baseline.garbage) == (23, 22)
    ok &= baseline.target is None  # quoted constants, not a measurement
    ok &= conventional.target == (11, 22)
    ok &= carry_skip.target == (15, 27)
    ok &= conventional.gates < 23
    ok &= conventional.fidelity == carry_skip.fidelity == FIDELITY_RECONSTRUCTED
    # Reconstructed wirings report their deltas instead of matching targets.
    rendered = table1_report().render()
    ok &= "-2/-9" in rendered and "+2/-6" in rendered
    _verdict(4, "cost table reproduction", ok)
    assert ok, rows


def test_criterion_5_printed_equation_audit():
    agreement = cla_agreement()
    entries = cla_errata()
    ok = set(agreement) == set(EQUATION_NAMES)
    ok &= all(total == 200 for _, total in agreement.values())
    failing = {entry.equation for entry in entries}
    ok &= "S0_VERBATIM" not in failing and "COUT_VERBATIM" not in failing
    for entry in entries:
        op = entry.first_failing_input
        observed = equation_bit(cla_add(op, CLA_VERBATIM), entry.equation)
        expected = equation_bit(oracle(op), entry.equation)
        ok &= observed == entry.observed
        ok &= expected == entry.expected
        ok &= observed != expected
    _verdict(5, "printed-equation audit", ok)
    assert ok, (agreement, entries)


def test_criterion_6_or_to_xor_substitution():
    sites = {site.site: site for site in xor_substitution_audit()}
    detection = sites["decimal_carry_detection"]
    mux = sites["skip_mux_select"]
    naive = sites["naive_detection"]
    ok = detection.or_equals_xor_on_valid and mux.or_equals_xor_on_valid
    counterexample = naive.first_valid_counterexample
    ok &= not naive.or_equals_xor_on_valid and counterexample is not None
    if counterexample is not None:
        total = counterexample.a + counterexample.b + counterexample.cin
        ok &= total == 14
    _verdict(6, "or-to-xor substitution", ok)
    assert ok, sites


def _as_digits(value: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        value, digit = divmod(value, 10)
        digits.append(digit)
    return digits


def test_criterion_7_multi_digit_property(monkeypatch):
    # Fresh rows and builds: the timing includes filling every digit table.
    classical._cached_build.cache_clear()
    exact = [name for name, row in ARCHITECTURES.items() if row.exact]
    for arch in exact:
        monkeypatch.setitem(ARCHITECTURES, arch, copy.copy(ARCHITECTURES[arch]))
    rng = random.Random(20260814)
    ok = True
    start = time.perf_counter()
    for width in (1, 7, 16, 34):
        bound = 10**width
        for arch in exact:
            for _ in range(1000):
                x = rng.randrange(bound)
                y = rng.randrange(bound)
                cin = rng.randint(0, 1)
                digits, cout = decimal_add(
                    _as_digits(x, width), _as_digits(y, width), cin, arch
                )
                value = 0
                for digit in reversed(digits):
                    value = value * 10 + digit
                if value + cout * bound != x + y + cin:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(7, "multi-digit property", ok, f"{elapsed:.3f} s")
    assert ok, elapsed


def test_criterion_8_serialization_round_trip():
    ok = True
    for build in (build_conventional_reversible(), build_carry_skip_reversible()):
        ok &= Netlist.from_json(build.netlist.to_json()) == build.netlist
    _verdict(8, "serialization round-trip", ok)
    assert ok
