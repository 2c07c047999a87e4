"""The revdec benchmark: one command, four workloads, every output checked.

    python3 revbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It needs only the standard library and
the package source under ``src/``; without that source it exits with status
1 and prints no result.

Load model: one caller in a closed loop, one process at a time, no threads.
``cli_cold`` starts cold ``revdec`` processes one after another; the other
workloads run in a fresh worker interpreter (``inproc.py``).

``--trace 0`` measures the end-to-end metrics.  The workload itself runs for
``--seconds``; then a short fixed control pass measures the headline metrics
of the other workloads, so every run reports every end-to-end metric and a
change aimed at one layer shows as unchanged numbers on the workloads that
bypass it.  ``--trace 1`` is a separate run of fixed work with spans around
every call into a layer; it reports each layer's self time, exact counts and
the tracing overhead, and writes its spans to ``.bench_out/``.

The last line of stdout is the result object; the line before it is a
report with the environment, sample counts, tail percentiles and the bases
of every ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from collections import defaultdict

import common
from common import CLI_NAMES, INPROC_WORKLOADS, REV_ARCHS, WORKLOADS
from tracer import self_times

SETUP_REPS = 5          # set-ups per run; setup_s is their median
CONTROL_SECONDS = 2.5   # per in-process workload in the control pass ...
CONTROL_WORKERS = 2     # ... split over this many workers, as each process runs at its own speed
CLI_ROUNDS = 6          # rounds of the five cold commands per run ...
CLI_MIN_ROUNDS = 3      # ... or at least this many once CLI_MAX_SECONDS have passed,
CLI_MAX_SECONDS = 15.0  # so a slow host cannot stretch a run past its time limit
TRACE_REPS = 3          # traced cold probes per command, and first-call probes
FLOOR_REPS = 5          # cold `python -c pass` runs

END_TO_END = {
    "verify_cold_s": "s",
    "errata_cold_s": "s",
    "table1_cold_s": "s",
    "simulate_cold_s": "s",
    "simulate_digits_cold_s": "s",
    "sweep_patterns_per_s": "1/s",
    "roundtrips_per_s": "1/s",
    "decimal_digits_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Commands that derive the covers take about three times as long as the rest.
LONG_COMMANDS = ("verify", "simulate_digits")
THROUGHPUT = {"netlist_sweep": "sweep_patterns_per_s",
              "netlist_roundtrip": "roundtrips_per_s",
              "decimal_chain": "decimal_digits_per_s"}

ALL_ARCHS = ("conventional", "cla_verbatim", "cla_corrected", "carry_skip", *REV_ARCHS)
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.main_s.{name}": "s" for name in CLI_NAMES},
    "cli.startup_floor_s": "s",
    "sop.derive_sop_s": "s",
    "classical.cla_first_call_s": "s",
    **{f"classical.digit_add_us.{arch}": "us" for arch in ALL_ARCHS[:4]},
    **{f"classical.decimal_add_us.w{w}": "us" for w in common.DECIMAL_WIDTHS},
    **{f"reversible.build_us.{arch}": "us" for arch in REV_ARCHS},
    **{f"reversible.simulate_digit_add_us.{arch}": "us" for arch in REV_ARCHS},
    **{f"netlist.simulate_us.{arch}": "us" for arch in REV_ARCHS},
    **{f"netlist.validate_us.{arch}": "us" for arch in REV_ARCHS},
    **{f"netlist.check_injective_s.{arch}": "s" for arch in REV_ARCHS},
    "netlist.from_json_us": "us",
    "netlist.to_json_us": "us",
    "netlist.to_dot_us": "us",
    "netlist.metrics_us": "us",
    "gates.parse_gate_defs_us": "us",
    **{f"verification.verify_s.{arch}": "s" for arch in ALL_ARCHS},
    "verification.cla_agreement_s": "s",
    "verification.cla_errata_s": "s",
    "verification.xor_audit_s": "s",
    "verification.table1_s": "s",
    "count.patterns": "count",
    "count.gate_evals": "count",
    "count.digit_adds": "count",
    "count.commands": "count",
    "count.cover_cubes": "count",
    "trace.overhead_pct": "%",
}
# Serialisation metrics: the time for both builds, one call each.
SUMMED_OVER_BUILDS = ("from_json", "to_json", "to_dot", "metrics")


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start an in-process worker; return (seconds to READY, its JSON result)."""
    start = time.perf_counter()
    # Unbuffered bytes, so the READY line is read without swallowing the rest.
    proc = subprocess.Popen(python(str(common.BENCH / "inproc.py"), *args),
                            stdout=subprocess.PIPE, env=common.child_env(),
                            cwd=common.ROOT, bufsize=0)
    try:
        first = proc.stdout.readline().decode()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed with exit code {proc.returncode}")
    return ready, json.loads(rest.decode().splitlines()[-1])


def warm() -> None:
    """Untimed: let a fresh checkout write its bytecode caches first."""
    common.run_timed(python("-c", "import revdec.cli"))
    worker(["--seed", "0", "--setup-only", "netlist_roundtrip"], timeout=120)


def cli_loop(seed: int, wrong: bool, tally: Tally, rounds: int = CLI_ROUNDS,
             seconds: float = 0.0) -> dict[str, dict[str, list[float]]]:
    """Cold commands one at a time, each between two cold reference timings.

    Runs whole rounds, so every command gets the same number of samples,
    until ``rounds`` are done and ``seconds`` have passed, or until
    CLI_MAX_SECONDS past ``seconds`` once CLI_MIN_ROUNDS are done.  The
    seed orders the commands within each round, short ones first, so that
    neighbouring commands can share the reference run between them.
    """
    commands = common.cli_commands(seed, wrong)
    rng = common.rng_for("cli_order", seed)
    samples = {name: {"raw": [], "ratio": []} for name in CLI_NAMES}
    order = list(CLI_NAMES)
    start = time.perf_counter()
    done = 0
    while done < rounds or time.perf_counter() - start < seconds:
        if done >= CLI_MIN_ROUNDS and time.perf_counter() - start > seconds + CLI_MAX_SECONDS:
            break
        rng.shuffle(order)
        order.sort(key=lambda name: name in LONG_COMMANDS)
        previous = (None, 0.0)  # (size, time) of the reference just run
        for name in order:
            size = reference_size(name)
            before = previous[1] if previous[0] == size else common.cold_reference_s(size)
            argv, want_code, want_stdout = commands[name]
            wall, code, stdout = common.run_timed(common.cli_argv(argv))
            after = common.cold_reference_s(size)
            previous = (size, after)
            samples[name]["raw"].append(wall)
            samples[name]["ratio"].append(wall / ((before + after) / 2))
            tally.add(code == want_code and stdout == want_stdout)
        done += 1
    return samples


def reference_size(command: str) -> str:
    return "long" if command in LONG_COMMANDS else "short"


def cold_import(tally: Tally) -> float:
    wall, code, _ = common.run_timed(python("-c", "import revdec.cli"))
    tally.add(code == 0)
    return wall


def summary(samples: list[float], ratios: list[float], nominal: float) -> dict:
    """Raw samples and reference-speed samples (ratio x nominal), with tails."""
    return {"raw_s": common.tail(samples),
            "at_reference_speed_s": common.tail([r * nominal for r in ratios])}


def control_pass(seed_args: list[str], names: list[str]) -> dict[str, dict]:
    """Run each named in-process workload briefly, pooling batches over workers."""
    seconds = CONTROL_SECONDS / CONTROL_WORKERS
    parts = [f"{name}:{seconds}" for name in names]
    pooled: dict[str, dict] = {}
    for _ in range(CONTROL_WORKERS):
        _, result = worker(seed_args + ["--run", *parts], timeout=120)
        for name, part in result["parts"].items():
            if name not in pooled:
                pooled[name] = part
                continue
            for key in ("batch_s", "ratio"):
                pooled[name][key] += part[key]
            for key in ("attempted", "failed"):
                pooled[name][key] += part[key]
    return pooled


def timed_run(workload: str, seed: int, seconds: float, wrong: bool) -> tuple[dict, dict]:
    tally = Tally()
    seed_args = ["--seed", str(seed)] + (["--wrong-expected"] if wrong else [])
    warm()
    setups = common.Paired(common.cold_reference_s)
    if workload == "cli_cold":
        for _ in range(SETUP_REPS):
            setups.add(cold_import(tally))
        cold = cli_loop(seed, wrong, tally, seconds=seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        inproc = control_pass(seed_args, INPROC_WORKLOADS)
    else:
        for _ in range(SETUP_REPS - 1):
            setups.add(worker(seed_args + ["--setup-only", workload], timeout=120)[0])
        ready, own = worker(seed_args + ["--run", f"{workload}:{seconds}"],
                            timeout=seconds + 120)
        setups.add(ready)
        peak_rss = own["peak_rss_mb"]
        others = [name for name in INPROC_WORKLOADS if name != workload]
        inproc = {**control_pass(seed_args, others), **own["parts"]}
        cold = cli_loop(seed, wrong, tally)

    metrics: dict[str, dict] = {}
    report: dict[str, dict] = {}
    for name in CLI_NAMES:
        nominal = common.COLD_REFERENCE_NOMINAL_S[reference_size(name)]
        metrics[f"{name}_cold_s"] = common.median(cold[name]["ratio"]) * nominal
        report[f"{name}_cold_s"] = summary(cold[name]["raw"], cold[name]["ratio"], nominal)
    for name, metric in THROUGHPUT.items():
        part = inproc[name]
        tally.attempted += part["attempted"]
        tally.failed += part["failed"]
        ratios = part["ratio"]
        metrics[metric] = part["work"] / (common.median(ratios) * common.REFERENCE_NOMINAL_S)
        report[metric] = {
            "batch": summary(part["batch_s"], ratios, common.REFERENCE_NOMINAL_S),
            "base": {"work_per_batch": part["work"], "work_unit": part["unit"],
                     "ops_per_batch": part["ops_per_batch"]}}
    nominal = common.COLD_REFERENCE_NOMINAL_S["short"]
    metrics["setup_s"] = common.median(setups.ratios()) * nominal
    report["setup_s"] = summary(setups.samples, setups.ratios(), nominal)
    metrics["peak_rss_mb"] = peak_rss
    report["reference"] = {"cold_reference_nominal_s": common.COLD_REFERENCE_NOMINAL_S,
                           "reference_nominal_s": common.REFERENCE_NOMINAL_S}
    return ({name: {"value": metrics[name], "unit": unit}
             for name, unit in END_TO_END.items()}, {"stats": report, "tally": tally})


def _median_self(times: dict[str, list[float]], name: str) -> float:
    if not times.get(name):
        raise RuntimeError(f"the traced run recorded no span named {name!r}")
    return common.median(times[name])


def traced_run(workload: str, seed: int, wrong: bool) -> tuple[dict, dict]:
    tally = Tally()
    seed_args = ["--seed", str(seed)] + (["--wrong-expected"] if wrong else [])
    warm()
    sources: list[dict] = []
    times: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, int] = defaultdict(int)

    def collect(source: str, spans: list) -> None:
        sources.append({"source": source, "spans": spans})
        for name, values in self_times(spans).items():
            times[name].extend(values)

    floor = [common.run_timed(python("-c", "pass"))[0] for _ in range(FLOOR_REPS)]
    probe = str(common.BENCH / "probe.py")
    probe_walls: dict[str, list[float]] = defaultdict(list)
    for rep in range(TRACE_REPS):
        for name in CLI_NAMES:
            wall, code, stdout = common.run_timed(python(probe, "cli", name, *seed_args))
            result = json.loads(stdout.splitlines()[-1]) if code == 0 else {}
            tally.add(result.get("ok", False))
            counts["count.commands"] += 1
            probe_walls[name].append(wall)
            collect(f"probe cli {name} #{rep}", result.get("spans", []))
        wall, code, stdout = common.run_timed(python(probe, "firstcall", *seed_args[2:]))
        result = json.loads(stdout.splitlines()[-1]) if code == 0 else {}
        tally.add(result.get("ok", False))
        counts["count.cover_cubes"] = result.get("cover_cubes", 0)
        collect(f"probe firstcall #{rep}", result.get("spans", []))

    _, traced = worker(seed_args + ["--trace", workload], timeout=170)
    tally.attempted += traced["attempted"]
    tally.failed += traced["failed"]
    collect(f"worker {workload}", traced["spans"])
    for name, value in traced["counts"].items():
        counts[name] += value

    if workload == "cli_cold":
        plain = cli_loop(seed, wrong, tally, rounds=TRACE_REPS)
        counts["count.commands"] += TRACE_REPS * len(CLI_NAMES)
        untraced = sum(common.median(plain[name]["raw"]) for name in CLI_NAMES)
        spanned = sum(common.median(probe_walls[name]) for name in CLI_NAMES)
        overhead = {"untraced_s": untraced, "traced_s": spanned,
                    "what": "sum over the five commands of the median cold wall time"}
    else:
        overhead = {**traced["overhead"],
                    "what": f"median {workload} batch time, spans off and on"}

    metrics: dict[str, dict] = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("count."):
            value = counts.get(name, 0)
        elif name == "cli.startup_floor_s":
            value = common.median(floor)
        elif name == "trace.overhead_pct":
            value = 100.0 * (overhead["traced_s"] / overhead["untraced_s"] - 1.0)
        elif name.startswith("netlist.") and name[8:-3] in SUMMED_OVER_BUILDS:
            value = sum(_median_self(times, f"{name[:-3]}.{arch}") for arch in REV_ARCHS)
        else:
            value = _median_self(times, name)
        if unit == "us":
            value *= 1e6
        metrics[name] = {"value": value, "unit": unit}

    common.OUT.mkdir(exist_ok=True)
    spans_path = common.OUT / f"trace-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["op", "id", "parent", "name", "start_s", "end_s"],
        "sources": sources}), encoding="utf-8")
    report = {"overhead": overhead, "spans_file": str(spans_path.relative_to(common.ROOT)),
              "span_count": sum(len(s["spans"]) for s in sources),
              "samples": {name: len(v) for name, v in sorted(times.items())}}
    return metrics, {"stats": report, "tally": tally}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-expected", action="store_true",
                        help="perturb every expected value (self-check: must fail)")
    args = parser.parse_args()
    common.require_source()
    if args.trace:
        metrics, extra = traced_run(args.workload, args.seed, args.wrong_expected)
    else:
        metrics, extra = timed_run(args.workload, args.seed, args.seconds,
                                   args.wrong_expected)
    tally: Tally = extra["tally"]
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise RuntimeError(f"metric {name} is not a finite number")
    report = {
        "environment": common.environment(args.seed, args.workload),
        "trace": args.trace,
        "seconds": args.seconds,
        "fail_ratio": {"value": tally.failed / max(tally.attempted, 1),
                       "failed": tally.failed, "attempted": tally.attempted},
        **extra["stats"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
