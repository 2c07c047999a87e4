"""Paths, CLI command set, oracles and statistics shared by the benchmark.

This module imports only the standard library, so a cold probe can import
it after timing ``import revdec.cli`` without hiding any of that import.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
GATE_DEFS = BENCH / "gate_defs.txt"

WORKLOADS = ("cli_cold", "netlist_sweep", "netlist_roundtrip", "decimal_chain")
INPROC_WORKLOADS = WORKLOADS[1:]

REV_ARCHS = ("rev_conventional", "rev_carry_skip")
DECIMAL_ARCHS = ("conventional", "cla_corrected", "carry_skip")
DECIMAL_WIDTHS = (7, 16, 34)  # decimal32 / decimal64 / decimal128 significands
CLI_DIGITS = 34

# Cold commands in the order they are reported; argv after the program name.
CLI_FIXED = {
    "verify": ["verify"],
    "errata": ["errata"],
    "table1": ["metrics", "--table1"],
    "simulate": ["simulate", "--arch", "rev_carry_skip", "--a", "9", "--b", "6",
                 "--cin", "1", "--trace"],
}
CLI_NAMES = ("verify", "errata", "table1", "simulate", "simulate_digits")

# The same entry point the ``revdec`` console script runs.
CLI_ENTRY = "from revdec.cli import main_entry; main_entry()"

# A small shared host can change CPU speed by up to 2x within seconds, so
# every timed sample is taken between two timings of a fixed reference and
# reported as (sample / mean of the two references) x the
# reference's nominal time: seconds at a fixed reference speed.  A cold
# process is paired with a cold interpreter running COLD_REFERENCE for a
# similar length of time (start-up plus pure-Python work, like a command);
# an in-process batch with ``reference_work``.  Raw wall times are reported
# beside them.
COLD_REFERENCE = """
table = {}
total = 0
for i in range(%d):
    key = i & 255
    table[key] = table.get(key, 0) + i
    total += (i * 7) ^ (i >> 3)
"""
COLD_REFERENCE_STEPS = {"short": 50_000, "long": 200_000}
COLD_REFERENCE_NOMINAL_S = {"short": 0.07, "long": 0.12}
REFERENCE_NOMINAL_S = 0.005


def require_source() -> None:
    """Exit with status 1 unless the package source sits under ``src/``."""
    if not (SRC / "revdec" / "cli.py").is_file():
        sys.exit(f"error: no revdec source at {SRC / 'revdec'}; "
                 "run the benchmark from the root of a revdec checkout")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's package only.

    The hash seed is fixed, so string hashing (and with it the layout of
    every dict and set) is the same in every run; with random seeds it moves
    run-to-run timings by several percent.
    """
    env = dict(os.environ)
    env.pop("REVDEC_GATE_DEFS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def random_number(rng: random.Random, width: int) -> int:
    return rng.randrange(10 ** width)


def digits_le(value: int, width: int) -> list[int]:
    """Little-endian decimal digits of ``value``, zero-padded to ``width``."""
    return [int(c) for c in reversed(str(value).zfill(width))]


def add_oracle(x: int, y: int, cin: int, width: int, wrong: bool = False) -> tuple[list[int], int]:
    """Integer-arithmetic reference for a ``width``-digit decimal addition.

    ``wrong`` shifts the expected sum by one, to show the checks can fail.
    """
    total = x + y + cin + (1 if wrong else 0)
    return digits_le(total % 10 ** width, width), total // 10 ** width


def cli_commands(seed: int, wrong: bool = False) -> dict[str, tuple[list[str], int, str]]:
    """Map each cold command to ``(argv, expected exit code, expected stdout)``.

    Four commands are compared with the golden outputs captured from the
    package.  The multi-digit command adds two seeded 34-digit operands and
    is compared with integer addition rendered the way the CLI prints it.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"]
    commands = {}
    for name, argv in CLI_FIXED.items():
        entry = golden[name]
        if entry["argv"] != argv:
            raise ValueError(f"golden.json argv for {name} is stale")
        commands[name] = (argv, entry["exit_code"], entry["stdout"])
    rng = rng_for("cli_cold", seed)
    x, y = random_number(rng, CLI_DIGITS), random_number(rng, CLI_DIGITS)
    commands["simulate_digits"] = (
        digits_argv(x, y), 0, render_digits_sum(x, y, CLI_DIGITS))
    if wrong:
        commands = {k: (a, rc, out + "!") for k, (a, rc, out) in commands.items()}
    return commands


def digits_argv(x: int, y: int) -> list[str]:
    return ["simulate", "--arch", "cla_corrected", "--digits",
            f"{str(x).zfill(CLI_DIGITS)},{str(y).zfill(CLI_DIGITS)}"]


def render_digits_sum(x: int, y: int, width: int) -> str:
    """Expected stdout of ``simulate --digits`` computed by integer addition."""
    digits, cout = add_oracle(x, y, 0, width)
    return f"sum={''.join(map(str, reversed(digits)))} cout={cout}\n"


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_ENTRY, *args]


def run_timed(argv: list[str], timeout: float = 60.0) -> tuple[float, int, str]:
    """Run one child process to completion; return (wall s, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          timeout=timeout)
    elapsed = time.perf_counter() - start
    # Decoded without newline translation, so comparisons stay byte for byte.
    return elapsed, proc.returncode, proc.stdout.decode("utf-8", "surrogateescape")


def cold_reference_s(size: str = "short") -> float:
    """Wall time of one cold interpreter running COLD_REFERENCE."""
    source = COLD_REFERENCE % COLD_REFERENCE_STEPS[size]
    wall, code, _ = run_timed([sys.executable, "-c", source])
    if code != 0:
        raise RuntimeError("the interpreter itself failed to run")
    return wall


def reference_work() -> int:
    """Fixed pure-Python work (dict, int and loop overhead) that tracks CPU speed."""
    table: dict[int, int] = {}
    total = 0
    for i in range(20000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 7) ^ (i >> 3)
    return total


def reference_s() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Paired:
    """Samples interleaved with references: ref, sample, ref, sample, ..., ref."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.samples: list[float] = []
        self.refs: list[float] = [reference()]

    def add(self, sample: float) -> None:
        self.samples.append(sample)
        self.refs.append(self.reference())

    def ratios(self) -> list[float]:
        """Each sample over the mean of the references on either side of it."""
        return [s / ((a + b) / 2)
                for s, a, b in zip(self.samples, self.refs, self.refs[1:])]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> dict:
    """Sample count, median and the highest percentile with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None,
           "tail_pct": None, "tail": None}
    k = n - 10
    if k >= 1:
        out["tail_pct"] = round(100.0 * k / n, 1)
        out["tail"] = ordered[k - 1]
    return out


def environment(seed: int, workload: str) -> dict:
    """Record of what ran where: seed, interpreter, host, CPUs and source."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "revdec").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }
