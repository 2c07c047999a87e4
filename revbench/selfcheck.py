"""Self-check of the benchmark itself; exits 1 on the first problem.

    python3 revbench/selfcheck.py

For every workload it makes a one-second run with tracing off and a traced
run, and checks that each prints every metric named in BENCHMARK.json with
its unit and reports no failed operation.  It then repeats each untraced
run with ``--wrong-expected`` (every expected value perturbed) and requires
failed operations, which shows the checks are not vacuous.  It confirms the
integer-addition renderer matches the golden ``simulate --digits`` output,
and that the benchmark exits non-zero, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import capture_golden
import common

SHORT = "1"


def fail(message: str) -> None:
    sys.exit(f"selfcheck FAILED: {message}")


def run(cwd, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "revbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SHORT, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    common.require_source()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(common.WORKLOADS):
        fail("BENCHMARK.json workloads differ from the benchmark's")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    golden = json.loads(common.GOLDEN.read_text(encoding="utf-8"))["commands"]
    rendered = common.render_digits_sum(*capture_golden.DIGITS_EXAMPLE, common.CLI_DIGITS)
    if golden["simulate_digits"]["stdout"] != rendered:
        fail("the integer-addition renderer disagrees with the golden CLI output")

    for workload in common.WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            result = result_of(run(common.ROOT, workload, trace), what)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                fail(f"{what} metrics differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{what} reported failures: {result['failed']}/{result['attempted']}")
            print(f"ok   {what}: {len(got)} metrics, {result['attempted']} operations")
        broken = result_of(run(common.ROOT, workload, 0, "--wrong-expected"),
                           f"{workload} --wrong-expected")
        if broken["correct"] or broken["failed"] < 1:
            fail(f"{workload}: a wrong expected value went unnoticed")
        print(f"ok   {workload} --wrong-expected: fail_ratio "
              f"{broken['failed'] / broken['attempted']:.3f}")

    bare = common.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(common.BENCH, bare / "revbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, common.WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark did not refuse to run without the package source")
    print("ok   without src/: exit code", proc.returncode)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
