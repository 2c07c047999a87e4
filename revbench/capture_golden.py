"""Capture the golden outputs of the fixed cold commands into golden.json.

Run from the root of a checkout whose outputs are known good:

    python3 revbench/capture_golden.py

Each command runs as a cold ``revdec`` process; its stdout and exit code
are stored byte for byte.  The multi-digit entry records one fixed operand
pair, which the self-check uses to confirm that the integer-addition
renderer in ``common.py`` matches the CLI's output format.
"""

from __future__ import annotations

import json

import common

DIGITS_EXAMPLE = (1234567890123456789012345678901234, 9876543210987654321098765432109876)


def main() -> None:
    common.require_source()
    commands = {**common.CLI_FIXED, "simulate_digits": common.digits_argv(*DIGITS_EXAMPLE)}
    golden = {}
    for name, argv in commands.items():
        _, code, stdout = common.run_timed(common.cli_argv(argv))
        golden[name] = {"argv": argv, "exit_code": code, "stdout": stdout}
    doc = {"about": "stdout and exit code of each cold revdec command; "
                    "regenerate with python3 revbench/capture_golden.py",
           "commands": golden}
    common.GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
