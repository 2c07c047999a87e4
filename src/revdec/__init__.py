"""Reversible-logic construction kit for BCD adders.

The package models three one-digit decimal adder architectures
(conventional, carry-look-ahead, carry-skip) as classical boolean circuits,
realizes two of them as reversible gate netlists built from validated
permutation-table gates, and verifies everything exhaustively against a
plain-arithmetic oracle.  See the module docstrings of
:mod:`revdec.gates`, :mod:`revdec.netlist`, :mod:`revdec.classical`,
:mod:`revdec.reversible` and :mod:`revdec.verification` for the layer-by-
layer story, and :mod:`revdec.cli` for the command-line entry points.

``import revdec`` loads no submodule: each public name below is imported
from its home module the first time it is read (PEP 562), so a caller pays
only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_HOMES = {
    "classical": (
        "BcdOperands", "BcdResult", "ClaSignals", "ConventionalTrace",
        "InvalidBcd", "LengthMismatch", "SkipSignals", "carry_skip_add",
        "cla_add", "conventional_add", "decimal_add", "oracle", "valid_operands",
    ),
    "gates": (
        "BitVector", "GatePermutation", "NotBijective", "ParseError",
        "UnknownGate", "WidthMismatch", "builtin_catalog", "catalog_from_env",
    ),
    "netlist": (
        "CostMetrics", "GateInstance", "InputDecl", "MalformedNetlist",
        "Netlist", "NetlistBuilder", "OutputDecl",
    ),
    "reversible": (
        "ReversibleAdderBuild", "build_carry_skip_reversible",
        "build_conventional_reversible", "simulate_digit_add",
    ),
    "verification": (
        "cla_errata", "table1_report", "verify_architecture",
        "xor_substitution_audit",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME_OF)]


def __getattr__(name: str) -> object:
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
