"""Import-boundary tests: ``import revdec`` loads no submodule, only the
commands that build a netlist load the netlist layer, and every revdec name
the benchmark imports or wraps exists.

Module loading is checked in a fresh interpreter, because this test session
has already imported every module.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revdec
from revdec import cli

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = Path(__file__).resolve().parents[1] / "revbench"
NETLIST_LAYER = {"revdec.netlist", "revdec.reversible"}

PUBLIC_NAMES = {
    "__version__",
    "BcdOperands", "BcdResult", "BitVector", "ClaSignals", "ConventionalTrace",
    "CostMetrics", "GateInstance", "GatePermutation", "InputDecl", "InvalidBcd",
    "LengthMismatch", "MalformedNetlist", "Netlist", "NetlistBuilder",
    "NotBijective", "OutputDecl", "ParseError", "ReversibleAdderBuild",
    "SkipSignals", "UnknownGate", "WidthMismatch", "builtin_catalog",
    "build_carry_skip_reversible", "build_conventional_reversible",
    "carry_skip_add", "catalog_from_env", "cla_add", "cla_errata", "cla_signals",
    "conventional_add", "decimal_add", "oracle",
    "simulate_digit_add", "table1_report", "valid_operands",
    "verify_architecture", "xor_substitution_audit",
}

# The module-level names of revdec.cli that the benchmark's traced probe
# replaces, each with a command that must call through it.
PROBED = {
    "verify_architecture": ["verify", "--arch", "conventional"],
    "cla_agreement": ["errata"],
    "cla_errata": ["errata"],
    "xor_substitution_audit": ["errata"],
    "table1_report": ["metrics", "--table1"],
    "decimal_add": ["simulate", "--arch", "conventional", "--digits", "12,34"],
    "catalog_from_env": ["verify", "--arch", "rev_conventional"],
}


# The objects whose attributes the benchmark's tracer wraps, by the name the
# benchmark gives them.
WRAP_TARGETS = {"Netlist": "revdec.netlist:Netlist", "cli": "revdec.cli"}


def benchmark_names() -> list[tuple[str, str, str]]:
    """``(file, owner, name)`` for each ``from revdec.<mod> import <name>`` in
    ``revbench/*.py`` and each ``tracer.wrap(<Netlist or cli>, "<name>", ..)``;
    the owner is a module name, or ``module:attribute``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("revdec."):
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "wrap" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "tracer" and len(node.args) >= 2
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in WRAP_TARGETS
                  and isinstance(node.args[1], ast.Constant)):
                found.append((path.name, WRAP_TARGETS[node.args[0].id], node.args[1].value))
    return found


BENCHMARK_NAMES = benchmark_names()


def modules_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REVDEC_GATE_DEFS", None)
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(run.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set[str]:
    """The ``revdec`` modules a fresh interpreter holds after running ``code``."""
    return {m for m in modules_after(code) if m.startswith("revdec")}


class TestModuleLoading:
    def test_import_revdec_loads_no_submodule(self):
        assert loaded_after("import revdec") == {"revdec"}

    def test_verification_loads_only_the_classical_layer(self):
        assert loaded_after("import revdec.verification") == {
            "revdec", "revdec._record", "revdec.classical", "revdec.sop",
            "revdec.verification",
        }

    @pytest.mark.parametrize(
        "code",
        [
            "import revdec.cli",
            "from revdec.cli import main\n"
            "for argv in (['errata'], ['verify'], ['metrics', '--table1']):\n"
            "    assert main(argv) == 0",
        ],
        ids=["import-cli", "errata-verify-table1"],
    )
    def test_records_do_not_load_dataclasses_or_inspect(self, code):
        loaded = modules_after(code)
        assert "revdec.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}

    @pytest.mark.parametrize(
        "argv",
        [["errata"], ["simulate", "--arch", "cla_corrected", "--digits", "999,1"],
         ["verify", "--arch", "conventional"],
         ["simulate", "--arch", "carry_skip", "--a", "1", "--b", "2"],
         ["verify", "--arch", "cla_corrected"],
         ["simulate", "--arch", "cla_corrected", "--a", "9", "--b", "6", "--trace"]],
        ids=["errata", "simulate-digits", "verify-classical", "simulate-classical",
             "verify-compiled-covers", "simulate-compiled-covers"],
    )
    def test_classical_commands_skip_the_netlist_layer(self, argv):
        loaded = loaded_after(
            f"from revdec.cli import main\nassert main({argv!r}) == 0"
        )
        assert "revdec.cli" in loaded
        assert not loaded & NETLIST_LAYER

    def test_reversible_verify_loads_the_netlist_layer(self):
        loaded = loaded_after(
            "from revdec.cli import main\n"
            "assert main(['verify', '--arch', 'rev_conventional']) == 0"
        )
        assert NETLIST_LAYER <= loaded


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert set(revdec.__all__) == PUBLIC_NAMES
        assert len(revdec.__all__) == len(PUBLIC_NAMES) == 38

    @pytest.mark.parametrize("name", sorted(PUBLIC_NAMES - {"__version__"}))
    def test_name_is_the_object_its_home_module_defines(self, name):
        obj = getattr(revdec, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("revdec.")
        assert getattr(home, name) is obj
        assert name in home.__all__

    def test_dir_lists_every_public_name(self):
        assert set(revdec.__all__) <= set(dir(revdec))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(revdec, "no_such_name")

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from revdec import *", namespace)
        assert PUBLIC_NAMES <= set(namespace)


class TestCliCallsThroughModuleNames:
    @pytest.mark.parametrize("name", sorted(PROBED))
    def test_main_calls_the_module_level_name(self, monkeypatch, capsys, name):
        original = getattr(cli, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        assert cli.main(PROBED[name]) == 0
        capsys.readouterr()
        assert calls


class TestBenchmarkNames:
    """What ``revbench/`` imports from revdec and wraps with its tracer exists;
    the benchmark's own self-check would otherwise be the first to notice."""

    def test_the_scan_finds_imports_and_both_wrap_targets(self):
        owners = {owner for _, owner, _ in BENCHMARK_NAMES}
        assert {"revdec.reversible", *WRAP_TARGETS.values()} <= owners

    @pytest.mark.parametrize("owner, name", sorted({ref[1:] for ref in BENCHMARK_NAMES}),
                             ids=lambda part: part)
    def test_name_exists(self, owner, name):
        module, _, attribute = owner.partition(":")
        target = importlib.import_module(module)
        if attribute:
            target = getattr(target, attribute)
        assert hasattr(target, name), f"{owner} has no {name!r}"
