"""Command-line interface tests."""

from __future__ import annotations

import json

import pytest
from conftest import GATE_DEFS, PUBLIC_MODELS, counting_row, gate_line

from revdec import classical, cli
from revdec.classical import ARCHITECTURES, valid_operands
from revdec.cli import main
from revdec.gates import builtin_catalog, catalog_from_env
from revdec.netlist import Netlist
from revdec.reversible import (
    build_carry_skip_reversible,
    build_conventional_reversible,
    simulate_digit_add,
)

# NEW_GATE with its table reversed: the adders then give sums above 9.
REVERSED_NEW_GATE = "NEW_GATE 3 7 6 5 4 3 2 1 0\n"
REVERSIBLE_BUILDERS = {"rev_conventional": build_conventional_reversible,
                       "rev_carry_skip": build_carry_skip_reversible}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    @pytest.mark.parametrize(
        "arch",
        [
            "conventional",
            "cla_corrected",
            "carry_skip",
            "rev_conventional",
            "rev_carry_skip",
        ],
    )
    def test_single_digit(self, capsys, arch):
        code, out, _ = run(
            capsys, "simulate", "--arch", arch, "--a", "9", "--b", "6", "--cin", "1"
        )
        assert code == 0
        assert out.strip() == "sum=6 cout=1"

    def test_verbatim_reports_what_the_equations_compute(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--arch", "cla_verbatim", "--a", "9", "--b", "9",
            "--cin", "1",
        )
        assert code == 0
        assert out.strip() == "sum=11 cout=1"

    def test_invalid_digit_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--arch", "conventional", "--a", "12", "--b", "0")
        assert code == 2
        assert "invalid BCD digit" in err

    def test_missing_operands(self, capsys):
        code, _, err = run(capsys, "simulate", "--arch", "conventional")
        assert code == 2
        assert "--a" in err

    def test_multi_digit(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--arch", "conventional", "--digits", "99,10"
        )
        assert code == 0
        assert out.strip() == "sum=09 cout=1"

    def test_multi_digit_with_carry_in(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--arch", "carry_skip", "--digits", "999,0", "--cin", "1"
        )
        assert code == 0
        assert out.strip() == "sum=000 cout=1"

    def test_multi_digit_on_a_reversible_build(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--arch", "rev_carry_skip", "--digits", "999,1"
        )
        assert (code, out, err) == (0, "sum=000 cout=1\n", "")

    def test_multi_digit_needs_an_exact_architecture(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--arch", "cla_verbatim", "--digits", "1,2"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: architecture 'cla_verbatim' cannot chain digits: it is not exact; "
            "choose from ('conventional', 'cla_corrected', 'carry_skip', "
            "'rev_conventional', 'rev_carry_skip')\n")

    def test_the_digits_are_parsed_before_the_architecture_is_checked(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--arch", "cla_verbatim", "--digits", "1,x"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --digits expects two comma-separated")

    @pytest.mark.parametrize(
        "extra", [["--a", "0"], ["--b", "0"], ["--trace"]], ids=["a", "b", "trace"]
    )
    def test_digits_rejects_single_digit_flags(self, capsys, extra):
        code, out, err = run(
            capsys, "simulate", "--arch", "conventional", "--digits", "12,3", *extra
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --digits cannot be combined with {extra[0]}\n"

    def test_malformed_digits(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--arch", "conventional", "--digits", "9x,1"
        )
        assert code == 2

    def test_classical_trace(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--arch", "conventional", "--a", "5", "--b", "7",
            "--trace",
        )
        assert code == 0
        assert "z=12 k=0 correct=1" in out
        assert "sum=2 cout=1" in out

    @pytest.mark.parametrize("arch", PUBLIC_MODELS)
    def test_classical_trace_renders_the_signal_record(self, capsys, arch):
        # The record's name=value pairs in field order, then the digit.
        for op in valid_operands():
            result, signals = PUBLIC_MODELS[arch](op)
            names = type(signals).__match_args__
            line = f"sum={result.sum} cout={result.cout}\n"
            trace = " ".join(f"{n}={getattr(signals, n)}" for n in names) + "\n"
            argv = ["simulate", "--arch", arch, "--a", str(op.a), "--b", str(op.b),
                    "--cin", str(op.cin)]
            assert run(capsys, *argv) == (0, line, "")
            assert run(capsys, *argv, "--trace") == (0, trace + line, "")

    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
    @pytest.mark.parametrize("arch", PUBLIC_MODELS)
    def test_a_classical_row_runs_its_model_once(self, capsys, monkeypatch, arch, trace):
        calls = []
        monkeypatch.setitem(classical.ARCHITECTURES, arch,
                            counting_row(ARCHITECTURES[arch], calls))
        code, out, err = run(capsys, "simulate", "--arch", arch, "--a", "9", "--b", "6",
                             "--cin", "1", *trace)
        assert (code, err) == (0, "")
        assert out.endswith(" cout=1\n")
        assert calls == [1]

    def test_reversible_trace_lists_every_gate(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--arch", "rev_conventional", "--a", "3", "--b", "4",
            "--trace",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "sum=7 cout=0"
        gate_lines = [l for l in lines if "->" in l]
        assert len(gate_lines) == 9
        assert gate_lines[0].startswith("g0 TSG:")

    @pytest.mark.parametrize("catalog", ["builtin", "gate_defs", "reversed_new_gate"])
    @pytest.mark.parametrize("arch", REVERSIBLE_BUILDERS)
    def test_one_digit_on_a_build_is_simulate_digit_add(
            self, capsys, monkeypatch, tmp_path, arch, catalog):
        if catalog == "gate_defs":
            monkeypatch.setenv("REVDEC_GATE_DEFS", str(GATE_DEFS))
        elif catalog == "reversed_new_gate":
            path = tmp_path / "defs.txt"
            path.write_text(REVERSED_NEW_GATE)
            monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        build = REVERSIBLE_BUILDERS[arch](catalog_from_env())
        gates = build.metrics.gate_count
        for op in valid_operands():
            want = simulate_digit_add(build, op)
            argv = ["simulate", "--arch", arch, "--a", str(op.a), "--b", str(op.b)]
            if op.cin:
                argv += ["--cin", "1"]
            line = f"sum={want.sum} cout={want.cout}"
            assert run(capsys, *argv) == (0, line + "\n", "")
            code, out, err = run(capsys, *argv, "--trace")
            assert (code, err) == (0, "")
            assert out.splitlines()[gates:] == [line]

    @pytest.mark.parametrize("arch", REVERSIBLE_BUILDERS)
    def test_one_digit_on_a_build_fills_no_digit_table(self, capsys, arch):
        classical._cached_build.cache_clear()
        assert run(capsys, "simulate", "--arch", arch, "--a", "9", "--b", "6",
                   "--trace")[0] == 0
        build = ARCHITECTURES[arch].build()
        assert not {"columns", "_digit_table", "digit_pairs"} & set(vars(build))
        assert "_columns" not in vars(build.netlist)


class TestVerify:
    def test_all_architectures(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "conventional: 200/200" in out
        assert "rev_carry_skip: 200/200" in out
        assert "cla_verbatim: 116/200" in out
        assert "errata" in out

    def test_single_architecture(self, capsys):
        code, out, _ = run(capsys, "verify", "--arch", "rev_conventional")
        assert code == 0
        assert "gates=9" in out and "PASS" in out

    def test_strict_counts_verbatim_as_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "--arch", "cla_verbatim", "--strict")
        assert code == 1
        assert "FAIL" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "reports.json"
        code, _, _ = run(capsys, "verify", "--json", str(path))
        assert code == 0
        reports = json.loads(path.read_text())
        assert len(reports) == 6
        by_arch = {r["architecture"]: r for r in reports}
        assert by_arch["cla_verbatim"]["agreement"] == pytest.approx(0.58)
        assert by_arch["rev_conventional"]["metrics"]["gates"] == 9
        assert by_arch["rev_conventional"]["targets"] == {"gates": 11, "garbage": 22}


class TestMetrics:
    def test_single_build(self, capsys):
        code, out, _ = run(capsys, "metrics", "--arch", "rev_conventional")
        assert code == 0
        assert "gates=9" in out and "garbage=13" in out
        assert "target=11/22" in out and "delta=-2/-9" in out
        assert "fidelity=RECONSTRUCTED" in out

    def test_table(self, capsys):
        code, out, _ = run(capsys, "metrics", "--table1")
        assert code == 0
        assert "baseline" in out and "23" in out and "22" in out
        assert "rev_carry_skip" in out and "+2/-6" in out

    def test_requires_something_to_do(self, capsys):
        code, _, err = run(capsys, "metrics")
        assert code == 2

    def test_usage_is_checked_before_the_defs_file(self, capsys, monkeypatch):
        monkeypatch.setenv("REVDEC_GATE_DEFS", "/nonexistent/defs.txt")
        assert run(capsys, "metrics") == (
            2, "", "error: provide --arch and/or --table1\n")


class TestExport:
    def test_json_round_trips_to_an_equal_netlist(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        code, _, _ = run(
            capsys, "export", "--arch", "rev_conventional", "--format", "json",
            "--out", str(path),
        )
        assert code == 0
        imported = Netlist.from_json(path.read_text())
        assert imported == build_conventional_reversible().netlist

    def test_dot_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "export", "--arch", "rev_carry_skip", "--format", "dot", "--out", "-"
        )
        assert code == 0
        assert out.startswith('digraph "bcd_adder_carry_skip"')

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "export", "--arch", "rev_conventional", "--format", "json",
            "--out", "/nonexistent/dir/net.json",
        )
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["verify", "--json"], ["errata", "--json"]],
                         ids=["verify", "errata"])
def test_an_unwritable_json_report_is_one_error_line(capsys, argv):
    for path in ("/nonexistent/dir/r.json", ""):
        code, out, err = run(capsys, *argv, path)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestTruthtable:
    def test_ts3_parity_column(self, capsys):
        code, out, _ = run(capsys, "truthtable", "--gate", "ts3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gate TS3 width 3"
        rows = [l.split(" -> ") for l in lines[1:]]
        assert len(rows) == 8
        for pattern, (ins, outs) in enumerate(rows):
            bits = [int(c) for c in ins]
            assert bits == [(pattern >> i) & 1 for i in range(3)]
            assert int(outs[2]) == bits[0] ^ bits[1] ^ bits[2]

    def test_unknown_gate(self, capsys):
        code, _, err = run(capsys, "truthtable", "--gate", "missing")
        assert code == 2
        assert "missing" in err


class TestGateDefsOverride:
    def test_truthtable_uses_the_override(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "defs.txt"
        path.write_text("NEW_GATE 3 0 1 2 3 4 5 6 7\n")  # identity replacement
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        code, out, _ = run(capsys, "truthtable", "--gate", "NEW_GATE")
        assert code == 0
        # The built-in table maps 100 -> 101; the identity override must not.
        assert "100 -> 100" in out
        assert "100 -> 101" not in out

    def test_broken_override_makes_verification_fail(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "defs.txt"
        path.write_text("NEW_GATE 3 0 1 2 3 4 5 6 7\n")
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        code, out, _ = run(capsys, "verify", "--arch", "rev_conventional")
        assert code == 1
        assert "FAIL" in out

    def test_faithful_override_changes_nothing(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "defs.txt"
        path.write_text(gate_line(builtin_catalog()["TSG"]) + "\n")
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        code, out, _ = run(capsys, "verify", "--arch", "rev_conventional")
        assert code == 0
        assert "PASS" in out

    def test_missing_defs_file(self, capsys, monkeypatch):
        monkeypatch.setenv("REVDEC_GATE_DEFS", "/nonexistent/defs.txt")
        for argv in (["verify", "--arch", "rev_conventional"],
                     ["simulate", "--arch", "rev_carry_skip", "--digits", "999,1"]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            assert out == ""

    def test_digits_print_one_hex_digit_per_sum_digit(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "defs.txt"
        path.write_text(REVERSED_NEW_GATE)
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        arch = ("--arch", "rev_conventional")
        assert run(capsys, "simulate", *arch, "--digits", "0,0") == (0, "sum=E cout=0\n", "")
        assert run(capsys, "simulate", *arch, "--a", "0", "--b", "0") == (
            0, "sum=14 cout=0\n", "")
        digits, cout = classical.decimal_add([0, 0], [0, 0], 0, "rev_conventional",
                                             catalog_from_env())
        assert digits == [14, 14]
        assert run(capsys, "simulate", *arch, "--digits", "00,00") == (
            0, f"sum=EE cout={cout}\n", "")

    def test_a_byte_order_mark_is_not_part_of_the_first_gate(self, capsys, tmp_path,
                                                              monkeypatch):
        # Some editors start a UTF-8 file with a byte-order mark.  It is not
        # part of the first gate's name, so the file still replaces NEW_GATE.
        path = tmp_path / "defs.txt"
        path.write_text(REVERSED_NEW_GATE, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        monkeypatch.setenv("REVDEC_GATE_DEFS", str(path))
        assert run(capsys, "simulate", "--arch", "rev_conventional", "--a", "0", "--b", "0") == (
            0, "sum=14 cout=0\n", "")
        assert "\ufeffNEW_GATE" not in catalog_from_env()

    @pytest.mark.parametrize(
        "argv",
        [
            ["errata"],
            ["verify", "--arch", "conventional"],
            ["simulate", "--arch", "conventional", "--a", "1", "--b", "2"],
            ["simulate", "--arch", "cla_corrected", "--digits", "12,34"],
        ],
        ids=["errata", "verify", "simulate", "simulate_digits"],
    )
    def test_gate_free_commands_ignore_the_defs_file(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("REVDEC_GATE_DEFS", "/nonexistent/defs.txt")
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err == ""

    def test_defs_file_is_read_once_per_command(self, capsys, monkeypatch):
        calls = []
        original = cli.catalog_from_env
        monkeypatch.setattr(cli, "catalog_from_env", lambda *a: calls.append(a) or original(*a))
        assert run(capsys, "verify")[0] == 0
        assert len(calls) == 1
        assert run(capsys, "verify", "--arch", "carry_skip")[0] == 0
        assert len(calls) == 1


class TestErrata:
    def test_human_readable_report(self, capsys):
        code, out, _ = run(capsys, "errata")
        assert code == 0
        assert "S1_VERBATIM: 120/200" in out
        assert "S2_VERBATIM: 196/200" in out
        assert "COUT_VERBATIM: 200/200" in out
        assert "first failure a=0 b=2 cin=0" in out
        assert "naive_detection" in out and "a=4 b=9 cin=1" in out
        assert "structurally exclusive" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "errata.json"
        code, _, _ = run(capsys, "errata", "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["agreement"]["S1_VERBATIM"] == {"ok": 120, "total": 200}
        assert [e["equation"] for e in doc["errata"]] == ["S1_VERBATIM", "S2_VERBATIM"]
        sites = {s["site"]: s for s in doc["substitution_sites"]}
        assert sites["naive_detection"]["valid_counterexample_count"] == 20
        assert sites["naive_detection"]["first_valid_counterexample"] == {
            "a": 4, "b": 9, "cin": 1,
        }
