from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from severi import InvariantEngine, InvariantKind
from severi import cli
from severi.exact import format_exact, parse_exact
from severi.tables import build_records, render_csv, render_json


def _json_dumps_of_records(records) -> str:
    """The reference for ``render_json``: the table as nested dicts, dumped
    by the ``json`` module."""
    tree = [
        {
            "d": record.d,
            "values": {
                kind.value: format_exact(value)
                for kind, value in record.values.items()
            },
            "flags": {
                kind.value: {
                    "in_domain": status.in_domain,
                    "reason": status.reason,
                    "integral": record.values[kind].denominator == 1,
                }
                for kind, status in record.flags.items()
            },
        }
        for record in records
    ]
    return json.dumps(tree, indent=2) + "\n"


def _one_error_line(err: str) -> bool:
    """True if stderr is exactly one ``severi: error:`` line."""
    return err.startswith("severi: error: ") and err.count("\n") == 1


class TestEval:
    def test_k0_anchor_prints_24_exactly(self, run_cli):
        code, out, err = run_cli("eval", "K0", "3")
        assert code == 0
        assert out == "24\n"
        assert err == ""

    def test_n1_degree_four(self, run_cli):
        code, out, _ = run_cli("eval", "N1", "4")
        assert code == 0 and out == "225\n"

    def test_flagged_fractional_value(self, run_cli):
        code, out, _ = run_cli("eval", "G1", "3")
        assert code == 0
        assert out == "5/4 DEGENERATE_GEOMETRY non-integral\n"

    def test_invariant_names_are_case_insensitive(self, run_cli):
        code, out, _ = run_cli("eval", "n0", "5")
        assert code == 0 and out == "87304\n"

    def test_unknown_invariant_is_a_usage_error(self, run_cli):
        code, out, err = run_cli("eval", "N2", "3")
        assert code == 2
        assert out == ""
        assert "unknown invariant" in err
        assert _one_error_line(err)

    @pytest.mark.parametrize("bad_d", ["0", "-3", "two"])
    def test_bad_degree_is_a_usage_error(self, run_cli, bad_d):
        code, _, err = run_cli("eval", "N0", bad_d)
        assert code == 2 and err != ""
        if bad_d != "two":
            assert _one_error_line(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "N0", "601"),
            ("table", "--d-max", "601"),
            ("audit", "--d-max", "601"),
        ],
    )
    def test_degree_above_the_ceiling_is_a_usage_error(self, run_cli, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "600" in err
        assert _one_error_line(err)

    @pytest.mark.slow
    def test_degree_572_passes_the_int_str_digit_limit(self):
        # N0(572) is the first N0 with more than 4300 digits.
        argv = [sys.executable, "-m", "severi", "eval", "N0", "572"]
        result = subprocess.run(argv, capture_output=True, text=True)
        assert result.returncode == 0 and result.stderr == ""
        assert len(result.stdout) == 4305
        text = result.stdout.rstrip("\n")
        assert format_exact(parse_exact(text)) == text
        assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == EVAL_N0_572_DIGEST


class TestTable:
    def test_csv_row_for_degree_three(self, run_cli):
        code, out, _ = run_cli("table", "--d-max", "3")
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[3].split(",")))
        assert row["d"] == "3"
        assert row["N0"] == "12"
        assert row["N1"] == "1"
        assert row["K0"] == "24"
        assert row["K1"] == "0"
        assert row["G0"] == "3"
        assert out.endswith("\n") and "\r" not in out

    def test_headline_column_order(self, run_cli):
        _, out, _ = run_cli("table", "--d-max", "1")
        header = out.splitlines()[0].split(",")
        assert header[:9] == ["d", "N0", "N1", "K0", "K1", "G0", "G1", "OMEGA", "M"]

    def test_json_single_record_at_degree_one(self, run_cli):
        code, out, _ = run_cli("table", "--d-max", "1", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        record = records[0]
        assert record["values"]["N0"] == "1"
        assert record["values"]["N1"] == "0"
        assert record["flags"]["N0"]["in_domain"] is True
        assert record["flags"]["N1"]["in_domain"] is True
        for name in ("K1", "G0", "M", "NODES", "RCOUNT", "LR", "K0_PRINTED"):
            assert record["flags"][name]["in_domain"] is False
            assert record["flags"][name]["reason"] == "BELOW_MIN_DEGREE"
        assert record["flags"]["K0"]["reason"] == "DEGENERATE_GEOMETRY"

    def test_out_of_domain_cells_still_hold_values(self, run_cli):
        _, out, _ = run_cli("table", "--d-max", "1", "--format", "json")
        record = json.loads(out)[0]
        assert record["values"]["M"] == "0"
        assert record["values"]["K0"] == "3"

    def test_invariant_selection(self, run_cli):
        code, out, _ = run_cli("table", "--d-max", "2", "--invariants", "N0,M")
        header = out.splitlines()[0].split(",")
        assert code == 0
        assert header == ["d", "N0", "M", "N0_flag", "M_flag"]

    def test_library_renders_a_column_subset_as_the_cli_does(self, run_cli):
        # The renderers take their columns from the records alone.
        records = build_records(InvariantEngine(), 3, (InvariantKind.N0,))
        for fmt, render in (("csv", render_csv), ("json", render_json)):
            code, out, _ = run_cli(
                "table", "--d-max", "3", "--invariants", "N0", "--format", fmt
            )
            assert code == 0 and render(records) == out

    def test_no_records_render_the_bare_header_and_an_empty_array(self):
        assert render_csv([]) == "d\n"
        assert render_json([]) == "[]\n"

    def test_json_carries_every_flag_variant_as_json_dumps_writes_it(self):
        records = build_records(InvariantEngine(), 4)
        variants = {
            (status.in_domain, status.reason, record.values[kind].denominator == 1)
            for record in records
            for kind, status in record.flags.items()
        }
        assert {
            (True, None, True),
            (False, "BELOW_MIN_DEGREE", True),
            (False, "DEGENERATE_GEOMETRY", True),
            (False, "DEGENERATE_GEOMETRY", False),
        } <= variants
        assert render_json(records) == _json_dumps_of_records(records)

    @pytest.mark.parametrize(
        "make_records",
        [lambda: [], lambda: build_records(InvariantEngine(), 3, ())],
        ids=["no-records", "no-columns"],
    )
    def test_json_without_records_or_columns_is_what_json_dumps_writes(
        self, make_records
    ):
        records = make_records()
        assert render_json(records) == _json_dumps_of_records(records)

    def test_unknown_selection_is_a_usage_error(self, run_cli):
        code, _, err = run_cli("table", "--d-max", "2", "--invariants", "N0,BOGUS")
        assert code == 2 and "unknown invariant" in err

    def test_csv_and_json_carry_identical_value_strings(self, run_cli):
        _, csv_out, _ = run_cli("table", "--d-max", "6")
        _, json_out, _ = run_cli("table", "--d-max", "6", "--format", "json")
        records = json.loads(json_out)
        lines = csv_out.splitlines()
        header = lines[0].split(",")
        for record, line in zip(records, lines[1:]):
            row = dict(zip(header, line.split(",")))
            for name, value in record["values"].items():
                assert row[name] == value

    def test_output_file(self, run_cli, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli("table", "--d-max", "4", "--output", str(target))
        assert code == 0 and out == ""
        _, direct, _ = run_cli("table", "--d-max", "4")
        assert target.read_text() == direct

    def test_unwritable_output_is_an_io_error(self, run_cli, tmp_path):
        target = tmp_path / "missing-dir" / "table.csv"
        code, _, err = run_cli("table", "--d-max", "3", "--output", str(target))
        assert code == 2 and err != ""

    def test_twelve_degrees_emit_in_under_a_second(self, run_cli):
        start = time.perf_counter()
        code, out, _ = run_cli("table", "--d-max", "12")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(out.splitlines()) == 13  # header + 12 records
        assert elapsed < 1.0


class TestAudit:
    def test_exit_zero_with_probes_reported(self, run_cli):
        code, out, _ = run_cli("audit", "--d-max", "5")
        assert code == 0
        assert "anchor_k0_d3" in out
        assert "k0_printed_vs_anchor" in out
        assert "ramification_residual" in out
        assert "0 FAIL" in out

    def test_d_max_three_includes_cusp_anchor(self, run_cli):
        code, out, _ = run_cli("audit", "--d-max", "3")
        assert code == 0
        assert "[PASS] ANCHOR" in out and "anchor_k0_d3" in out

    def test_d_max_below_three_is_a_usage_error(self, run_cli):
        code, out, err = run_cli("audit", "--d-max", "2")
        assert code == 2
        assert out == ""
        assert "d_max >= 3" in err

    def test_json_format(self, run_cli):
        code, out, _ = run_cli("audit", "--d-max", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["FAIL"] == 0
        assert obj["d_max"] == 4


# stdout sha256 of each command at commit 6855861.  The golden values
# stop at d = 12; these pin the d = 60 bytes across refactors.
D60_DIGESTS = {
    ("table", "csv"): "22fcdb095d420cc9f93553575ecd4f466cbc115f58d0ec37ca32e42d81c11990",
    ("table", "json"): "b52a1660974efbce694b1dfa17e3d5cda0c5696b692117372b9333cbe676b130",
    ("audit", "text"): "f68f07514d1e3195e07763216f2e34eb82de22fdfba80be61c35e7adaf1e1260",
    ("audit", "json"): "6050fd231faac91d9d481f5d5092499643f9de970d4c2d61a18269bd6d555c2a",
}

# The same at d = 100, recorded at commit 25a9101.
D100_DIGESTS = {
    ("table", "csv"): "42ce9ab32d3981e6372768e73b1dd0db04c13d71487728545637cf47d01003a6",
    ("table", "json"): "2ec358be17bd3bbce2c680995bbff7556eb7cf2eca361873c1d45f47c7e5fb4e",
    ("audit", "text"): "2b531619076c1c997739e45a7cf2f1a047b793972e7c00bf1a3743a2e21debbb",
    ("audit", "json"): "777e5d6366bbfd1ea77465c842d759c1a693b545fb2749dc3d8b30541f61ad46",
}

# The same for the column subset ``--invariants k0,N1,G1`` at d = 12,
# recorded at commit 931f1b7.
SUBSET_DIGESTS = {
    "csv": "27fdbc281c52097b0cfbd8e2bdb66dde22e20aec1db3294964406c341c20d3fb",
    "json": "3863c7a9ae0749f3ce069608babeeb54b9f27c8a49956581d4ed060ffa7e8349",
}


# stdout sha256 of ``eval N1 200`` and ``eval N0 572``, recorded at
# commit 2332325.
EVAL_N1_200_DIGEST = "15ea0ea927f27aa7c0ac1f5ac9fe567335bf88178ad0097d40b05969f0058590"
EVAL_N0_572_DIGEST = "3cf9b2253b482cb8b1084aafec3347c13811562032cb7cd60e4f13273c5db8df"


class TestDeterminism:
    def test_eval_n1_200_output_matches_recorded_digest(self, run_cli):
        code, out, _ = run_cli("eval", "N1", "200")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EVAL_N1_200_DIGEST

    @pytest.mark.parametrize("command,fmt", sorted(D60_DIGESTS))
    def test_degree_sixty_output_matches_recorded_digest(self, run_cli, command, fmt):
        code, out, _ = run_cli(command, "--d-max", "60", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == D60_DIGESTS[command, fmt]

    @pytest.mark.parametrize("command,fmt", sorted(D100_DIGESTS))
    def test_degree_hundred_output_matches_recorded_digest(self, run_cli, command, fmt):
        code, out, _ = run_cli(command, "--d-max", "100", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == D100_DIGESTS[command, fmt]

    @pytest.mark.parametrize("fmt", sorted(SUBSET_DIGESTS))
    def test_column_subset_output_matches_recorded_digest(self, run_cli, fmt):
        code, out, _ = run_cli(
            "table", "--d-max", "12", "--invariants", "k0,N1,G1", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUBSET_DIGESTS[fmt]

    def test_repeated_runs_are_byte_identical_in_process(self, run_cli):
        outputs = set()
        for _ in range(3):
            _, out, _ = run_cli("table", "--d-max", "12", "--format", "json")
            outputs.add(out)
        assert len(outputs) == 1
        outputs = set()
        for _ in range(3):
            _, out, _ = run_cli("audit", "--d-max", "6")
            outputs.add(out)
        assert len(outputs) == 1

    def test_subprocess_runs_are_byte_identical(self, tmp_path):
        env = dict(os.environ, PYTHONHASHSEED="random")
        argv = [sys.executable, "-m", "severi", "table", "--d-max", "12"]
        first = subprocess.run(argv, capture_output=True, env=env)
        second = subprocess.run(argv, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.decode().startswith("d,N0,N1,")


class TestCorruptedEngine:
    """A corrupted N0 entry makes an exact division fail inside the engine."""

    @pytest.fixture(autouse=True)
    def corrupted(self, monkeypatch):
        def make():
            engine = InvariantEngine()
            engine.n0(5)
            engine._n0[4] += 1
            return engine

        monkeypatch.setattr(cli, "InvariantEngine", make)

    @pytest.mark.parametrize(
        "argv", [("eval", "N1", "6"), ("table", "--d-max", "12")]
    )
    def test_eval_and_table_fail_with_one_error_line(self, run_cli, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert _one_error_line(err)
        assert "d=4" in err

    def test_audit_reports_the_failure_with_exit_one(self, run_cli):
        code, out, _ = run_cli("audit", "--d-max", "12")
        assert code == 1
        assert "[FAIL] IDENTITY          d=4   exact_division" in out
        assert (
            "[FAIL] ANCHOR            d=4   anchor_n0_d4                 "
            "actual=621 expected=620\n"
        ) in out


class TestUsage:
    def test_no_command_is_a_usage_error(self, run_cli):
        code, _, err = run_cli()
        assert code == 2 and err != ""

    def test_version_flag(self, run_cli):
        code, out, _ = run_cli("--version")
        assert code == 0 and out.startswith("severi ")


def _child(code: str, *args: str) -> str:
    """stdout of ``code`` run by a ``python -S`` child (no site hooks)
    that imports severi from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestStartup:
    def test_importing_the_cli_loads_no_json_dataclasses_inspect_pathlib_or_argparse(
        self,
    ):
        # dataclasses imports inspect, ast, dis and tokenize, pathlib
        # imports fnmatch, ntpath and urllib.parse, json imports its
        # decoder, encoder and scanner, and argparse imports gettext, whose
        # first lookup imports locale: a cost every command would pay at
        # start-up.
        code = (
            "import sys, severi.cli; print(sorted({'argparse', 'dataclasses', "
            "'gettext', 'inspect', 'json', 'locale', 'pathlib'} & set(sys.modules)))"
        )
        assert _child(code) == "[]\n"

    def test_importing_the_package_loads_only_its_version(self):
        code = "import sys, severi; print(sorted(m for m in sys.modules if 'severi' in m))"
        assert _child(code) == "['severi', 'severi._version']\n"

    @pytest.mark.parametrize(
        "argv, loads_audit, loads_argparse",
        [
            (["eval", "K0", "3"], False, False),
            (["table", "--d-max", "3"], False, False),
            (["--version"], False, False),
            (["audit", "--d-max", "3"], True, False),
            (["-h"], False, True),
        ],
        ids=["eval", "table", "version", "audit", "help"],
    )
    def test_only_audit_loads_the_audit_module_and_only_help_loads_argparse(
        self, argv, loads_audit, loads_argparse
    ):
        code = (
            "import sys; from severi.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'severi.audit' in sys.modules, 'argparse' in sys.modules)"
        )
        last = _child(code, *argv).splitlines()[-1]
        assert last == f"0 {loads_audit} {loads_argparse}"
