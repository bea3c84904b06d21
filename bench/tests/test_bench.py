"""Self-tests of the benchmark harness.

    python -m pytest bench/tests -q

They run the CLI in-process from ``src/`` and, for the set-up and
result-line checks, as a few short subprocesses.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from severi.cli import main as cli_main  # noqa: E402

REFS = check.References(run.REFERENCES)
TABLE_CSV = workloads.table_command(12, "csv", workloads.KIND_ORDER)
TABLE_JSON = workloads.table_command(12, "json", workloads.KIND_ORDER)
AUDIT_TEXT = workloads.audit_command(12, "text")
AUDIT_JSON = workloads.audit_command(12, "json")


def stdout_of(command: workloads.Command) -> str:
    code, out, err = run.in_process(cli_main, command.argv)
    assert (code, err) == (0, b"")
    return out.decode()


def verify(command: workloads.Command, text: str) -> check.Outcome:
    return REFS.verify(command.key, 0, text.encode(), b"")


def bump_last_digit(number: str) -> str:
    return number[:-1] + str((int(number[-1]) + 1) % 10)


@pytest.mark.parametrize(
    "command",
    [TABLE_CSV, TABLE_JSON, AUDIT_TEXT, AUDIT_JSON, workloads.eval_command("G1", 3)],
    ids=lambda command: command.key,
)
def test_current_output_matches_its_reference_byte_for_byte(command):
    assert verify(command, stdout_of(command)) == (True, True, None)


def test_one_digit_change_in_a_table_cell_fails():
    lines = stdout_of(TABLE_CSV).splitlines()
    header, row = lines[0].split(","), lines[7].split(",")
    column = header.index("N1")
    row[column] = bump_last_digit(row[column])
    lines[7] = ",".join(row)
    outcome = verify(TABLE_CSV, "\n".join(lines) + "\n")
    assert not outcome.ok and not outcome.identical


def test_one_digit_change_in_an_audit_actual_fails():
    report = json.loads(stdout_of(AUDIT_JSON))
    report["checks"][20]["actual"] = bump_last_digit(report["checks"][20]["actual"])
    assert not verify(AUDIT_JSON, json.dumps(report, indent=2) + "\n").ok

    lines = stdout_of(AUDIT_TEXT).splitlines()
    index = next(i for i, line in enumerate(lines) if "actual=87304 " in line)
    lines[index] = lines[index].replace("actual=87304 ", "actual=87305 ")
    assert not verify(AUDIT_TEXT, "\n".join(lines) + "\n").ok


def test_an_extra_json_field_is_not_a_failure():
    report = json.loads(stdout_of(AUDIT_JSON))
    report["provenance"] = {"engine": "test"}
    for entry in report["checks"]:
        entry["paths"] = ["first", "second"]
    outcome = verify(AUDIT_JSON, json.dumps(report, indent=2) + "\n")
    assert outcome.ok and not outcome.identical

    records = json.loads(stdout_of(TABLE_JSON))
    records[0]["source"] = "memo"
    assert verify(TABLE_JSON, json.dumps(records, indent=2) + "\n").ok


def test_an_added_csv_column_is_not_a_failure():
    lines = [line + ",x" for line in stdout_of(TABLE_CSV).splitlines()]
    lines[0] = lines[0][:-1] + "source"
    outcome = verify(TABLE_CSV, "\n".join(lines) + "\n")
    assert outcome.ok and not outcome.identical


def test_stderr_output_or_an_unexpected_exit_fails():
    text = stdout_of(AUDIT_TEXT).encode()
    assert not REFS.verify(AUDIT_TEXT.key, 0, text, b"warning\n").ok
    assert not REFS.verify(AUDIT_TEXT.key, 1, text, b"").ok


def test_a_version_only_run_yields_setup_s():
    with run.Spawner() as spawner:
        seconds = run.setup_probe(spawner)
    assert 0 < seconds < 30


def test_the_calibration_program_runs_isolated_from_the_repository():
    with run.Spawner() as spawner:
        assert run.calibration_probe(spawner) > 0
        isolated = spawner.run(["-I", "-c", "import severi"])
    assert isolated.code != 0 and b"ModuleNotFoundError" in isolated.stderr


def test_the_seed_changes_shell_argv_but_not_heavy_degrees():
    def argvs(workload, seed):
        return [c.argv for c in islice(workloads.commands(workload, seed), 40)]

    assert argvs("shell", 1) != argvs("shell", 2)
    for workload, degree in (("table", "100"), ("audit", "100"), ("deep", "200")):
        for seed in (1, 2, 3):
            for argv in argvs(workload, seed):
                assert argv[2] == degree


def test_every_command_a_workload_issues_has_a_reference():
    keys = {c.key for c in workloads.reference_commands()}
    assert keys == set(REFS.commands)
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            assert {c.key for c in islice(workloads.commands(workload, seed), 200)} <= keys


def traced_table_csv() -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        run.in_process(lambda argv: tracer.run_command(cli_main, argv), TABLE_CSV.argv)
    finally:
        tracer.uninstall()
    return tracer


def test_a_traced_command_reaches_its_layers_and_wrappers_come_off():
    import severi.cli

    original = severi.cli.build_records
    tracer = traced_table_csv()
    self_time, calls, roots = tracer.layer_totals()
    assert sum(self_time.values()) == pytest.approx(roots, rel=1e-9)
    assert calls["cli.main"] == 1 and calls["tables.build_records"] == 1
    assert calls["engine.t_op"] > 0
    assert tracer.problems(run.VERB_LAYERS["table"]) == []
    assert severi.cli.build_records is original


def test_a_layer_that_was_wrapped_but_never_called_is_a_problem():
    tracer = traced_table_csv()
    assert tracer.problems(["audit.anchor"]) == [
        "layer audit.anchor was wrapped but recorded no call"
    ]
    tracer.installed.discard("audit.anchor")
    assert tracer.problems(["audit.anchor"]) == []


def test_a_span_outside_its_parent_is_a_problem():
    tracer = traced_table_csv()
    child = next(span for span in tracer.spans if span.parent is not None)
    tracer.spans[tracer.spans.index(child)] = child._replace(end=child.end + 3600.0)
    assert tracer.problems([]) == [f"span {child.id} ({child.name}) is not inside its parent"]


def test_wrapping_a_function_twice_is_refused():
    import severi.cli

    original = severi.cli.build_records
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="already wrapped"):
            Tracer().install()
    finally:
        tracer.uninstall()
    assert severi.cli.build_records is original


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_every_metric_in_one_result_line(trace, capsys):
    assert run.main(["--workload", "shell", "--seed", "1", "--seconds", "0.1", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_without_the_program_it_exits_nonzero_and_prints_no_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-src")
    assert run.main(["--workload", "deep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
