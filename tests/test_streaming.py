"""The renderers write to a text stream in batches of about 64 KiB.

Given ``out``, each renderer writes the same bytes that it returns
without one, in a few batches, and never holds the whole document; the
CLI passes its stdout or ``--output`` file in, and opens the file only
after the values are computed.
"""

from __future__ import annotations

import hashlib
import io
import math
import sys
import tracemalloc
from functools import partial

import pytest

from severi import InvariantEngine, tables
from severi.audit import run_full_audit
from severi.cli import main
from severi.exact import BATCH_CHARS
from severi.tables import build_records, render_csv, render_json
from test_cli import D100_DIGESTS


class Sink:
    """A text stream that records every write."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


class NullSink:
    """A text stream that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


@pytest.fixture(scope="module")
def documents():
    """Each renderer bound to its d = 100 input, by name, with the length
    of its largest single piece (a line, or a record's or check's JSON)."""
    records = build_records(InvariantEngine(), 100)
    report = run_full_audit(InvariantEngine(), 100)
    renderers = {
        "render_csv": (partial(render_csv, records), tables._csv_lines(records)),
        "render_json": (partial(render_json, records), tables._json_records(records)),
        "to_text": (report.to_text, report._text_lines()),
        "to_json": (report.to_json, report._json_pieces()),
    }
    return {
        name: (render, max(map(len, pieces)))
        for name, (render, pieces) in renderers.items()
    }


@pytest.mark.parametrize("name", ["render_csv", "render_json", "to_text", "to_json"])
def test_streaming_writes_the_returned_bytes_in_bounded_batches(documents, name):
    render, largest_piece = documents[name]
    sink = Sink()
    assert render(sink) is None
    assert "".join(sink.writes) == render()
    assert len(sink.writes) > 1
    assert max(map(len, sink.writes)) <= BATCH_CHARS + largest_piece
    # Every batch but the last is full.
    assert min(map(len, sink.writes[:-1])) >= BATCH_CHARS


@pytest.mark.parametrize(
    "render, expected", [(render_csv, "d\n"), (render_json, "[]\n")]
)
def test_an_empty_table_is_one_write(render, expected):
    sink = Sink()
    assert render([], sink) is None
    assert sink.writes == [expected]
    assert render([]) == expected


@pytest.mark.parametrize("name", ["render_csv", "render_json", "to_text", "to_json"])
def test_streaming_holds_at_most_a_batch(documents, name):
    render, _ = documents[name]
    tracemalloc.start()
    try:
        render(NullSink())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The whole document is 273-616 KiB, and returning it peaks at
    # 552-1305 KiB; one batch and its pieces take about 150 KiB.
    assert peak < 256 * 1024


class CountingStdout(io.StringIO):
    """Stands in for a write-through stdout: counts write calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def write(self, text: str) -> int:
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["audit", "--d-max", "100"], D100_DIGESTS["audit", "text"]),
        (["table", "--d-max", "100", "--format", "json"], D100_DIGESTS["table", "json"]),
    ],
)
def test_the_cli_makes_few_writes_to_stdout(monkeypatch, argv, digest):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv)
    data = stdout.getvalue().encode("utf-8")
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == digest
    assert stdout.calls <= math.ceil(len(data) / BATCH_CHARS) + 1


@pytest.mark.parametrize(
    "argv",
    [["table", "--d-max", "601"], ["audit", "--d-max", "2"]],
)
def test_a_failed_command_leaves_no_output_file(run_cli, tmp_path, argv):
    target = tmp_path / "out.txt"
    code, out, err = run_cli(*argv, "--output", str(target))
    assert code == 2
    assert out == "" and err.startswith("severi: error:")
    assert not target.exists()


@pytest.mark.parametrize("command, fmt", sorted(D100_DIGESTS))
def test_an_output_file_holds_the_stdout_bytes(run_cli, tmp_path, command, fmt):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        command, "--d-max", "100", "--format", fmt, "--output", str(target)
    )
    assert code == 0 and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == D100_DIGESTS[command, fmt]
