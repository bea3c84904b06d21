"""Output checks: parse CLI stdout into its content and compare it with
the committed references.

A reference holds two digests per canonical command:

* ``content_sha256`` -- of the *parsed* content: eval value and flags,
  table cells and flags, audit checks as (id, degree, status, actual,
  expected) plus the summary.  Any changed number fails; fields the
  parser does not read (an added JSON key, an added CSV column, a
  changed report header) do not.
* ``stdout_sha256`` -- of the raw bytes.  A mismatch is reported as
  "not byte-identical" but is not a failure.

CSV and JSON tables (and text and JSON audits) of one selection parse
to the same content, which the recorder cross-checks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path
from typing import NamedTuple

VERSION_LINE = re.compile(r"severi \S+\n")
_CHECK_LINE = re.compile(
    r"\[(?P<status>[A-Z]+)\]\s+\S+\s+d=(?P<degree>\d+)\s+(?P<id>\S+)\s+"
    r"actual=(?P<actual>\S+)(?:\s+expected=(?P<expected>\S+))?"
)
_SUMMARY_LINE = re.compile(r"summary: (\d+) PASS, (\d+) FAIL, (\d+) INFO")


def _json_flags(flags: dict) -> list[str]:
    tokens = []
    if not flags["in_domain"] and flags["reason"]:
        tokens.append(flags["reason"])
    if not flags["integral"]:
        tokens.append("non-integral")
    return tokens


def _table_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    column = {name: i for i, name in enumerate(header)}
    kinds = [name for name in header[1:] if f"{name}_flag" in column]
    return [
        [
            int(row[column["d"]]),
            {
                kind: [row[column[kind]], row[column[f"{kind}_flag"]].split()]
                for kind in kinds
            },
        ]
        for row in body
    ]


def _table_json(text: str) -> list:
    return [
        [
            record["d"],
            {
                kind: [value, _json_flags(record["flags"][kind])]
                for kind, value in record["values"].items()
            },
        ]
        for record in json.loads(text)
    ]


def _audit_text(text: str) -> dict:
    checks, summary = [], None
    for line in text.splitlines():
        if line.startswith("["):
            match = _CHECK_LINE.match(line)
            if match is None:
                raise ValueError(f"unparsable audit line: {line!r}")
            checks.append(
                [
                    match["id"],
                    int(match["degree"]),
                    match["status"],
                    match["actual"],
                    match["expected"],
                ]
            )
        elif line.startswith("summary:"):
            summary = [int(n) for n in _SUMMARY_LINE.match(line).groups()]
    return {"checks": checks, "summary": summary}


def _audit_json(text: str) -> dict:
    obj = json.loads(text)
    return {
        "checks": [
            [c["id"], c["degree"], c["status"], c["actual"], c["expected"]]
            for c in obj["checks"]
        ],
        "summary": [obj["summary"][s] for s in ("PASS", "FAIL", "INFO")],
    }


def _eval(text: str) -> list:
    lines = text.splitlines()
    if len(lines) != 1:
        raise ValueError(f"eval printed {len(lines)} lines")
    value, *flags = lines[0].split()
    return [value, flags]


def parse(key: str, stdout: str) -> object:
    """The content of one command's stdout; raises on malformed output."""
    verb = key.split()[0]
    if verb == "eval":
        return _eval(stdout)
    fmt = key.split("--format ")[1].split()[0]
    if verb == "table":
        return _table_csv(stdout) if fmt == "csv" else _table_json(stdout)
    if verb == "audit":
        return _audit_text(stdout) if fmt == "text" else _audit_json(stdout)
    raise ValueError(f"no parser for {key!r}")


def content_digest(key: str, stdout: str) -> str:
    canonical = json.dumps(parse(key, stdout), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Outcome(NamedTuple):
    ok: bool
    identical: bool
    reason: str | None


class References:
    """Recorded per-command references (see ``references.json``)."""

    def __init__(self, path: Path) -> None:
        payload = json.loads(path.read_text(encoding="utf-8"))
        self.commit: str = payload["commit"]
        self.commands: dict[str, dict] = payload["commands"]

    def verify(self, key: str, code: int, stdout: bytes, stderr: bytes) -> Outcome:
        """Fail on an unexpected exit code, any stderr output, or content
        that differs from the reference."""
        ref = self.commands.get(key)
        if ref is None:
            return Outcome(False, False, f"no reference for {key!r}")
        identical = hashlib.sha256(stdout).hexdigest() == ref["stdout_sha256"]
        if code != ref["exit"]:
            return Outcome(False, identical, f"exit {code}, expected {ref['exit']}")
        if stderr:
            return Outcome(False, identical, f"stderr: {stderr[:200]!r}")
        try:
            digest = content_digest(key, stdout.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, csv.Error) as exc:
            return Outcome(False, identical, f"unparsable output: {exc!r}")
        if digest != ref["content_sha256"]:
            return Outcome(False, identical, "content differs from the reference")
        return Outcome(True, identical, None)
