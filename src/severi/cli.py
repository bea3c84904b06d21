"""Command-line interface.

Verbs::

    severi eval INVARIANT D
    severi table --d-max N [--format csv|json] [--invariants LIST]
                 [--output PATH]
    severi audit --d-max N [--format text|json] [--output PATH]

Exit codes: 0 success (and no blocking audit failure), 1 audit FAIL
present, 2 usage, I/O or arithmetic error (a corrupted engine).
Identical commands produce byte-identical output.
"""

from __future__ import annotations

# The engine, format and table names stay module-level bindings: the
# benchmark's tracer wraps build_records, render_csv and render_json here,
# and its self-tests pin severi.cli.build_records.  The audit layer is
# imported per verb, in _cmd_audit, so eval, table and --version never
# load severi.audit.
import argparse
import sys

from ._version import __version__
from .engine import InvariantEngine
from .exact import format_exact
from .tables import (
    build_records,
    flag_tokens,
    kind_named,
    render_csv,
    render_json,
    select_kinds,
)

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="severi",
        description=(
            "Exact plane-curve counts: rational/elliptic degrees, "
            "one-cuspidal counts, linear genera, and formula audits."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"severi {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print one invariant value")
    p_eval.add_argument("invariant")
    p_eval.add_argument("d", type=int)

    p_table = sub.add_parser("table", help="emit an invariant table")
    p_table.add_argument("--d-max", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument(
        "--invariants",
        default=None,
        help="comma-separated invariant names (default: all)",
    )
    p_table.add_argument("--output", default=None)

    p_audit = sub.add_parser("audit", help="run anchor/identity/probe suites")
    p_audit.add_argument("--d-max", type=int, required=True)
    p_audit.add_argument("--format", choices=("text", "json"), default="text")
    p_audit.add_argument("--output", default=None)

    return parser


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _cmd_eval(args: argparse.Namespace) -> int:
    kind = kind_named(args.invariant)
    value, status = InvariantEngine().evaluate(kind, args.d)
    line = " ".join([format_exact(value)] + flag_tokens(status, value))
    sys.stdout.write(line + "\n")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    kinds = select_kinds(args.invariants)
    records = build_records(InvariantEngine(), args.d_max, kinds)
    text = render_csv(records) if args.format == "csv" else render_json(records)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import run_full_audit

    report = run_full_audit(InvariantEngine(), args.d_max)
    text = report.to_text() if args.format == "text" else report.to_json()
    _write_output(text, args.output)
    return EXIT_AUDIT_FAIL if report.has_blocking_failure else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; keep its code.
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_audit(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"severi: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
