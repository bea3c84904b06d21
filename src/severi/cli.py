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
# load severi.audit; argparse is imported only by build_parser.
import sys
from types import SimpleNamespace

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

_VERSION = f"severi {__version__}"

# Each verb's help line and arguments, as argparse's add_argument keywords:
# the one declaration that both _parse_fast and build_parser read.
_GRAMMAR = {
    "eval": ("print one invariant value", {"invariant": {}, "d": {"type": int}}),
    "table": ("emit an invariant table", {
        "--d-max": {"type": int, "required": True},
        "--format": {"choices": ("csv", "json"), "default": "csv"},
        "--invariants": {"help": "comma-separated invariant names (default: all)"},
        "--output": {},
    }),
    "audit": ("run anchor/identity/probe suites", {
        "--d-max": {"type": int, "required": True},
        "--format": {"choices": ("text", "json"), "default": "text"},
        "--output": {},
    }),
}


def build_parser():
    """argparse's parser for ``_GRAMMAR``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="severi",
        description=(
            "Exact plane-curve counts: rational/elliptic degrees, "
            "one-cuspidal counts, linear genera, and formula audits."
        ),
    )
    parser.add_argument("--version", action="version", version=_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_line, arguments) in _GRAMMAR.items():
        verb_parser = sub.add_parser(verb, help=help_line)
        for name, spec in arguments.items():
            verb_parser.add_argument(name, **spec)
    return parser


def _parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for ``--version`` alone, or for a
    verb with exact option names, each followed by a value, and exactly its
    positionals, no value or positional starting with ``-``; else None."""
    if argv == ["--version"]:
        return SimpleNamespace(command="--version")
    if not argv or argv[0] not in _GRAMMAR:
        return None
    arguments = _GRAMMAR[argv[0]][1]
    positionals = iter([name for name in arguments if name[0] != "-"])
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name, token = token, next(tokens, "-")
        else:
            name = next(positionals, None)
        spec = arguments.get(name)
        if spec is None or token.startswith("-"):
            return None
        try:
            given[name] = value = spec.get("type", str)(token)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
    parsed = {"command": argv[0]}
    for name, spec in arguments.items():
        if name not in given and spec.get("required", name[0] != "-"):
            return None
        parsed[name.lstrip("-").replace("-", "_")] = given.get(name, spec.get("default"))
    return SimpleNamespace(**parsed)


def _write_output(output: str | None, render, *args) -> None:
    """``render(*args, out)`` into the ``--output`` file, opened only now that
    every value is computed, or else into ``sys.stdout`` as it is now."""
    if output is None:
        render(*args, sys.stdout)
        sys.stdout.flush()
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            render(*args, handle)


def _cmd_eval(args: SimpleNamespace) -> int:
    kind = kind_named(args.invariant)
    value, status = InvariantEngine().evaluate(kind, args.d)
    line = " ".join([format_exact(value)] + flag_tokens(status, value))
    sys.stdout.write(line + "\n")
    return EXIT_OK


def _cmd_table(args: SimpleNamespace) -> int:
    kinds = select_kinds(args.invariants)
    records = build_records(InvariantEngine(), args.d_max, kinds)
    render = render_csv if args.format == "csv" else render_json
    _write_output(args.output, render, records)
    return EXIT_OK


def _cmd_audit(args: SimpleNamespace) -> int:
    from .audit import run_full_audit

    report = run_full_audit(InvariantEngine(), args.d_max)
    render = report.to_text if args.format == "text" else report.to_json
    _write_output(args.output, render)
    return EXIT_AUDIT_FAIL if report.has_blocking_failure else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_fast(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            # argparse printed the help, the version or a usage error;
            # keep its exit code.
            return int(exc.code) if exc.code is not None else EXIT_OK
    if args.command == "--version":
        sys.stdout.write(_VERSION + "\n")
        return EXIT_OK
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
