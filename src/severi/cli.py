"""Command-line interface.

Verbs::

    severi eval INVARIANT D
    severi table --d-max N [--format csv|json] [--invariants LIST]
                 [--output PATH]
    severi audit --d-max N [--format text|json] [--output PATH]

Exit codes: 0 success (and no blocking audit failure), 1 an anchor,
identity or integrality FAIL present (a discrepancy probe's FAIL does
not block), 2 usage, I/O or arithmetic error (a corrupted engine), 3 an
internal error (any other exception: a fault in this package, never
a check's verdict), 130 an interrupt (Ctrl-C), reported on one line.
Identical commands produce byte-identical output.

``entry()`` is the process entry of every launch: ``python -m severi``,
the ``severi`` console script and ``python -m severi.cli``.  It puts a
stand-in for a stderr closed at start, freezes the heap that the
imports built (``gc.freeze``), so that the collections at interpreter
exit no longer walk it, then returns ``main()``'s exit code.  ``main()``
changes no process-wide state, so an in-process caller keeps a heap the
collector can free.
"""

from __future__ import annotations

# The engine, format and table names stay module-level bindings: the
# benchmark's tracer wraps build_records, render_csv and render_json here,
# and its self-tests pin severi.cli.build_records.  The audit layer is
# imported per verb, in _cmd_audit, so eval, table and --version never
# load severi.audit; argparse is imported only by build_parser.
import gc
import io
import os
import sys
from types import SimpleNamespace

from ._version import __version__
from .engine import InvariantEngine
from .exact import emit, format_exact
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
EXIT_INTERNAL = 3
EXIT_INTERRUPTED = 130

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


def _to_devnull(fd: int) -> None:
    """Point ``fd`` at ``os.devnull`` (``os.open`` reuses a closed ``fd``)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    if devnull != fd:
        os.dup2(devnull, fd)
        os.close(devnull)


def _write_output(output: str | None, render, *args) -> None:
    """``render(*args, out)`` into the ``--output`` file, opened only now that
    every value is computed, or else into ``sys.stdout`` as it is now.  A
    reader that closes stdout early (``| head``) is not an error: the rest
    of the output goes to ``os.devnull``, so that the flush at exit cannot
    fail again, and the verb returns its own exit code.  A stdout closed
    before the start (``>&-``), which Python makes None, is an ``OSError``.
    A write or close that fails or is interrupted, by any exception,
    removes a regular file (not ``/dev/full``), so that no partial file is
    left behind."""
    if output is None:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        try:
            render(*args, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            _to_devnull(sys.stdout.fileno())
    else:
        handle = open(output, "w", encoding="utf-8", newline="\n")
        try:
            with handle:
                render(*args, handle)
        except BaseException:
            if os.path.isfile(output):
                os.remove(output)
            raise


def _to_stderr(text: str) -> None:
    """Write and flush ``text`` on stderr; if fd 2 is closed or failing, drop
    it as ``_write_output`` drops a broken stdout, keeping the exit code."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr.fileno())


def _cmd_eval(args: SimpleNamespace) -> int:
    kind = kind_named(args.invariant)
    value, reason = InvariantEngine().evaluate(kind, args.d)
    line = " ".join([format_exact(value)] + flag_tokens(reason, value))
    _write_output(None, emit, [line + "\n"])
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
    try:
        args = _parse_fast(argv) or build_parser().parse_args(argv, SimpleNamespace())
        if args.command == "--version":
            _write_output(None, emit, [_VERSION + "\n"])
            return EXIT_OK
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_audit(args)
    except SystemExit as exc:
        # argparse printed help, the version or a usage error: keep its code.
        _to_stderr("")
        return int(exc.code) if exc.code is not None else EXIT_OK
    except (ValueError, OSError, ArithmeticError) as exc:
        _to_stderr(f"severi: error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        _to_stderr(f"severi: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        _to_stderr("severi: interrupted\n")
        return EXIT_INTERRUPTED


def entry() -> int:
    """``main()``'s exit code, with the import-time heap frozen first.

    The objects alive now (about 12,000 after ``import severi.cli``) live
    until exit, where each finalizing collection would walk them again.
    Everything ``main`` makes stays collectable: a cycle that holds an
    open file is still found and finalized at exit, and its data flushed.
    A stderr closed at start, which Python makes None, is replaced by a
    stand-in first, as argparse would otherwise print its errors on
    stdout."""
    if sys.stderr is None:
        sys.stderr = io.StringIO()
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
