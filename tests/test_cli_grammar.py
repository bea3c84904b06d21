"""The CLI's two parsers: ``cli._parse_fast`` for well-formed commands and
argparse (``cli.build_parser``) for help and everything else.

A namespace from the fast parser must be the one argparse returns for the
same argv; help and usage errors must keep argparse's bytes.
"""

from __future__ import annotations

import importlib.util
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from severi import cli

ROOT = Path(__file__).resolve().parents[1]

VERBS = ("eval", "table", "audit")
OPTIONS = ("--d-max", "--format", "--invariants", "--output")
# A unique prefix of each option, which argparse takes as an abbreviation.
PREFIXES = ("--d", "--f", "--i", "--o")
VALUES = ("3", "-3", " 3", "3.0", "", "csv", "json", "text", "xml", "N0,N1", "-")
POOL = VERBS + OPTIONS + PREFIXES + ("--d-max=3", "-h", "--version", "--") + VALUES

# Pool values that argparse takes for each argument, in some verb.
TAKES = {
    "invariant": ("3", " 3", "3.0", "", "csv", "json", "text", "xml", "N0,N1"),
    "d": ("3", " 3"),
    "--d-max": ("3", " 3"),
    "--format": ("csv", "json", "text"),
    "--invariants": ("N0,N1", "3", ""),
    "--output": ("3", "json", ""),
}


def _argument(name: str):
    """One positional, or one option with its value: a value argparse
    takes about as often as any pool value."""
    value = st.sampled_from(TAKES[name]) | st.sampled_from(VALUES)
    return value.map(lambda v: [v] if name[0] != "-" else [name, v])


def _edit(argv: list[str], at: int, tokens: list[str], replace: bool) -> list[str]:
    argv[at : at + replace] = tokens
    return argv[:6]


def _command(verb: str):
    """``verb`` with its two positionals, or with ``--d-max`` and up to two
    other options in any order; then one token perhaps replaced by a pool
    token, dropped, or preceded by one."""
    if verb == "eval":
        names = st.just(["invariant", "d"])
    else:
        names = st.lists(st.sampled_from(OPTIONS[1:]), unique=True, max_size=2).flatmap(
            lambda rest: st.permutations(["--d-max", *rest])
        )
    body = names.flatmap(lambda names: st.tuples(*map(_argument, names)))
    return st.builds(
        lambda arguments, *edit: _edit([verb] + sum(arguments, []), *edit),
        body,
        st.integers(0, 6),
        st.lists(st.sampled_from(POOL), max_size=1),
        st.booleans(),
    )


# argv of length 0..6 from the pool: any tokens, or a command built from
# the grammar and then perhaps edited.  Only well-formed commands reach
# the fast parser, and random tokens rarely form one.
ARGVS = st.lists(st.sampled_from(POOL), max_size=6) | st.sampled_from(VERBS).flatmap(
    _command
)


def _argparse(argv: list[str]):
    """(vars of the namespace, or the SystemExit; stdout; stderr) of
    argparse on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            result = exc
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(ARGVS)
@example(["table", "--d-max", "3", "--format", "json", "--output", "-"])
@example(["table", "--d-max", " 3", "--d-max", "3.0"])
@example(["eval", "N0,N1", "3"])
@example(["eval", "", " 3"])
@example(["audit", "--output", "3", "--d-max", "3", "--format", "text"])
def test_a_fast_namespace_is_the_one_argparse_returns(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        fast = cli._parse_fast(argv)
    assert out.getvalue() == err.getvalue() == ""
    if fast is None or argv == ["--version"]:
        return
    assert _argparse(argv) == (vars(fast), "", "")


def test_version_alone_takes_the_fast_path_and_prints_what_argparse_prints(run_cli):
    assert cli._parse_fast(["--version"]) is not None
    result, out, err = _argparse(["--version"])
    assert isinstance(result, SystemExit) and result.code == 0 and err == ""
    assert run_cli("--version") == (0, out, "")


def _readme_examples() -> list[list[str]]:
    block = (ROOT / "README.md").read_text().split("## CLI\n", 1)[1].split("```")[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("severi ")
    ]


def _workload_argvs() -> list[list[str]]:
    """Every command the benchmark's workloads can issue, in the forms
    they issue it (the first commands of each stream, whose
    ``--invariants`` order varies by seed, and every reference command)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    commands = list(workloads.reference_commands())
    for name in workloads.WORKLOADS:
        stream = workloads.commands(name, 0)
        commands += [next(stream) for _ in range(30)]
    return [list(command.argv) for command in commands]


@pytest.mark.parametrize("source", [_readme_examples, _workload_argvs])
def test_every_readme_example_and_workload_command_takes_the_fast_path(source):
    argvs = source()
    assert {argv[0] for argv in argvs} == set(VERBS)
    for argv in argvs:
        fast = cli._parse_fast(argv)
        assert fast is not None, argv
        assert _argparse(argv) == (vars(fast), "", "")


USAGE = json.loads((ROOT / "tests" / "golden" / "cli_usage.json").read_text())


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != USAGE["python"],
    reason="argparse's help and error wording differ between Python versions",
)
@pytest.mark.parametrize(
    "case", USAGE["cases"], ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_help_and_usage_errors_keep_argparse_bytes(run_cli, monkeypatch, case):
    # argparse wraps help to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])
