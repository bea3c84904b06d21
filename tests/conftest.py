from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from severi import InvariantEngine
from severi import audit
from severi.cli import main as cli_main

GOLDEN_PATH = Path(__file__).parent / "golden" / "invariants_d12.json"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def golden_value(golden: dict, name: str, d: int) -> Fraction:
    return Fraction(golden[name][str(d)])


def audit_rows(d: int) -> list[list[int]]:
    """C(3d-4, .) .. C(3d-1, .), the rows ``run_identity_suite`` keeps at
    degree d, each entry from ``math.comb`` rather than the audit's own
    Pascal steps."""
    return [[comb(n, k) for k in range(n + 1)] for n in range(3 * d - 4, 3 * d)]


def audit_second_paths(engine: InvariantEngine, d: int) -> tuple[Fraction, ...]:
    """T(d), K1(d), G0(d), NODES(d), RCOUNT(d), LR(d) and m(d) from the
    audit's second paths, with the lists a(k) = k N0(k), u(k) =
    (3k - 2) k N0(k) and b(k) = k N1(k) for k < d, the rows of
    :func:`audit_rows`, and N0(d), N1(d) and omega(d), all from the public
    methods, as ``run_identity_suite`` reads them."""
    a = [0, *(k * engine.n0(k).numerator for k in range(1, d))]
    u = [(3 * k - 2) * x for k, x in enumerate(a)]
    b = [0, *(k * engine.n1(k).numerator for k in range(1, d))]
    rows = audit_rows(d)
    t = audit._t_direct(u, b, d, rows[3])
    sums = audit._splitting_sums(a, d, rows)
    two_m, two_nodes, rcount, lr = sums
    return (
        Fraction(t), audit._k1_via_c2(engine.n1(d), engine.omega(d), t, d),
        audit._g0_from_splitting_sum(engine.n0(d), sums, d),
        Fraction(two_nodes, 2), Fraction(rcount), Fraction(lr), Fraction(two_m, 2),
    )


@pytest.fixture
def engine() -> InvariantEngine:
    return InvariantEngine()


@pytest.fixture
def run_cli(capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv: str) -> tuple[int, str, str]:
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def spawn_python(
    *args: str, redirect: str = "", env: dict | None = None,
    python: str = sys.executable, **popen
) -> subprocess.Popen:
    """Start ``python -X dev -W error ARGS`` (say ``-m severi eval N0 3``) on
    this checkout's source, so that a warning fails the child as
    ``filterwarnings`` fails the tests; through ``sh -c`` with the shell
    ``redirect`` (as ``>&-``) appended if one is given.  ``env`` adds
    variables to the environment; ``python`` is the interpreter, this one
    by default; ``popen`` goes to ``subprocess.Popen``."""
    argv = [python, "-X", "dev", "-W", "error", *args]
    if redirect:
        argv = ["sh", "-c", f"{shlex.join(argv)} {redirect}"]
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    return subprocess.Popen(argv, env=env, **popen)
