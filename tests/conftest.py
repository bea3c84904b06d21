from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from severi import InvariantEngine
from severi import audit
from severi.cli import main as cli_main

GOLDEN_PATH = Path(__file__).parent / "golden" / "invariants_d12.json"


@pytest.fixture(scope="session")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def golden_value(golden: dict, name: str, d: int) -> Fraction:
    return Fraction(golden[name][str(d)])


def audit_second_paths(engine: InvariantEngine, d: int) -> tuple[Fraction, ...]:
    """T(d), K1(d), G0(d), NODES(d), RCOUNT(d), LR(d) and m(d) from the
    audit's second paths, with N0 and N1 below d read through the public
    methods, as ``run_identity_suite`` reads them."""
    n0 = [0, *(engine.n0(k).numerator for k in range(1, d))]
    n1 = [0, *(engine.n1(k).numerator for k in range(1, d))]
    t, sums = audit._t_direct(n0, n1, d), audit._splitting_sums(n0, d)
    two_m, two_nodes, rcount, lr = sums
    return (
        Fraction(t), audit._k1_via_c2(engine, t, d),
        audit._g0_from_splitting_sum(engine, sums, d),
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
