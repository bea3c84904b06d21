"""Each benchmark workload, traced in process on a small stand-in, reaches
every layer its traced run expects.

A traced benchmark run fails on a span outside its parent and on an
expected layer that was wrapped but recorded no call, for instance an
engine method that the program reaches through a private alias instead
of the public name the tracer wraps.  These tests run the benchmark's own
tracer, layer lists and in-process runner (``bench/run.py``,
``bench/workloads.py``, ``bench/tracer.py``) on commands small enough for
tier-1, so that such a fault fails here before a benchmark run.
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from severi.cli import main as cli_main  # noqa: E402

REFS = check.References(run.REFERENCES)
D_MAX = 12

# A small stand-in per workload: the same verbs, at small degrees.
STAND_INS = {
    "deep": [workloads.eval_command("N1", 30)],
    "table": [
        workloads.table_command(D_MAX, fmt, workloads.KIND_ORDER)
        for fmt in workloads.TABLE_FORMATS
    ],
    "audit": [workloads.audit_command(D_MAX, fmt) for fmt in workloads.AUDIT_FORMATS],
    "shell": [
        workloads.eval_command("K0", 3),
        workloads.table_command(D_MAX, "csv", workloads.KIND_ORDER),
        workloads.audit_command(D_MAX, "text"),
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_traced_stand_in_reaches_every_expected_layer(workload):
    tracer = Tracer()
    expected = set(run.WORKLOAD_LAYERS[workload])
    tracer.install()
    try:
        for command in STAND_INS[workload]:
            code, out, err = run.in_process(partial(tracer.run_command, cli_main), command.argv)
            if command.key in REFS.commands:
                assert REFS.verify(command.key, code, out, err).ok, command.key
            else:
                assert (code, err) == (0, b""), command.key
            expected.update(run.VERB_LAYERS[command.argv[0]])
    finally:
        tracer.uninstall()
    assert tracer.problems(expected) == []
