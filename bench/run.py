"""Benchmark of the ``severi`` CLI.

    python3 bench/run.py --workload {shell,table,audit,deep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is run from
``src/`` as ``python -m severi``.  With ``--trace 0`` the workload's
commands run as subprocesses in a closed loop (one client, one child at
a time) for S seconds and the end-to-end metrics are reported.  With
``--trace 1`` the same commands run in-process under a span recorder
for S seconds and the per-layer metrics are reported.  Every
invocation's output is checked against ``bench/references.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name
every metric with its unit.  Exit code 2 without a result means the
program could not be found or started.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import check
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"

PROBES = 15
START_SAMPLES = 7
CHILD_TIMEOUT_S = 60.0

# This machine's speed changes from second to second and drifts by
# +-20 % over minutes (user CPU time moves with the wall time, so it is
# not scheduling).  A measured run therefore also times this fixed
# program, which uses nothing from the repository (``python -I``), before
# and after every sample, and scales each sample by CALIBRATION_REF_MS /
# the mean of those two times: a scaled sample is what the run would
# have measured at the speed where the program takes CALIBRATION_REF_MS.
# The program has the workloads' arithmetic, a Fraction recursion over
# big binomials, plus interpreter start.
CALIBRATION = """\
from fractions import Fraction
from math import comb
n = [Fraction(0), Fraction(1)]
for d in range(2, 80):
    s = Fraction(0)
    for a in range(1, d):
        b = d - a
        s += n[a] * n[b] * (a * a * b * b * comb(3 * d - 4, 3 * a - 2)
                            - a ** 3 * b * comb(3 * d - 4, 3 * a - 1))
    n.append(s)
print(n[-1].numerator.bit_length())
"""
CALIBRATION_STDOUT = b"1280\n"
CALIBRATION_REF_MS = 125.0

# Layers the traced run must reach, by the verb of a command it ran and
# by workload, if their functions exist to be wrapped.
VERB_LAYERS = {
    "eval": ("engine.dispatch",),
    "table": ("engine.dispatch", "tables.build_records", "tables.render"),
    "audit": ("audit.full", "audit.anchor", "audit.identity", "audit.probes", "audit.render"),
}
WORKLOAD_LAYERS = {
    "shell": (),
    "table": ("engine.n0", "engine.n1", "engine.t_op", "engine.derived"),
    "audit": ("engine.n0", "engine.n1", "engine.t_op", "engine.derived"),
    "deep": ("engine.n0", "engine.n1"),
}


class SetupError(Exception):
    """The program is missing or does not start."""


class Invocation(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    wall_ms: float
    maxrss_kb: int


class Spawner:
    """Runs ``python <args>`` children one at a time through ``spawner.py``
    (see there for why a separate launcher); a context manager that
    stops the launcher and removes its files on exit."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self._stdout = OUT_DIR / f"child-{os.getpid()}.stdout"
        self._stderr = OUT_DIR / f"child-{os.getpid()}.stderr"
        self._buffer = b""
        self._proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc_info) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._stdout.unlink(missing_ok=True)
        self._stderr.unlink(missing_ok=True)

    def _reply(self, timeout: float) -> dict:
        deadline = perf_counter() + timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError
            chunk = os.read(fd, 4096)
            if not chunk:
                raise SetupError("the child launcher exited")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def run(self, args: list[str], timeout: float = CHILD_TIMEOUT_S) -> Invocation:
        """Run one child to exit; its wall time runs from spawn to reaping,
        with stdout written out, and ``os.wait4`` gives its peak RSS."""
        request = {
            "argv": [sys.executable, *args],
            "stdout": str(self._stdout),
            "stderr": str(self._stderr),
        }
        self._proc.stdin.write(json.dumps(request).encode() + b"\n")
        self._proc.stdin.flush()
        pid = self._reply(timeout)["pid"]
        note = b""
        try:
            reply = self._reply(timeout)
        except TimeoutError:
            os.kill(pid, signal.SIGKILL)
            reply = self._reply(timeout)
            note = b"\nkilled after %.0f s" % timeout
        return Invocation(
            os.waitstatus_to_exitcode(reply["status"]),
            self._stdout.read_bytes(),
            self._stderr.read_bytes() + note,
            reply["wall_s"] * 1e3,
            reply["maxrss_kb"],
        )

    def severi(self, argv) -> Invocation:
        return self.run(["-m", "severi", *argv])


def setup_probe(spawner: Spawner) -> float:
    """Seconds of one ``python -m severi --version``: interpreter start,
    package import and parser, paid before any count."""
    run = spawner.severi(["--version"])
    if run.code != 0 or run.stderr or not check.VERSION_LINE.fullmatch(
        run.stdout.decode("utf-8", "replace")
    ):
        raise SetupError(
            f"`severi --version` failed: exit {run.code}, "
            f"stdout {run.stdout[:200]!r}, stderr {run.stderr[:200]!r}"
        )
    return run.wall_ms / 1e3


class Tally:
    """Attempted and failed invocations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.reasons: list[str] = []

    def add(self, key: str, outcome: check.Outcome) -> None:
        self.attempted += 1
        self.identical += outcome.identical
        if not outcome.ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{key}: {outcome.reason}")


def calibration_probe(spawner: Spawner) -> float:
    """Milliseconds of one run of the calibration program."""
    run = spawner.run(["-I", "-c", CALIBRATION])
    if run.code != 0 or run.stderr or run.stdout != CALIBRATION_STDOUT:
        raise SetupError(f"the calibration program failed: {run.stderr[:200]!r}")
    return run.wall_ms


def measured_run(spawner: Spawner, workload: str, seed: int, seconds: float, refs):
    setup_probe(spawner)  # compiles bytecode before anything is timed
    tally = Tally()
    # Unscaled and scaled ms of each sample.
    walls: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []
    calibrations = [calibration_probe(spawner)]
    peak_kb = 0
    stream = workloads.commands(workload, seed)
    start = perf_counter()
    while (elapsed := perf_counter() - start) < seconds or not walls:
        # Set-up probes are spread over the run rather than taken in one
        # burst, so that they see the same machine speed as the commands.
        if len(setups) <= len(walls) and elapsed >= len(setups) * seconds / PROBES:
            samples, ms = setups, setup_probe(spawner) * 1e3
        else:
            command = next(stream)
            run = spawner.severi(command.argv)
            samples, ms = walls, run.wall_ms
            peak_kb = max(peak_kb, run.maxrss_kb)
            tally.add(command.key, refs.verify(command.key, run.code, run.stdout, run.stderr))
        calibrations.append(calibration_probe(spawner))
        speed = (calibrations[-2] + calibrations[-1]) / 2
        samples.append((ms, ms * CALIBRATION_REF_MS / speed))
    metrics = {
        "wall_ms.p50": (statistics.median(scaled for _, scaled in walls), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(scaled for _, scaled in setups) / 1e3, "s"),
    }
    notes = [
        f"samples {len(walls)}, probes {len(setups)}",
        f"error_rate {tally.failed / tally.attempted:.6g} "
        f"({tally.failed}/{tally.attempted})",
        f"calibration median {statistics.median(calibrations):.6g} ms",
        f"unscaled wall_ms.p50 {statistics.median(ms for ms, _ in walls):.6g} ms, "
        f"setup_s {statistics.median(ms for ms, _ in setups) / 1e3:.6g} s",
        f"wall_ms.min {min(ms for ms, _ in walls):.6g} ms (unscaled, not a gated metric)",
    ]
    return tally, metrics, notes


def in_process(main: Callable[[list[str]], int], argv) -> tuple[int, bytes, bytes]:
    """Run ``main(argv)`` with stdout and stderr captured; an exception
    that escapes the CLI counts as a failed invocation, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            code = -1
            print(f"uncaught {exc!r}", file=sys.stderr)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _spawn_ms(spawner: Spawner, args: list[str]) -> float:
    run = spawner.run(args)
    if run.code != 0 or run.stderr:
        raise SetupError(f"python {' '.join(args)} failed: {run.stderr[:200]!r}")
    return run.wall_ms


def _startup_ms(spawner: Spawner) -> tuple[float, float, float]:
    """Median ms of a bare ``python -c pass``, of ``import severi.cli`` and
    of the calibration program, sampled in turn so that all three see
    the same machine speed."""
    bare, imported, calibrations = [], [], []
    for _ in range(START_SAMPLES):
        calibrations.append(calibration_probe(spawner))
        bare.append(_spawn_ms(spawner, ["-c", "pass"]))
        imported.append(_spawn_ms(spawner, ["-c", "import severi.cli"]))
    return statistics.median(bare), statistics.median(imported), statistics.median(calibrations)


def _cache_round_trip(workload: str, path: Path) -> tuple[float, float, bool]:
    """Save and reload, through severi.cachefile if the module exists, a
    fresh engine filled the same way on every run of ``workload``: every
    invariant to the workload's degree, and only N0 and N1 on ``deep``.
    Returns (save ms, load ms, entries equal)."""
    try:
        from severi import cachefile
    except ImportError:
        return 0.0, 0.0, True
    from severi.engine import InvariantEngine, InvariantKind

    engine = InvariantEngine()
    if workload == "deep":
        engine.fill(workloads.DEEP_DEGREE, (InvariantKind.N0, InvariantKind.N1))
    else:
        engine.fill(workloads.SHELL_D_MAX if workload == "shell" else workloads.HEAVY_D_MAX)
    start = perf_counter()
    cachefile.save_cache(engine, path)
    saved = perf_counter()
    entries = cachefile.load_cache(path)
    loaded = perf_counter()
    path.unlink()
    expected = {kind: table for kind, table in engine.snapshot().items() if table}
    return (saved - start) * 1e3, (loaded - saved) * 1e3, entries == expected


def traced_run(spawner: Spawner, workload: str, seed: int, seconds: float, refs):
    setup_probe(spawner)  # compiles bytecode first
    bare_ms, imported_ms, calibration_ms = _startup_ms(spawner)
    # Scaled like setup_s and wall_ms.p50 in the measured run, so that
    # the figures compare with them.
    scale = CALIBRATION_REF_MS / calibration_ms
    start_ms = bare_ms * scale
    import_ms = (imported_ms - bare_ms) * scale

    sys.path.insert(0, str(SRC))
    from severi.cli import main

    tracer = Tracer()
    traced_main = partial(tracer.run_command, main)
    tally = Tally()
    keys: list[str] = []
    traced_s = untraced_s = 0.0
    output_bytes = checks = 0
    stream = workloads.commands(workload, seed)
    start = perf_counter()
    while perf_counter() - start < seconds or not keys:
        command = next(stream)
        # Alternate which of the pair runs first, so that drift in the
        # machine's speed falls on both sides of the overhead ratio.
        for traced in (True, False) if len(keys) % 2 else (False, True):
            if traced:
                tracer.install()
                try:
                    result = in_process(traced_main, command.argv)
                finally:
                    tracer.uninstall()
                traced_s += tracer.spans[-1].end - tracer.spans[-1].start
                keys.append(command.key)
            else:
                t0 = perf_counter()
                result = in_process(main, command.argv)
                untraced_s += perf_counter() - t0
            outcome = refs.verify(command.key, *result)
            tally.add(command.key, outcome)
            if traced and outcome.ok and command.key.startswith("table"):
                output_bytes += len(result[1])
            if traced and outcome.ok and command.key.startswith("audit"):
                checks += len(check.parse(command.key, result[1].decode())["checks"])

    self_time, calls, roots = tracer.layer_totals()
    expected = set(WORKLOAD_LAYERS[workload])
    for key in keys:
        expected.update(VERB_LAYERS[key.split()[0]])
    for problem in tracer.problems(expected):
        tally.failed += 1
        tally.reasons.append(problem)
    tracer.write(OUT_DIR / f"trace-{workload}.jsonl", keys)
    save_ms, load_ms, cache_ok = _cache_round_trip(
        workload, OUT_DIR / f"cache-{workload}-{seed}.json"
    )
    if not cache_ok:
        tally.failed += 1
        tally.reasons.append("cache round trip changed the memo")

    n = len(keys)

    def ms(layer: str) -> float:
        return self_time.get(layer, 0.0) * 1e3 / n

    def per(layer: str) -> float:
        return calls.get(layer, 0) / n

    metrics = {
        "python.start_ms": (start_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main.self_ms": (ms("cli.main"), "ms/cmd"),
        "engine.n0.self_ms": (ms("engine.n0"), "ms/cmd"),
        "engine.n0.calls": (per("engine.n0"), "calls/cmd"),
        "engine.n1.self_ms": (ms("engine.n1"), "ms/cmd"),
        "engine.n1.calls": (per("engine.n1"), "calls/cmd"),
        "engine.value_bits.max": (tracer.value_bits, "bits"),
        "engine.t_op.self_ms": (ms("engine.t_op"), "ms/cmd"),
        "engine.t_op.calls": (per("engine.t_op"), "calls/cmd"),
        "engine.t_op.unique_ratio": (
            tracer.t_op_distinct / calls["engine.t_op"] if calls["engine.t_op"] else 0.0,
            "ratio",
        ),
        "engine.derived.self_ms": (ms("engine.derived"), "ms/cmd"),
        "engine.derived.calls": (per("engine.derived"), "calls/cmd"),
        "audit.anchor.self_ms": (ms("audit.anchor"), "ms/cmd"),
        "audit.identity.self_ms": (ms("audit.identity"), "ms/cmd"),
        "audit.probes.self_ms": (ms("audit.probes"), "ms/cmd"),
        "audit.render.self_ms": (ms("audit.render"), "ms/cmd"),
        "audit.checks": (checks / n, "checks/cmd"),
        "tables.build_records.self_ms": (ms("tables.build_records"), "ms/cmd"),
        "tables.render.self_ms": (ms("tables.render"), "ms/cmd"),
        "tables.output_bytes": (output_bytes / n, "bytes/cmd"),
        "cachefile.save_ms": (save_ms, "ms"),
        "cachefile.load_ms": (load_ms, "ms"),
        "trace.command_ms": (traced_s * 1e3 / n, "ms/cmd"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "output.identical_ratio": (tally.identical / tally.attempted, "ratio"),
    }
    shares = sorted(self_time.items(), key=lambda item: -item[1])
    notes = [
        f"traced commands {n}, spans {len(tracer.spans)}",
        f"calibration median {calibration_ms:.6g} ms, scale {scale:.6g}",
        f"unscaled python.start_ms {bare_ms:.6g} ms, "
        f"cli.import_ms {imported_ms - bare_ms:.6g} ms",
    ]
    notes += [f"share {layer} {100 * t / roots:.1f}%" for layer, t in shares]
    startup = imported_ms
    notes.append(
        f"share startup+import of a command "
        f"{100 * startup / (startup + traced_s * 1e3 / n):.1f}%"
    )
    return tally, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "severi" / "__init__.py").is_file():
        print(f"bench: no severi package under {SRC}", file=sys.stderr)
        return 2
    refs = check.References(REFERENCES)
    run = traced_run if args.trace else measured_run
    try:
        with Spawner() as spawner:
            tally, metrics, notes = run(spawner, args.workload, args.seed, args.seconds, refs)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, references from {refs.commit}")
    for note in notes + tally.reasons:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
