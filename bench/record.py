"""Record ``bench/references.json`` from the current checkout.

    python3 bench/record.py

Runs every command any workload can issue, once, as ``python -m
severi`` and stores its exit code, the digest of its parsed content and
the digest of its raw stdout.  Before writing, the content is
cross-checked against values computed elsewhere:

* d <= 12: ``tests/golden/invariants_d12.json`` (frozen from the
  oracle before the package was written);
* the heavy commands (d = 100, N1 at d = 200): ``tests/oracle.py``, the
  separately typed straight-line implementation.

Domain flags (``BELOW_MIN_DEGREE``, ``DEGENERATE_GEOMETRY``) have no
independent source and are taken from the recording commit as they are;
the ``non-integral`` flag is checked against the oracle's value.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
from fractions import Fraction

import check
import run
import workloads

GOLDEN = run.ROOT / "tests" / "golden" / "invariants_d12.json"
ORACLE_NAME = {
    "N0": "n0", "N1": "n1", "K0": "k0", "K0_PRINTED": "k0_printed",
    "K1": "k1", "G0": "g0", "G1": "g1", "OMEGA": "omega", "M": "m",
    "NODES": "nodes", "RCOUNT": "rcount", "LR": "lr",
}
AUDIT_INTEGRAL = {"n0", "n1", "k0", "k1", "g0"}
AUDIT_INFO = {"g1", "omega", "m"}
K0_PRINTED_D3 = "-60"


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Expected:
    """Independent values: golden for d <= 12, the oracle above."""

    def __init__(self) -> None:
        sys.path.insert(0, str(run.ROOT / "tests"))
        import oracle

        self.oracle = oracle
        self.golden = json.loads(GOLDEN.read_text())
        self.fns = {
            "n0": oracle.n0, "n1": oracle.n1, "omega": oracle.omega,
            "m": oracle.m_invariant, "nodes": oracle.nodes,
            "rcount": oracle.rcount, "lr": oracle.lr, "k0": oracle.k0,
            "k0_printed": oracle.k0_printed, "k1": oracle.k1,
            "k1_via_c2": oracle.k1_via_c2, "g0": oracle.g0, "g1": oracle.g1,
            "ramification_residual": oracle.ramification_residual,
        }

    def value(self, name: str, d: int) -> str:
        table = self.golden.get(name, {})
        if str(d) in table:
            return table[str(d)]
        return fmt(self.fns[name](d))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"record: cross-check failed: {message}")


def cross_check_eval(ex: Expected, key: str, content) -> None:
    _, kind, d = key.split()
    value, flags = content
    expected = ex.value(ORACLE_NAME[kind], int(d))
    _require(value == expected, f"{key}: {value} != {expected}")
    _require(("non-integral" in flags) == ("/" in expected), f"{key}: flags {flags}")


def cross_check_table(ex: Expected, key: str, content) -> None:
    d_max = int(key.split("--d-max ")[1].split()[0])
    kinds = key.split("--invariants ")[1].split(",")
    _require([d for d, _ in content] == list(range(1, d_max + 1)), f"{key}: degrees")
    for d, cells in content:
        _require(sorted(cells) == sorted(kinds), f"{key}: columns at d={d}")
        for kind, (value, flags) in cells.items():
            expected = ex.value(ORACLE_NAME[kind], d)
            _require(value == expected, f"{key}: {kind}({d}) {value} != {expected}")
            _require(
                ("non-integral" in flags) == ("/" in expected),
                f"{key}: {kind}({d}) flags {flags}",
            )


def _expected_check(ex: Expected, check_id: str, d: int) -> tuple[str, str | None, str]:
    """(actual, expected, status) of one audit check, from the oracle."""
    if check_id.startswith("anchor_"):
        name = ORACLE_NAME[check_id[len("anchor_"):check_id.rindex("_d")].upper()]
        value = ex.value(name, d)
        return value, value, "PASS"
    if check_id.startswith("integrality_"):
        name = check_id[len("integrality_"):]
        value = ex.value(name, d)
        if name in AUDIT_INFO:
            return value, None, "INFO"
        _require(name in AUDIT_INTEGRAL, f"unknown integrality check {check_id}")
        return value, None, "PASS" if "/" not in value else "FAIL"
    if check_id == "k1_two_path":
        return ex.value("k1_via_c2", d), ex.value("k1", d), "PASS"
    if check_id == "rcount_equals_nodes":
        return ex.value("nodes", d), ex.value("rcount", d), "PASS"
    if check_id == "g0_two_path":
        return ex.value("g0", d), ex.value("g0", d), "PASS"
    if check_id == "t_linearity":
        t = ex.oracle.t_weighted
        return fmt(3 * t(1, 0, d) - 2 * t(0, 1, d)), fmt(t(3, -2, d)), "PASS"
    if check_id == "k0_printed_vs_anchor":
        return ex.value("k0_printed", 3), K0_PRINTED_D3, "INFO"
    if check_id == "ramification_residual":
        value = ex.value("ramification_residual", d)
        return value, value if d <= 12 else None, "INFO"
    raise SystemExit(f"record: no independent value for audit check {check_id}")


def cross_check_audit(ex: Expected, key: str, content) -> None:
    statuses = {"PASS": 0, "FAIL": 0, "INFO": 0}
    for check_id, d, status, actual, expected in content["checks"]:
        want = _expected_check(ex, check_id, d)
        _require((actual, expected, status) == want, f"{key}: {check_id} d={d}")
        statuses[status] += 1
    _require(content["summary"] == list(statuses.values()), f"{key}: summary")


CROSS_CHECKS = {"eval": cross_check_eval, "table": cross_check_table, "audit": cross_check_audit}


def main() -> int:
    expected = Expected()
    commands = {}
    content_of_selection: dict[str, str] = {}
    with run.Spawner() as spawner:
        results = [(c, spawner.severi(c.argv)) for c in workloads.reference_commands()]
    for command, result in results:
        _require(result.code == 0 and not result.stderr, f"{command.key}: {result}")
        stdout = result.stdout.decode("utf-8")
        content = check.parse(command.key, stdout)
        CROSS_CHECKS[command.argv[0]](expected, command.key, content)
        digest = check.content_digest(command.key, stdout)
        # CSV/JSON (or text/JSON) renderings of one selection must agree.
        selection = command.key.split(" --format ")[0] + command.key.partition(" --invariants")[2]
        _require(
            content_of_selection.setdefault(selection, digest) == digest,
            f"{command.key}: formats disagree",
        )
        commands[command.key] = {
            "exit": result.code,
            "content_sha256": digest,
            "stdout_sha256": hashlib.sha256(result.stdout).hexdigest(),
        }
        print(f"recorded {command.key}", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    payload = {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "commands": commands,
    }
    run.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(commands)} references to {run.REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
