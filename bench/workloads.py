"""The benchmark's workloads: seeded argv streams for the ``severi`` CLI.

Each command carries a canonical ``key``; references are stored under
it.  The argv the program receives may differ from the key only in ways
that cannot change the output (the order of an ``--invariants`` list),
so one reference serves every seed.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Iterator, NamedTuple

# Canonical column order of the CLI's tables; kept here so that the
# benchmark does not import the package it measures.
KIND_ORDER = (
    "N0", "N1", "K0", "K1", "G0", "G1",
    "OMEGA", "M", "K0_PRINTED", "NODES", "RCOUNT", "LR",
)

WORKLOADS = ("shell", "table", "audit", "deep")

SHELL_D_MAX = 12
HEAVY_D_MAX = 100
DEEP_DEGREE = 200

TABLE_FORMATS = ("csv", "json")
AUDIT_FORMATS = ("text", "json")

# Invariant selections a user might type for a small table.
SHELL_TABLE_SUBSETS = (
    KIND_ORDER,
    ("N0", "N1"),
    ("N0", "N1", "K1"),
    ("K0",),
    ("K0", "K0_PRINTED"),
    ("G0", "G1"),
    ("OMEGA", "M"),
    ("NODES", "RCOUNT", "LR"),
    ("N0", "N1", "K0", "K1", "G0", "G1"),
)

# The shell mix has no usage data behind it.  The ROADMAP names one
# small case per verb (`eval K0 3`, `table --d-max 12`, `audit --d-max
# 12`) with no weights, so the verbs get equal weights.  Every block of
# three shell commands holds one of each, so the share of each command
# type, and with it the median, does not vary by seed.
SHELL_BLOCK = (("eval", 1), ("table", 1), ("audit", 1))


class Command(NamedTuple):
    key: str
    argv: tuple[str, ...]


def eval_command(kind: str, d: int) -> Command:
    argv = ("eval", kind, str(d))
    return Command(" ".join(argv), argv)


def table_command(
    d_max: int, fmt: str, kinds: tuple[str, ...], rng: random.Random | None = None
) -> Command:
    canonical = [kind for kind in KIND_ORDER if kind in kinds]
    typed = list(canonical)
    if rng is not None:
        rng.shuffle(typed)
    head = ("table", "--d-max", str(d_max), "--format", fmt, "--invariants")
    key = " ".join(head + (",".join(canonical),))
    return Command(key, head + (",".join(typed),))


def audit_command(d_max: int, fmt: str) -> Command:
    argv = ("audit", "--d-max", str(d_max), "--format", fmt)
    return Command(" ".join(argv), argv)


def reference_commands() -> list[Command]:
    """Every canonical command any workload can issue, for any seed."""
    commands = [
        eval_command(kind, d)
        for kind in KIND_ORDER
        for d in range(1, SHELL_D_MAX + 1)
    ]
    commands += [
        table_command(SHELL_D_MAX, fmt, subset)
        for subset in SHELL_TABLE_SUBSETS
        for fmt in TABLE_FORMATS
    ]
    commands += [audit_command(SHELL_D_MAX, fmt) for fmt in AUDIT_FORMATS]
    commands += [table_command(HEAVY_D_MAX, fmt, KIND_ORDER) for fmt in TABLE_FORMATS]
    commands += [audit_command(HEAVY_D_MAX, fmt) for fmt in AUDIT_FORMATS]
    commands.append(eval_command("N1", DEEP_DEGREE))
    return commands


def _shell(rng: random.Random) -> Iterator[Command]:
    while True:
        block = [verb for verb, n in SHELL_BLOCK for _ in range(n)]
        rng.shuffle(block)
        for verb in block:
            if verb == "eval":
                yield eval_command(rng.choice(KIND_ORDER), rng.randint(1, SHELL_D_MAX))
            elif verb == "table":
                subset = rng.choice(SHELL_TABLE_SUBSETS)
                yield table_command(SHELL_D_MAX, rng.choice(TABLE_FORMATS), subset, rng)
            else:
                yield audit_command(SHELL_D_MAX, rng.choice(AUDIT_FORMATS))


def _alternating(formats: tuple[str, str], rng: random.Random) -> Iterator[str]:
    first = rng.randrange(2)
    for i in count():
        yield formats[(first + i) % 2]


def commands(workload: str, seed: int) -> Iterator[Command]:
    """Endless command stream for ``workload``; the same seed gives the
    same stream.  The seed picks the shell mix and, on the heavy
    workloads, only the format order and the ``--invariants`` order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "shell":
        return _shell(rng)
    if workload == "table":
        return (
            table_command(HEAVY_D_MAX, fmt, KIND_ORDER, rng)
            for fmt in _alternating(TABLE_FORMATS, rng)
        )
    if workload == "audit":
        return (
            audit_command(HEAVY_D_MAX, fmt)
            for fmt in _alternating(AUDIT_FORMATS, rng)
        )
    if workload == "deep":
        deep = eval_command("N1", DEEP_DEGREE)
        return (deep for _ in count())
    raise ValueError(f"unknown workload {workload!r}")
