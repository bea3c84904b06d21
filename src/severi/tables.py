"""Invariant table records and their CSV/JSON renderings.

Values are always emitted as exact strings (plain decimal, or ``p/q``
in lowest terms); native JSON numbers are never used for values because
the counts outgrow 64-bit range within a few degrees.  Every selected
invariant appears in every record, with a flag field carrying its
domain status and integrality, so the schema is stable for downstream
parsing.  Rendering is byte-deterministic.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .exact import ExactScalar, format_exact, is_integral
from .engine import (
    DomainStatus,
    InvariantEngine,
    InvariantKind,
    KIND_ORDER,
    _check_degree,
)


class CellFlags(NamedTuple):
    status: DomainStatus
    integral: bool


class InvariantRecord(NamedTuple):
    """One degree's worth of invariant values and flags."""

    d: int
    values: dict[InvariantKind, ExactScalar]
    flags: dict[InvariantKind, CellFlags]


def flag_tokens(flags: CellFlags) -> list[str]:
    """Short flag words: the out-of-domain reason, then integrality."""
    tokens = []
    if not flags.status.in_domain and flags.status.reason:
        tokens.append(flags.status.reason)
    if not flags.integral:
        tokens.append("non-integral")
    return tokens


def select_kinds(names: str | None) -> tuple[InvariantKind, ...]:
    """Resolve a comma-separated kind list (None/empty means all), kept
    in canonical column order."""
    if not names:
        return KIND_ORDER
    wanted = set()
    for raw in names.split(","):
        name = raw.strip().upper()
        if not name:
            continue
        try:
            wanted.add(InvariantKind(name))
        except ValueError:
            known = ", ".join(kind.value for kind in KIND_ORDER)
            raise ValueError(f"unknown invariant {raw.strip()!r} (known: {known})")
    if not wanted:
        raise ValueError("invariant selection is empty")
    return tuple(kind for kind in KIND_ORDER if kind in wanted)


def build_records(
    engine: InvariantEngine,
    d_max: int,
    kinds: tuple[InvariantKind, ...] = KIND_ORDER,
) -> list[InvariantRecord]:
    """One record per degree 1..d_max, with d_max checked before any work."""
    _check_degree(d_max)
    records = []
    for d in range(1, d_max + 1):
        values: dict[InvariantKind, ExactScalar] = {}
        flags: dict[InvariantKind, CellFlags] = {}
        for kind in kinds:
            value, status = engine.evaluate(kind, d)
            values[kind] = value
            flags[kind] = CellFlags(status=status, integral=is_integral(value))
        records.append(InvariantRecord(d=d, values=values, flags=flags))
    return records


def render_csv(
    records: list[InvariantRecord], kinds: tuple[InvariantKind, ...] = KIND_ORDER
) -> str:
    """Comma-separated table: value columns in canonical order, then one
    flag column per invariant.  UTF-8, LF line endings, header row."""
    header = (
        ["d"]
        + [kind.value for kind in kinds]
        + [f"{kind.value}_flag" for kind in kinds]
    )
    lines = [",".join(header)]
    for record in records:
        row = [str(record.d)]
        row += [format_exact(record.values[kind]) for kind in kinds]
        row += [" ".join(flag_tokens(record.flags[kind])) for kind in kinds]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def records_to_json_obj(
    records: list[InvariantRecord], kinds: tuple[InvariantKind, ...] = KIND_ORDER
) -> list[dict]:
    out = []
    for record in records:
        out.append(
            {
                "d": record.d,
                "values": {
                    kind.value: format_exact(record.values[kind]) for kind in kinds
                },
                "flags": {
                    kind.value: {
                        "in_domain": record.flags[kind].status.in_domain,
                        "reason": record.flags[kind].status.reason,
                        "integral": record.flags[kind].integral,
                    }
                    for kind in kinds
                },
            }
        )
    return out


def render_json(
    records: list[InvariantRecord], kinds: tuple[InvariantKind, ...] = KIND_ORDER
) -> str:
    return json.dumps(records_to_json_obj(records, kinds), indent=2) + "\n"


__all__ = [
    "CellFlags",
    "InvariantRecord",
    "build_records",
    "flag_tokens",
    "records_to_json_obj",
    "render_csv",
    "render_json",
    "select_kinds",
]
