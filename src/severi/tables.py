"""Invariant table records and their CSV/JSON renderings.

Values are always emitted as exact strings (plain decimal, or ``p/q``
in lowest terms); native JSON numbers are never used for values because
the counts outgrow 64-bit range within a few degrees.  A record holds
every selected invariant, in column order, with its value and domain
status; the renderers take their columns from the records themselves,
and every cell's flag carries its domain status and integrality, so the
schema is stable for downstream parsing.  Rendering is
byte-deterministic.  The JSON is written directly from a template of
the fixed schema, without the ``json`` module, and is byte-identical to
``json.dumps(..., indent=2)`` of the same records as nested dicts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, TextIO

from .exact import ExactScalar, emit, format_exact, is_integral, json_exact, json_string
from .engine import InvariantEngine, InvariantKind, KIND_ORDER, _check_degree


class InvariantRecord(NamedTuple):
    """One degree's invariant values and their domain flags, each flag the
    ``domain_status`` reason (None inside), keyed by invariant in order."""

    d: int
    values: dict[InvariantKind, ExactScalar]
    flags: dict[InvariantKind, str | None]


def flag_tokens(reason: str | None, value: ExactScalar) -> list[str]:
    """Short flag words: the out-of-domain reason, then integrality."""
    tokens = [reason] if reason else []
    if not is_integral(value):
        tokens.append("non-integral")
    return tokens


def kind_named(name: str) -> InvariantKind:
    """The invariant called ``name``, in any letter case."""
    try:
        return InvariantKind(name.upper())
    except ValueError:
        known = ", ".join(kind.value for kind in KIND_ORDER)
        raise ValueError(f"unknown invariant {name!r} (known: {known})") from None


def select_kinds(names: str | None) -> tuple[InvariantKind, ...]:
    """Resolve a comma-separated kind list in canonical column order: None
    (the option left out) means all; naming no kind, even "", is a ValueError."""
    if names is None:
        return KIND_ORDER
    wanted = set()
    for raw in names.split(","):
        name = raw.strip()
        if name:
            wanted.add(kind_named(name))
    if not wanted:
        raise ValueError("invariant selection is empty")
    return tuple(kind for kind in KIND_ORDER if kind in wanted)


def build_records(
    engine: InvariantEngine,
    d_max: int,
    kinds: Iterable[InvariantKind | str] = KIND_ORDER,
) -> list[InvariantRecord]:
    """One record per degree 1..d_max, with d_max checked and ``kinds``
    (members or their names) resolved before any work."""
    _check_degree(d_max)
    kinds = tuple(map(InvariantKind, kinds))
    records = []
    for d in range(1, d_max + 1):
        values: dict[InvariantKind, ExactScalar] = {}
        flags: dict[InvariantKind, str | None] = {}
        for kind in kinds:
            values[kind], flags[kind] = engine.evaluate(kind, d)
        records.append(InvariantRecord(d=d, values=values, flags=flags))
    return records


def render_csv(records: list[InvariantRecord], out: TextIO | None = None) -> str | None:
    """Comma-separated table: one value column per invariant of the
    records, in their order, then one flag column per invariant (no
    records: the bare ``d`` header).  UTF-8, LF line endings, header row.
    Returned as a string if ``out`` is None, else written to the text
    stream ``out`` in batches of about 64 KiB (see ``exact.emit``)."""
    return emit(_csv_lines(records), out)


def _csv_lines(records: list[InvariantRecord]) -> Iterator[str]:
    kinds = list(records[0].values) if records else []
    header = (
        ["d"]
        + [kind.value for kind in kinds]
        + [f"{kind.value}_flag" for kind in kinds]
    )
    yield ",".join(header) + "\n"
    for record in records:
        row = [str(record.d)]
        row += [format_exact(record.values[kind]) for kind in kinds]
        row += [
            " ".join(flag_tokens(record.flags[kind], record.values[kind]))
            for kind in kinds
        ]
        yield ",".join(row) + "\n"


def render_json(records: list[InvariantRecord], out: TextIO | None = None) -> str | None:
    """JSON array with one object per record: its degree, its values as
    exact strings, and per invariant the domain status and integrality.
    The bytes are those of ``json.dumps`` with ``indent=2``, returned or
    written to ``out`` as ``render_csv`` does."""
    return emit(_json_records(records), out)


def _json_records(records: list[InvariantRecord]) -> Iterator[str]:
    separator = "[\n"
    for record in records:
        yield separator + _record_json(record)
        separator = ",\n"
    yield "\n]\n" if records else "[]\n"


def _json_members(lines: list[str]) -> str:
    """A record's nested object from its member lines."""
    return "{\n" + ",\n".join(lines) + "\n    }" if lines else "{}"


def _record_json(record: InvariantRecord) -> str:
    values = [
        f'      "{kind.value}": {json_exact(value)}'
        for kind, value in record.values.items()
    ]
    flags = [
        f'      "{kind.value}": {{\n'
        f'        "in_domain": {str(reason is None).lower()},\n'
        f'        "reason": {json_string(reason)},\n'
        f'        "integral": {str(is_integral(record.values[kind])).lower()}\n'
        "      }"
        for kind, reason in record.flags.items()
    ]
    return (
        f'  {{\n    "d": {record.d},\n    "values": {_json_members(values)},\n'
        f'    "flags": {_json_members(flags)}\n  }}'
    )


__all__ = [
    "InvariantRecord",
    "build_records",
    "flag_tokens",
    "kind_named",
    "render_csv",
    "render_json",
    "select_kinds",
]
