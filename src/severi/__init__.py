"""Exact plane-curve counting and formula auditing.

Computes, in exact rational arithmetic, the counts of degree-d plane
curves through general points -- rational (``n0``) and elliptic
(``n1``) Severi degrees, one-cuspidal counts (``k0``, ``k1``), and the
linear genera of the corresponding families (``g0``, ``g1``) -- plus
the splitting statistics they are assembled from, and an audit suite
that pins the implementation to hand-derived anchors and keeps two
documented formula discrepancies reproducible.

Importing the package loads only its version: each public name (and
each submodule) is imported on first access, so a command that never
touches the audit never loads ``severi.audit``.
"""

from ._version import __version__

# Home module of each public name.
_PUBLIC = {
    "audit": (
        "AuditCheck", "AuditReport", "CheckKind", "CheckStatus", "run_full_audit",
    ),
    "engine": (
        "BELOW_MIN_DEGREE", "DEGENERATE_GEOMETRY", "InvariantEngine", "InvariantKind",
        "KIND_ORDER", "domain_status",
    ),
    "exact": ("ExactScalar", "format_exact", "is_integral", "parse_exact"),
    "tables": ("InvariantRecord", "build_records", "render_csv", "render_json"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(["__version__", *_HOME])


def __getattr__(name: str):
    from importlib import import_module

    if name in _PUBLIC:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
