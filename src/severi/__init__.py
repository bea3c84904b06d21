"""Exact plane-curve counting and formula auditing.

Computes, in exact rational arithmetic, the counts of degree-d plane
curves through general points -- rational (``n0``) and elliptic
(``n1``) Severi degrees, one-cuspidal counts (``k0``, ``k1``), and the
linear genera of the corresponding families (``g0``, ``g1``) -- plus
the splitting statistics they are assembled from, and an audit suite
that pins the implementation to hand-derived anchors and keeps two
documented formula discrepancies reproducible.
"""

from ._version import __version__
from .audit import (
    AuditCheck,
    AuditReport,
    CheckKind,
    CheckStatus,
    run_anchor_suite,
    run_discrepancy_probes,
    run_full_audit,
    run_identity_suite,
)
from .engine import (
    BELOW_MIN_DEGREE,
    DEGENERATE_GEOMETRY,
    DomainStatus,
    InvariantEngine,
    InvariantKind,
    KIND_ORDER,
    domain_status,
)
from .exact import (
    ExactScalar,
    LinearWeight,
    format_exact,
    is_integral,
    parse_exact,
)
from .tables import InvariantRecord, build_records, render_csv, render_json

__all__ = [
    "AuditCheck",
    "AuditReport",
    "BELOW_MIN_DEGREE",
    "CheckKind",
    "CheckStatus",
    "DEGENERATE_GEOMETRY",
    "DomainStatus",
    "ExactScalar",
    "InvariantEngine",
    "InvariantKind",
    "InvariantRecord",
    "KIND_ORDER",
    "LinearWeight",
    "__version__",
    "build_records",
    "domain_status",
    "format_exact",
    "is_integral",
    "parse_exact",
    "render_csv",
    "render_json",
    "run_anchor_suite",
    "run_discrepancy_probes",
    "run_full_audit",
    "run_identity_suite",
]
