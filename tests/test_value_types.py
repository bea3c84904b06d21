from __future__ import annotations

from fractions import Fraction

import pytest

from severi.audit import AuditCheck, CheckKind, CheckStatus
from severi.tables import InvariantRecord

# Each value type with one instance and the defaults its fields declare.
VALUES = {
    "InvariantRecord": (InvariantRecord(d=1, values={}, flags={}), {}),
    "AuditCheck": (
        AuditCheck(id="x", degree=3, kind=CheckKind.ANCHOR, actual=Fraction(1)),
        {"expected": None, "status": CheckStatus.PASS, "detail": None},
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_are_immutable_and_keep_their_defaults(name):
    value, defaults = VALUES[name]
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert type(value)._field_defaults == defaults
    assert {field: getattr(value, field) for field in defaults} == defaults
    assert repr(value).startswith(f"{name}(")
