from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["severi", "severi.engine", "severi.audit", "severi.tables"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
