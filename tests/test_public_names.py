from __future__ import annotations

import importlib

import pytest

import severi
from test_cli import _child

# Where each name of severi.__all__ is defined, retyped here rather than
# read from the package.
HOMES = {
    "severi._version": ["__version__"],
    "severi.audit": [
        "AuditCheck", "AuditReport", "CheckKind", "CheckStatus", "run_full_audit",
    ],
    "severi.engine": [
        "BELOW_MIN_DEGREE", "DEGENERATE_GEOMETRY", "InvariantEngine", "InvariantKind",
        "KIND_ORDER", "domain_status",
    ],
    "severi.exact": ["ExactScalar", "format_exact", "is_integral", "parse_exact"],
    "severi.tables": ["InvariantRecord", "build_records", "render_csv", "render_json"],
}


@pytest.mark.parametrize(
    "module", ["severi", "severi.engine", "severi.audit", "severi.tables"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from severi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(severi.__all__)


@pytest.mark.parametrize(
    "home, name", [(home, name) for home, names in HOMES.items() for name in names]
)
def test_each_name_is_the_object_in_its_home_module(home, name):
    assert getattr(severi, name) is getattr(importlib.import_module(home), name)


def test_the_homes_cover_all():
    assert sorted(name for names in HOMES.values() for name in names) == sorted(
        severi.__all__
    )


def test_dir_lists_the_api():
    assert set(severi.__all__) <= set(dir(severi))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        severi.no_such_name
    assert not hasattr(severi, "Fraction")


def test_from_severi_import_a_submodule_still_imports_it():
    code = (
        "from severi import engine, tables; import severi; "
        "print(engine.__name__, tables.__name__, severi.audit.__name__)"
    )
    assert _child(code) == "severi.engine severi.tables severi.audit\n"
