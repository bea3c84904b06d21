"""The same bytes on every supported Python: ``requires-python`` is
``>=3.10``, and the tier-1 suite runs on one interpreter only.

The slow test runs a few CLI commands under every other CPython >= 3.10
that it can find and start, one per minor version, and compares their
stdout digests, stderr and exit codes with the running interpreter's.
It looks first at the sibling installs of a pyenv layout
(``versions/3.1*/bin/python3`` next to this interpreter's version
directory), then at ``python3.1x`` on PATH, and skips if it finds none.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path
from subprocess import PIPE

import pytest

from conftest import spawn_python

COMMANDS = [
    ("audit", "--d-max", "12"),
    ("audit", "--d-max", "12", "--format", "json"),
    ("table", "--d-max", "20", "--format", "json"),
    ("eval", "G1", "3"),
    ("eval", "N1", "60"),
    ("eval", "N0", "572"),
]

_PROBE = "import sys; print(sys.implementation.name, sys.version_info[1])"


def _other_pythons() -> list[str]:
    """One interpreter per CPython 3.x minor >= 10 other than this one's,
    among those that start."""
    candidates = sorted(map(str, Path(sys.executable).parents[2].glob("3.1*/bin/python3")))
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    found = {sys.version_info[1]: sys.executable}
    for python in candidates:
        try:
            probe = subprocess.run(
                [python, "-c", _PROBE], stdout=PIPE, stderr=PIPE, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        name, _, minor = probe.stdout.partition(" ")
        if probe.returncode == 0 and name == "cpython" and int(minor) >= 10:
            found.setdefault(int(minor), python)
    del found[sys.version_info[1]]
    return list(found.values())


def _run(python: str, argv: tuple[str, ...]) -> tuple[str, bytes, int]:
    child = spawn_python("-m", "severi", *argv, python=python, stdout=PIPE, stderr=PIPE)
    out, err = child.communicate()
    return hashlib.sha256(out).hexdigest(), err, child.returncode


@pytest.mark.slow
def test_every_other_python_writes_the_same_bytes():
    others = _other_pythons()
    if not others:
        pytest.skip("no other CPython >= 3.10 found")
    for argv in COMMANDS:
        expected = _run(sys.executable, argv)
        assert expected[1:] == (b"", 0), argv
        for python in others:
            assert _run(python, argv) == expected, (python, argv)
