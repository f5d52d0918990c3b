"""The payload corpus and the parser's text under every other interpreter found.

``pyproject.toml`` asks for Python >= 3.10, and the rest of the suite runs
under one interpreter.  This test looks for others in named places only:
three pyenv versions and the ``python3.N`` commands on ``PATH``.  A
candidate counts if it starts and reports a version >= 3.10 other than the
running one; each version counts once.  Under each, ``tests/payload_corpus.py
--check`` recomputes every pinned CLI output, the payload digests of the
whole corpus and the usage goldens; it imports no pytest.  The test is
skipped when no candidate is left.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

_PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
CANDIDATES = (
    *(str(_PYENV_VERSIONS / v / "bin" / "python3") for v in ("3.10.13", "3.12.1", "3.13.0")),
    "python3.10",
    "python3.12",
    "python3.13",
)


def _version(python):
    """``python``'s (major, minor), or None if it does not start."""
    try:
        probe = subprocess.run(
            [python, "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if probe.returncode != 0:
        return None
    try:
        return tuple(ast.literal_eval(probe.stdout.strip()))
    except (SyntaxError, TypeError, ValueError):
        return None


def _other_interpreters():
    """One candidate per version >= 3.10 other than the running one."""
    found = {}
    for python in CANDIDATES:
        version = _version(python)
        if version and version >= (3, 10) and version != sys.version_info[:2]:
            found.setdefault(version, python)
    return found


def test_payloads_and_usage_text_match_under_every_other_interpreter():
    found = _other_interpreters()
    if not found:
        pytest.skip("no other interpreter >= 3.10 among the candidates")
    failures = []
    for _, python in sorted(found.items()):
        done = subprocess.run(
            [python, str(TESTS / "payload_corpus.py"), "--check"],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            failures.append((python, done.stdout[-2000:], done.stderr[-2000:]))
    assert failures == []
