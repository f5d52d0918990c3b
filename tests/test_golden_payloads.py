"""Sweep payloads must stay byte-identical to the recorded benchmark goldens."""

import hashlib
import json
from pathlib import Path

import pytest

from vacuumresponse.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "golden", GOLDEN["payloads"], ids=lambda g: g["argv"][g["argv"].index("--format") + 1]
)
def test_payload_matches_golden(tmp_path, golden):
    out = tmp_path / "payload"
    assert main([*golden["argv"], "--out", str(out)]) == 0
    payload = out.read_bytes()
    assert len(payload) == golden["bytes"]
    assert hashlib.sha256(payload).hexdigest() == golden["sha256"]
