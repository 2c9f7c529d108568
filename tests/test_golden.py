"""Byte identity of CLI output: every call of tests/golden.json must give
the (exit code, stdout, stderr) whose digest was recorded there by
tests/record_golden.py."""

import json

from record_golden import GOLDEN, digest, golden_calls, write_documents


def test_golden_digests_are_reproduced(tmp_path, monkeypatch):
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [e["argv"] for e in entries] == golden_calls()
    write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    changed = [e["argv"] for e in entries if digest(e["argv"]) != e["sha256"]]
    assert not changed
