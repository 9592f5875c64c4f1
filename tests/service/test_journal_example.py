"""The committed journal example and its schema lint tool."""

import json
import os

from repro.service import JournalStorage, LeaseService
from repro.service.storage import JOURNAL_NAME

from tests.conftest import check_schema

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "data",
                       "journal_example.jsonl")


def test_committed_example_recovers_cleanly(tmp_path):
    directory = str(tmp_path / "j")
    os.makedirs(directory)
    with open(EXAMPLE) as src, \
            open(os.path.join(directory, JOURNAL_NAME), "w") as dst:
        dst.write(src.read())
    service = LeaseService.recover(JournalStorage(directory), seed=7)
    assert service.violations == []
    assert not service.recovery.degraded
    assert service.state.op_seq == 20


def test_lint_tool_passes_the_example_and_fails_garbage(tmp_path,
                                                        capsys):
    assert check_schema("journal", "--replay", EXAMPLE) == 0
    out = capsys.readouterr().out
    assert "fingerprint" in out

    with open(EXAMPLE) as handle:
        lines = handle.read().splitlines()
    record = json.loads(lines[3])
    record["op"] = "frobnicate"
    lines[3] = json.dumps(record, sort_keys=True,
                          separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert check_schema("journal", str(bad)) == 1  # crc no longer matches

    gap = tmp_path / "gap.jsonl"
    gap.write_text("\n".join(lines[:3] + lines[5:6]) + "\n")
    assert check_schema("journal", str(gap)) == 1
    assert check_schema("journal", str(tmp_path / "absent.jsonl")) == 1
    capsys.readouterr()
