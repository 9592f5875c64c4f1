"""The telemetry event schema and its validator."""

import json
import os

from repro.telemetry.schema import (
    SCHEMA_VERSION,
    canonical_events,
    canonical_json,
    parse_lines,
    strip_wallclock,
    validate_event,
    validate_events,
    validate_stream_file,
)

from tests.conftest import check_schema

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "data",
                       "telemetry_example.jsonl")


def _event(**overrides):
    base = {"v": SCHEMA_VERSION, "event": "shard_started",
            "stream": "shard-000000", "seq": 0, "fp": "ab" * 6,
            "t_wall": 1.0, "shard": 0, "start": 0, "stop": 4,
            "mode": "kernel"}
    base.update(overrides)
    return base


def test_valid_event_has_no_problems():
    assert validate_event(_event()) == []


def test_unknown_event_type_is_a_problem():
    problems = validate_event(_event(event="shard_imploded"))
    assert any("unknown event type" in p for p in problems)


def test_missing_required_field_is_a_problem():
    event = _event()
    del event["stop"]
    problems = validate_event(event)
    assert any("'stop'" in p for p in problems)


def test_missing_envelope_field_is_a_problem():
    event = _event()
    del event["seq"]
    assert any("envelope" in p for p in validate_event(event))


def test_schema_version_mismatch_is_a_problem():
    problems = validate_event(_event(v=SCHEMA_VERSION + 1))
    assert any("schema version" in p for p in problems)


def test_extra_fields_are_allowed():
    # The schema is open for additions: extra payload fields must not
    # fail old validators.
    assert validate_event(_event(experimental_field=1)) == []


def test_seq_gap_is_detected():
    events = [_event(seq=0), _event(seq=2)]
    problems = validate_events(events)
    assert any("gap or reorder" in p for p in problems)


def test_gapless_interleaved_streams_are_fine():
    events = [_event(seq=0),
              _event(seq=0, stream="run", event="run_started",
                     population="{}", mode="kernel",
                     requested_mode="kernel", devices=4, shards=1),
              _event(seq=1)]
    assert validate_events(events) == []


def test_mixed_fingerprints_are_a_problem():
    events = [_event(seq=0), _event(seq=1, fp="cd" * 6)]
    assert any("mixed run fingerprints" in p
               for p in validate_events(events))


def test_parse_lines_flags_torn_lines():
    events, problems = parse_lines(
        [json.dumps(_event()), '{"v": 1, "trunc'])
    assert len(events) == 1
    assert any("unparsable" in p for p in problems)


def test_strip_wallclock_removes_only_tagged_fields():
    event = _event(elapsed_s=1.5, rate_dd_s=4.0)
    stripped = strip_wallclock(event)
    assert "t_wall" not in stripped and "elapsed_s" not in stripped
    assert stripped["shard"] == 0 and stripped["seq"] == 0


def test_canonical_events_sorts_by_stream_and_seq():
    events = [_event(stream="shard-000001", seq=1),
              _event(stream="run", seq=0, event="run_finished",
                     shards_total=1, shards_run=1, shards_resumed=0,
                     shards_quarantined=0, devices=4, execution={},
                     report_sha256=""),
              _event(stream="shard-000001", seq=0)]
    ordered = canonical_events(events)
    assert [(e["stream"], e["seq"]) for e in ordered] == [
        ("run", 0), ("shard-000001", 0), ("shard-000001", 1)]
    assert all("t_wall" not in e for e in ordered)
    # Canonical bytes are stable across input permutations.
    assert canonical_json(events) == canonical_json(events[::-1])


def test_committed_example_stream_validates_as_finished():
    assert validate_stream_file(EXAMPLE, require_finished=True) == []


def test_lint_tool_passes_the_example_and_fails_garbage(tmp_path,
                                                        capsys):
    assert check_schema("telemetry", "--require-finished", EXAMPLE) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v": 1, "event": "nope"}\n')
    assert check_schema("telemetry", str(bad)) == 1
    assert check_schema("telemetry", str(tmp_path / "absent.jsonl")) == 1
    capsys.readouterr()
