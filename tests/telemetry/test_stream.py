"""Emission determinism: stream goldens, resume continuation, gates.

The contract under test: with the progress time-gate removed
(``REPRO_TELEMETRY_PROGRESS_S=0``), a shard's stream is a pure
function of (population, shard boundaries, mode) once wall-clock
fields are stripped -- independent of dispatch order and of which
process emitted it.
"""

import io
import json

from contextlib import redirect_stdout

from repro.cli import main
from repro.fleet.population import PopulationSpec
from repro.fleet.shard import run_shard
from repro.telemetry.emit import ENV_DIR, ENV_FP, ENV_PROGRESS
from repro.telemetry.schema import (
    canonical_json,
    load_stream_dir,
    validate_stream_dir,
)

POP = PopulationSpec(seed=23, devices=8, shard_size=3, minutes=2.0,
                     mitigations=("vanilla", "leaseos"))

#: Half the devices carry an armed fault plan, so vector shards share
#: the ``fault-plan-armed`` fallback reason.
CHAOS_POP = PopulationSpec(seed=23, devices=9, shard_size=3, minutes=2.0,
                           mitigations=("vanilla", "leaseos"),
                           chaos_rate=0.5)


def _emit_shards(monkeypatch, directory, order, population=POP,
                 **shard_kwargs):
    monkeypatch.setenv(ENV_DIR, str(directory))
    monkeypatch.setenv(ENV_FP, population.fingerprint()[:12])
    monkeypatch.setenv(ENV_PROGRESS, "0")  # snapshot per device
    for shard in order:
        start, stop = population.shard_range(shard)
        run_shard(population.to_json(), start, stop, **shard_kwargs)


def test_shard_streams_are_order_independent_goldens(tmp_path,
                                                     monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    _emit_shards(monkeypatch, a, [0, 1, 2])
    _emit_shards(monkeypatch, b, [2, 0, 1])
    events_a, problems_a = load_stream_dir(str(a))
    events_b, problems_b = load_stream_dir(str(b))
    assert problems_a == problems_b == []
    assert validate_stream_dir(str(a)) == []
    # Timestamp-stripped canonical bytes are identical across dispatch
    # orders -- the stream golden.
    assert canonical_json(events_a) == canonical_json(events_b)


def test_vector_fallback_events_are_order_independent(tmp_path,
                                                      monkeypatch):
    from repro.experiments.grid import GridRunner
    from repro.fleet.fastpath import build_table, reset_fallback_warnings

    table = build_table(CHAOS_POP, runner=GridRunner(
        jobs=1, cache=str(tmp_path / "cache")))
    streams = {}
    for name, order in (("a", [0, 1, 2]), ("b", [2, 0, 1])):
        reset_fallback_warnings()  # each order is a run of its own
        _emit_shards(monkeypatch, tmp_path / name, order,
                     population=CHAOS_POP, mode="vector",
                     table_json=table.to_json())
        events, problems = load_stream_dir(str(tmp_path / name))
        assert problems == []
        streams[name] = events
    assert canonical_json(streams["a"]) == canonical_json(streams["b"])
    # A reason repeated across shards is an event in every shard that
    # meets it, not only in whichever one this process ran first.
    shards = {e["shard"] for e in streams["a"]
              if e["event"] == "fallback"
              and e["reason"] == "fault-plan-armed"}
    assert len(shards) > 1


def test_progress_snapshots_carry_mergeable_partials(tmp_path,
                                                     monkeypatch):
    _emit_shards(monkeypatch, tmp_path, [0])
    events, __ = load_stream_dir(str(tmp_path))
    progress = [e for e in events if e["event"] == "shard_progress"]
    # One snapshot per device plus the forced final one.
    assert len(progress) == 4
    last = progress[-1]
    assert last["devices_done"] == last["devices_total"] == 3
    # Kernel path: every mitigation's day is folded.
    assert last["device_days"] == 3 * len(POP.mitigations)
    assert last["energy_mw"]["count"] == last["device_days"]
    assert last["elapsed_s"] >= 0


def test_negative_progress_interval_disables_snapshots(tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv(ENV_PROGRESS, "-1")
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    monkeypatch.setenv(ENV_FP, POP.fingerprint()[:12])
    start, stop = POP.shard_range(0)
    run_shard(POP.to_json(), start, stop)
    events, __ = load_stream_dir(str(tmp_path))
    kinds = {e["event"] for e in events}
    assert "shard_progress" not in kinds
    assert "shard_started" in kinds


def test_foreign_fingerprint_keeps_the_worker_silent(tmp_path,
                                                     monkeypatch):
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    monkeypatch.setenv(ENV_FP, "0" * 12)  # some other run's stream
    start, stop = POP.shard_range(0)
    run_shard(POP.to_json(), start, stop)
    events, __ = (load_stream_dir(str(tmp_path))
                  if list(tmp_path.iterdir()) else ([], []))
    assert events == []


def test_fallback_events_are_gated_once_per_reason_per_shard(
        tmp_path, monkeypatch, capsys):
    from repro.fleet.fastpath import (
        _log_fallback_once,
        reset_fallback_warnings,
    )
    from repro.telemetry.emit import shard_telemetry

    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    monkeypatch.setenv(ENV_FP, POP.fingerprint()[:12])
    reset_fallback_warnings()
    first = shard_telemetry(POP, 0, 0, 3, "vector")
    try:
        _log_fallback_once("fault-plan-armed", 0)
        _log_fallback_once("fault-plan-armed", 1)
        _log_fallback_once("probe-crashed", 2)
    finally:
        first.close()
    second = shard_telemetry(POP, 1, 3, 6, "vector")
    try:
        _log_fallback_once("fault-plan-armed", 3)
    finally:
        reset_fallback_warnings()
        second.close()
    events, __ = load_stream_dir(str(tmp_path))
    fallbacks = [(e["shard"], e["reason"]) for e in events
                 if e["event"] == "fallback"]
    # Every occurrence is counted, but only a shard's first per reason
    # is an event; the stderr warning stays once per process.
    assert sorted(fallbacks) == [(0, "fault-plan-armed"),
                                 (0, "probe-crashed"),
                                 (1, "fault-plan-armed")]
    assert (first.fallbacks, second.fallbacks) == (3, 1)
    assert capsys.readouterr().err.count("fault-plan-armed") == 1


# -- kill-and-resume continuation (CLI) --------------------------------------

def _fleet_argv(tmp_path, extra=()):
    return [
        "fleet", "--devices", "6", "--shard-size", "2", "--minutes", "2",
        "--seed", "5", "--no-cache",
        "--checkpoint-dir", str(tmp_path / "ck"),
        "--report-json", str(tmp_path / "fleet.json"),
        "--telemetry-dir", str(tmp_path / "stream"),
    ] + list(extra)


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_resume_continues_the_stream_without_reemitting(tmp_path):
    stream = str(tmp_path / "stream")
    code, __ = _run_cli(_fleet_argv(tmp_path, ["--max-shards", "2"]))
    assert code == 0
    events, problems = load_stream_dir(stream)
    assert problems == []
    kinds = [e["event"] for e in events]
    assert kinds.count("run_started") == 1
    assert "run_finished" not in kinds  # still in flight
    assert kinds.count("shard_finished") == 2

    code, __ = _run_cli(_fleet_argv(tmp_path))
    assert code == 0
    assert validate_stream_dir(stream, require_finished=True) == []
    events, __ = load_stream_dir(stream)
    resumed = [e for e in events if e["event"] == "run_resumed"]
    assert len(resumed) == 1
    assert resumed[0]["shards_resumed"] == 2
    # Finished shards are never re-emitted: 3 shards, 3 announcements
    # across the whole directory.
    finished = [e["shard"] for e in events
                if e["event"] == "shard_finished"]
    assert sorted(finished) == [0, 1, 2]
    terminal = [e for e in events if e["event"] == "run_finished"]
    assert len(terminal) == 1
    assert terminal[0]["shards_resumed"] == 2
    assert terminal[0]["report_sha256"]
    # The stream's aggregate equals the canonical report byte-for-byte.
    from repro.telemetry.watch import check_report, load_view

    view, __ = load_view(stream)
    assert check_report(view, str(tmp_path / "fleet.json")) is None


def test_two_runs_in_one_process_emit_identical_shard_streams(
        tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    _emit_shards(monkeypatch, a, [0, 1, 2])
    _emit_shards(monkeypatch, b, [0, 1, 2])
    events_a, __ = load_stream_dir(str(a))
    events_b, __ = load_stream_dir(str(b))
    assert canonical_json(events_a) == canonical_json(events_b)
    payload = canonical_json(events_a)
    # Spot-check the canonical form: stripped of wall-clock, compact.
    first = json.loads(payload.splitlines()[0])
    assert "t_wall" not in first and "elapsed_s" not in first
