"""Chunked probe dispatch.

``build_table`` sends its cache misses to the supervisor in chunks of
``PROBE_CHUNK`` probes, one worker attempt per chunk. A probe's cache
key, its entry and the runner's per-spec counts must not depend on the
chunk it ran in, and a failed chunk is retried probe by probe, so a
poison probe is still the only entry lost.
"""

import json
import os

import pytest

from repro import cli
from repro.experiments.grid import FuncSpec, GridRunner, ResultCache
from repro.fleet import fastpath
from repro.fleet.fastpath import (
    PROBE_CHUNK,
    TransitionTable,
    build_table,
    needed_probes,
    probe_day,
)
from repro.resilience import HarnessFaults, RetryPolicy, Supervisor
from repro.resilience.supervisor import Chunk

from tests.fleet.test_probe_scan import SMALL, drop_table_entry, table_file
from tests.resilience.test_supervisor import needs_processes

pytestmark = needs_processes

PROBES = needed_probes(SMALL)


def _build(cache_dir, chunk, monkeypatch, faults=None):
    """A cold or warm SMALL table built on a process supervisor with
    ``chunk`` probes per attempt; returns ``(table, runner)``."""
    monkeypatch.setattr(fastpath, "PROBE_CHUNK", chunk)
    supervisor = Supervisor(
        mode="process", harness_faults=faults or HarnessFaults(),
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                 jitter=0.0))
    runner = GridRunner(jobs=1, cache=str(cache_dir),
                        supervisor=supervisor)
    return build_table(SMALL, runner=runner), runner


def _files(cache_dir):
    """``{name: bytes}`` of every file in a cache directory."""
    files = {}
    for name in sorted(os.listdir(str(cache_dir))):
        with open(os.path.join(str(cache_dir), name), "rb") as handle:
            files[name] = handle.read()
    return files


def _label(probe):
    return "probe:" + TransitionTable.entry_key(*probe)


def _spec(probe):
    kind, name, profile, mitigation, variant, env_json = probe
    return FuncSpec.make(probe_day, kind=kind, name=name, profile=profile,
                         mitigation=mitigation, minutes=SMALL.minutes,
                         variant=variant, env_json=env_json)


def test_the_population_spans_more_than_one_chunk():
    assert len(PROBES) == 54
    assert 1 < PROBE_CHUNK < len(PROBES)


def test_chunked_and_unchunked_cold_builds_write_the_same_bytes(
        tmp_path, monkeypatch):
    single, single_runner = _build(tmp_path / "single", 1, monkeypatch)
    chunked, chunked_runner = _build(tmp_path / "chunked", PROBE_CHUNK,
                                     monkeypatch)
    assert single_runner.supervisor.stats.attempts == len(PROBES)
    assert chunked_runner.supervisor.stats.attempts == 2
    assert chunked.to_json() == single.to_json()
    assert len(chunked.entries) == len(PROBES)
    assert _files(tmp_path / "chunked") == _files(tmp_path / "single")


@pytest.mark.parametrize("fill, read", [(1, PROBE_CHUNK), (PROBE_CHUNK, 1)])
def test_a_cache_filled_one_way_serves_the_other_without_a_probe(
        tmp_path, monkeypatch, fill, read):
    cold, __ = _build(tmp_path / "cache", fill, monkeypatch)
    drop_table_entry(str(tmp_path / "cache"))
    warm, runner = _build(tmp_path / "cache", read, monkeypatch)
    assert runner.stats.executed == 0
    assert runner.stats.cache_hits == len(PROBES)
    assert runner.supervisor.stats.attempts == 0
    assert warm.to_json() == cold.to_json()


def test_a_poison_probe_is_the_only_entry_and_record_lost(tmp_path,
                                                          monkeypatch):
    # The victim sits inside the first chunk, not at its head: its
    # crash fires as it starts, on every attempt.
    victim = PROBES[7]
    key = TransitionTable.entry_key(*victim)
    faults = HarnessFaults.from_json(
        json.dumps({"crash": {_label(victim): []}}))
    assert faults.directive(_label(victim), 1) == "crash"
    clean, __ = _build(tmp_path / "clean", PROBE_CHUNK, monkeypatch)
    table, runner = _build(tmp_path / "faulted", PROBE_CHUNK, monkeypatch,
                           faults)
    supervisor = runner.supervisor
    assert table.entries == {k: v for k, v in clean.entries.items()
                             if k != key}
    assert supervisor.manifest.labels == [_label(victim)]
    record = supervisor.manifest.records[0]
    assert [a.outcome for a in record.attempts] == ["crash", "crash"]
    # The chunk crashed once and was split; it is no quarantine.
    assert supervisor.stats.split == 1
    assert supervisor.stats.crashes == 3
    assert supervisor.stats.quarantined == 1
    assert runner.stats.executed == len(PROBES) - 1
    assert runner.stats.failed == 1
    victim_file = ResultCache(str(tmp_path / "faulted")).key_for(
        _spec(victim)) + ".json"
    clean_files = _files(tmp_path / "clean")
    assert victim_file in clean_files
    del clean_files[victim_file]
    # A table missing a probe is not stored.
    del clean_files[os.path.basename(table_file(str(tmp_path / "clean")))]
    assert _files(tmp_path / "faulted") == clean_files


def test_a_crash_on_a_first_attempt_gives_the_unfaulted_table(
        tmp_path, monkeypatch):
    first = _label(PROBES[0])
    faults = HarnessFaults.from_json(json.dumps({"crash": {first: [1]}}))
    clean, __ = _build(tmp_path / "clean", PROBE_CHUNK, monkeypatch)
    table, runner = _build(tmp_path / "faulted", PROBE_CHUNK, monkeypatch,
                           faults)
    assert table.to_json() == clean.to_json()
    assert not runner.supervisor.manifest
    assert runner.supervisor.stats.split == 1
    assert runner.supervisor.stats.recovered == 1
    assert _files(tmp_path / "faulted") == _files(tmp_path / "clean")


def test_runner_counts_and_the_grid_line_count_probes_not_chunks(
        tmp_path, monkeypatch, capsys):
    batches = []
    execute = Supervisor.execute

    def recording(self, specs, *args, **kwargs):
        specs = list(specs)
        batches.append([len(s.specs) if isinstance(s, Chunk) else 1
                        for s in specs])
        return execute(self, specs, *args, **kwargs)

    monkeypatch.setattr(Supervisor, "execute", recording)
    monkeypatch.chdir(tmp_path)
    argv = ["fleet", "--mode", "vector", "--devices", str(SMALL.devices),
            "--shard-size", str(SMALL.shard_size),
            "--seed", str(SMALL.seed), "--minutes", str(SMALL.minutes),
            "--prevalence", "0", "--jobs", "1", "--cache-dir", "cache",
            "--checkpoint-dir", "ck", "--report-json", "report.json"]
    assert cli.main(argv) == 0
    # One attempt per chunk of probes, then the shard on its own.
    assert batches == [[PROBE_CHUNK, len(PROBES) - PROBE_CHUNK], [1]]
    jobs = len(PROBES) + 1
    assert "[grid: {} jobs, {} executed, 0 cache hits, jobs=1]".format(
        jobs, jobs) in capsys.readouterr().err

    __, runner = _build(tmp_path / "table", PROBE_CHUNK, monkeypatch)
    assert runner.stats.as_dict() == {
        "submitted": len(PROBES), "executed": len(PROBES),
        "cache_hits": 0, "cache_misses": len(PROBES), "failed": 0}
    assert runner.supervisor.stats.jobs == len(PROBES)
