"""How a vector fleet's shards reach their transition table.

Shard jobs carry the table's 64-hex fingerprint, never its JSON:
``FleetRunner`` publishes the built table in a process registry and
the supervised workers, forked by the shard dispatch, inherit it.
Checkpoints are validated against the table before any shard is
served, whichever method asks first.
"""

import json
import os
import re
import shutil

import pytest

from repro.experiments.grid import GridRunner, decode_result, encode_result
from repro.fleet import fastpath
from repro.fleet.fastpath import published_table
from repro.fleet.population import PopulationSpec
from repro.fleet.report import build_report, report_json
from repro.fleet.shard import FleetRunner, run_shard
from repro.resilience.supervisor import Supervisor

from tests.fleet.test_probe_scan import drop_table_entry

POP = PopulationSpec(seed=29, devices=8, shard_size=4, minutes=1.0,
                     buggy_prevalence=0.0,
                     mitigations=("vanilla", "leaseos"))

FINGERPRINT = re.compile(r"[0-9a-f]{64}")


@pytest.fixture(scope="module")
def probe_cache(tmp_path_factory):
    """A result cache holding POP's probes and assembled table, no
    shard."""
    cache = str(tmp_path_factory.mktemp("probe-cache"))
    table_only = FleetRunner(POP, runner=GridRunner(jobs=1, cache=cache),
                             mode="vector", checkpoint_dir=str(
                                 tmp_path_factory.mktemp("table-only")))
    assert table_only.run_shards(limit=0) == 0
    return cache


def _copy(cache, tmp_path, name):
    target = str(tmp_path / name)
    shutil.copytree(cache, target)
    return target


def test_vector_shard_specs_carry_the_fingerprint(probe_cache, tmp_path,
                                                  monkeypatch):
    grid = GridRunner(jobs=1, cache=_copy(probe_cache, tmp_path, "cache"))
    runner = FleetRunner(POP, runner=grid, mode="vector",
                         checkpoint_dir=str(tmp_path / "ck"))
    fingerprint = runner._ensure_table()
    table_text = published_table(fingerprint).to_json()
    dispatched = []
    run = grid.run

    def recording(specs, labels=None, on_result=None):
        dispatched.extend(specs)
        return run(specs, labels=labels, on_result=on_result)

    monkeypatch.setattr(grid, "run", recording)
    assert runner.run_shards() == POP.shard_count
    assert len(dispatched) == POP.shard_count
    for spec in dispatched:
        kwargs = dict(spec.kwargs)
        assert FINGERPRINT.fullmatch(kwargs["table"])
        assert kwargs["table"] == fingerprint
        assert set(kwargs) == {"population_json", "start", "stop", "mode",
                               "table"}
        for value in kwargs.values():
            assert value != table_text
            assert '"entries"' not in str(value)


def test_unpublished_fingerprint_raises_naming_it():
    missing = "f" * 64
    with pytest.raises(LookupError, match=missing):
        run_shard(POP.to_json(), 0, 4, mode="vector", table=missing)


def test_unpublished_table_quarantines_the_shard(probe_cache, tmp_path,
                                                 monkeypatch):
    population = PopulationSpec(seed=29, devices=4, shard_size=4,
                                minutes=1.0, buggy_prevalence=0.0,
                                mitigations=("vanilla", "leaseos"))
    supervisor = Supervisor(max_retries=0)
    ck = tmp_path / "ck"
    runner = FleetRunner(population, runner=GridRunner(
        jobs=1, cache=_copy(probe_cache, tmp_path, "cache"),
        supervisor=supervisor), mode="vector", checkpoint_dir=str(ck))
    fingerprint = runner._ensure_table()
    monkeypatch.delitem(fastpath._PUBLISHED, fingerprint)
    assert runner.run_shards() == 0
    assert runner.quarantined_shards == [0]
    assert not ck.exists() or os.listdir(str(ck)) == []
    (record,) = supervisor.manifest.records
    assert record.label == FleetRunner.shard_label(0)
    assert fingerprint in record.attempts[-1].error


def test_two_forked_workers_match_one_in_process(probe_cache, tmp_path,
                                                 monkeypatch):
    # Two effective workers even on a one-core host.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    one = FleetRunner(POP, runner=GridRunner(
        jobs=1, cache=_copy(probe_cache, tmp_path, "cache-1")),
        mode="vector", checkpoint_dir=str(tmp_path / "ck-1"))
    supervisor = Supervisor()
    two = FleetRunner(POP, runner=GridRunner(
        jobs=2, cache=_copy(probe_cache, tmp_path, "cache-2"),
        supervisor=supervisor), mode="vector",
        checkpoint_dir=str(tmp_path / "ck-2"))
    reports = [report_json(build_report(POP, runner.run()))
               for runner in (one, two)]
    assert two.runner.effective_jobs == 2
    assert supervisor.stats.attempts == POP.shard_count
    assert supervisor.stats.serial_fallbacks == 0
    assert two.runner.stats.executed == POP.shard_count
    assert reports[0] == reports[1]
    names = sorted(os.listdir(one.checkpoint_dir))
    assert names == sorted(os.listdir(two.checkpoint_dir))
    assert len(names) == POP.shard_count
    for name in names:
        with open(os.path.join(one.checkpoint_dir, name), "rb") as a, \
                open(os.path.join(two.checkpoint_dir, name), "rb") as b:
            assert a.read() == b.read()


def _double_one_probe(cache):
    """Double one cached probe's ``system_power_mw`` and drop the
    assembled table: a different table from the same cache."""
    drop_table_entry(cache)
    for name in sorted(os.listdir(cache)):
        path = os.path.join(cache, name)
        with open(path) as handle:
            payload = json.load(handle)
        if payload["spec"]["func"] == "repro.fleet.fastpath:probe_day":
            entry = decode_result(payload["result"])
            entry["system_power_mw"] *= 2
            payload["result"] = encode_result(entry)
            with open(path, "w") as handle:
                json.dump(payload, handle)
            return
    raise AssertionError("no cached probe")


def test_checkpoints_from_another_table_are_stale_from_the_start(
        probe_cache, tmp_path):
    cache = _copy(probe_cache, tmp_path, "cache")
    ck = str(tmp_path / "ck")
    first = FleetRunner(POP, runner=GridRunner(jobs=1, cache=cache),
                        mode="vector", checkpoint_dir=ck)
    assert first.run() is not None
    same = FleetRunner(POP, runner=GridRunner(jobs=1, cache=cache),
                       mode="vector", checkpoint_dir=ck)
    assert same.pending_shards() == []
    assert same.checkpoints_rejected == 0
    _double_one_probe(cache)
    pending = FleetRunner(POP, runner=GridRunner(jobs=1, cache=cache),
                          mode="vector", checkpoint_dir=ck)
    assert pending.pending_shards() == list(range(POP.shard_count))
    assert pending.rejected_shards == set(range(POP.shard_count))
    assert pending.table_fingerprint != first.table_fingerprint
    merged = FleetRunner(POP, runner=GridRunner(jobs=1, cache=cache),
                         mode="vector", checkpoint_dir=ck)
    with pytest.raises(RuntimeError, match="no valid checkpoint"):
        merged.merged_stats()
    assert merged.checkpoints_rejected == 1
