"""Transition table: build, replay, fallback, mode wiring.

Table replay runs on the vector engine (``mode="vector"``); "fast" in
a test name means a table-replayed run, as in the ``fastpath_*``
counters.
"""

import json

import pytest

from repro.experiments.grid import FuncSpec, GridRunner, ResultCache
from repro.fleet import fastpath
from repro.fleet.fastpath import (
    AUTO_MIN_DEVICES,
    TransitionTable,
    _device_guard,
    build_table,
    case_env_json,
    cross_validate,
    fast_summary,
)
from repro.fleet.population import PopulationSpec
from repro.fleet.report import build_report, report_json
from repro.fleet.shard import FleetRunner, run_shard
from repro.fleet.stats import FleetStats
from repro.fleet.vector import replay_shard_vector

#: Small-but-real population shared by the tests below. The table
#: probes and shard jobs flow through one module-scoped *cached* grid
#: runner, so the table is simulated once and loaded everywhere else.
POP = PopulationSpec(seed=23, devices=6, shard_size=2, minutes=2.0,
                     mitigations=("vanilla", "leaseos"))

#: Same law, every device carrying an armed fault plan -- the
#: guaranteed per-device kernel-fallback population.
CHAOS = PopulationSpec(seed=23, devices=2, shard_size=2, minutes=2.0,
                       mitigations=("vanilla", "leaseos"),
                       chaos_rate=1.0)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    return GridRunner(jobs=1,
                      cache=str(tmp_path_factory.mktemp("grid-cache")))


@pytest.fixture(scope="module")
def table(grid):
    return build_table(POP, runner=grid)


@pytest.fixture(scope="module")
def fast_full(grid, tmp_path_factory):
    """One uninterrupted table-replayed run: (runner, merged, report
    bytes)."""
    ck = str(tmp_path_factory.mktemp("fleet-vector"))
    runner = FleetRunner(POP, runner=grid, mode="vector",
                         checkpoint_dir=ck)
    merged = runner.run()
    payload = report_json(build_report(POP, merged))
    return runner, merged, payload


# -- the table -----------------------------------------------------------------

def test_entry_key_includes_merged_case_environment():
    plain = TransitionTable.entry_key("buggy", "torch", "flagship",
                                      "leaseos", "bg", "{}")
    pinned = TransitionTable.entry_key("buggy", "torch", "flagship",
                                       "leaseos", "bg",
                                       '{"gps_quality":"urban"}')
    assert plain != pinned
    device = POP.device(0)
    env = case_env_json(device.buggy_apps)
    assert env == json.dumps(json.loads(env), sort_keys=True,
                             separators=(",", ":"))


def test_table_covers_population_and_roundtrips(table):
    assert table.entries, "no probes were built"
    assert all(key.split("|", 1)[0] in ("base", "normal", "buggy")
               for key in table.entries)
    # Every device in the population replays from the table directly.
    for index in range(POP.devices):
        assert _device_guard(POP.device(index), POP.mitigations,
                             table) is None
    clone = TransitionTable.from_json(table.to_json())
    assert clone.entries == table.entries
    assert clone.fingerprint() == table.fingerprint()
    # The fingerprint is sensitive to any entry: a replayed checkpoint
    # can never silently pair with a different table.
    mutated = TransitionTable.from_json(table.to_json())
    key = sorted(mutated.entries)[0]
    mutated.entries[key] = dict(mutated.entries[key],
                                system_power_mw=1e9)
    assert mutated.fingerprint() != table.fingerprint()


def test_fast_summary_shape_and_determinism(table):
    device = POP.device(0)
    first = fast_summary(device, "leaseos", table, POP.minutes)
    second = fast_summary(device, "leaseos", table, POP.minutes)
    assert first == second
    # Everything the shard fold reads must be present.
    needed = {"index", "mitigation", "system_power_mw",
              "buggy_power_mw", "battery_life_h", "disruptions",
              "renewals", "deferrals", "revocations", "fp_apps",
              "fn_apps", "crashed", "crash_error", "faults_applied",
              "normal_installed", "buggy_installed"}
    assert needed <= set(first)
    assert first["system_power_mw"] > 0
    assert first["battery_life_h"] > 0


def test_empty_table_routes_every_device_to_kernel():
    empty = TransitionTable(POP.minutes)
    reason = _device_guard(POP.device(0), POP.mitigations, empty)
    assert reason.startswith("missing-probe:")


# -- replay --------------------------------------------------------------------

def _replay_dicts(population, start, stop, table):
    stats, crashes = replay_shard_vector(population, start, stop, table)
    return {name: s.to_dict() for name, s in stats.items()}, crashes


def test_replay_bitwise_identical_across_shard_orders(table):
    ranges = [(0, 2), (2, 4), (4, 6)]
    forward = [_replay_dicts(POP, a, b, table)[0] for a, b in ranges]
    backward = [_replay_dicts(POP, a, b, table)[0]
                for a, b in reversed(ranges)]
    backward.reverse()
    assert forward == backward
    # Merging in index order is execution-order independent, bit for
    # bit -- the same guarantee the kernel path's checkpoints give.

    def merge(shards):
        merged = {name: FleetStats() for name in POP.mitigations}
        for shard in shards:
            for name, data in shard.items():
                merged[name] = merged[name].merge(
                    FleetStats.from_dict(data))
        return {name: json.dumps(s.to_dict(), sort_keys=True)
                for name, s in merged.items()}

    assert merge(forward) == merge(backward)


def test_fallback_devices_fold_kernel_values(monkeypatch):
    # Every CHAOS device carries a fault plan, so table replay must
    # reroute all of them to the kernel: the *observations* folded are
    # the kernel's own summaries -- digest entries, histogram bins,
    # counters and count/min/max match the kernel shard exactly. The
    # fold algebra differs by design: replayed shards use the
    # batch-merge fold (one batch per metric per shard) instead of the
    # kernel's sequential Welford, so mean/m2 agree to float rounding,
    # not bit-for-bit. Modes never share checkpoints (they are
    # mode-tagged), so nothing depends on cross-mode byte equality.
    monkeypatch.setattr("repro.fleet.shard._WARNED", set())
    empty = TransitionTable(CHAOS.minutes)
    stats, crashes = replay_shard_vector(CHAOS, 0, 2, empty)
    kernel = run_shard(CHAOS.to_json(), 0, 2)
    assert crashes == kernel["crashes"]
    for name in CHAOS.mitigations:
        fast = stats[name].to_dict()
        assert fast["counters"].pop("fastpath_devices") == 2
        assert fast["counters"].pop("fastpath_fallbacks") == 2
        assert fast["counters"].pop("vector_devices") == 0
        want = kernel["stats"][name]
        assert fast["counters"] == want["counters"]
        assert set(fast["metrics"]) == set(want["metrics"])
        for metric, got in fast["metrics"].items():
            expected = want["metrics"][metric]
            assert got["digest"] == expected["digest"]
            assert got["histogram"] == expected["histogram"]
            gm, wm = got["moments"], expected["moments"]
            assert (gm["count"], gm["min"], gm["max"]) \
                == (wm["count"], wm["min"], wm["max"])
            assert gm["mean"] == pytest.approx(wm["mean"],
                                               rel=1e-12, abs=1e-12)
            assert gm["m2"] == pytest.approx(wm["m2"],
                                             rel=1e-9, abs=1e-12)


def test_fallback_warns_once_per_reason_structured(monkeypatch, capsys):
    monkeypatch.setattr("repro.fleet.shard._WARNED", set())
    replay_shard_vector(CHAOS, 0, 2, TransitionTable(CHAOS.minutes))
    lines = [line for line in capsys.readouterr().err.splitlines()
             if "fastpath_fallback" in line]
    # Two devices fell back for the same reason: one warning, not two.
    assert len(lines) == 1
    event = json.loads(lines[0])
    assert event["event"] == "fastpath_fallback"
    assert event["reason"] == "fault-plan-armed"


# -- mode wiring ---------------------------------------------------------------

def test_fast_run_counts_devices_and_reports_table(fast_full):
    runner, merged, __ = fast_full
    for name in POP.mitigations:
        counters = merged[name].counters
        assert counters["devices"] == POP.devices
        assert counters["fastpath_devices"] == POP.devices
        assert counters["vector_devices"] == POP.devices
        assert counters.get("fastpath_fallbacks", 0) == 0
    summary = runner.run_summary()
    assert summary["mode"] == "vector"
    assert summary["table_fingerprint"] == runner.table_fingerprint
    assert len(runner.table_fingerprint) == 64


def test_fast_run_resumes_byte_identical(fast_full, grid, tmp_path):
    __, __, uninterrupted = fast_full
    ck = str(tmp_path / "fleet-vector-resume")
    first = FleetRunner(POP, runner=grid, mode="vector",
                        checkpoint_dir=ck)
    assert first.run(limit=1) is None
    second = FleetRunner(POP, runner=grid, mode="vector",
                         checkpoint_dir=ck)
    merged = second.run()
    assert second.shards_resumed == 1
    assert report_json(build_report(POP, merged)) == uninterrupted


def test_mode_mismatched_checkpoints_rejected(fast_full, grid,
                                              tmp_path):
    fast_runner, __, __ = fast_full
    # A vector-mode runner must not serve kernel checkpoints...
    ck = str(tmp_path / "fleet-kernel")
    kernel_runner = FleetRunner(POP, runner=grid, checkpoint_dir=ck)
    kernel_runner.run_shards(limit=1)
    probe = FleetRunner(POP, runner=grid, mode="vector",
                        checkpoint_dir=ck)
    assert probe.pending_shards() == list(range(POP.shard_count))
    assert 0 in probe.rejected_shards
    # ... and a kernel runner must not serve vector ones.
    probe = FleetRunner(POP, runner=grid,
                        checkpoint_dir=fast_runner.checkpoint_dir)
    assert probe.pending_shards() == list(range(POP.shard_count))
    assert probe.checkpoints_rejected == POP.shard_count


def test_fast_and_kernel_shards_never_share_cache_keys(table):
    population_json = POP.to_json()
    kernel_spec = FuncSpec.make(run_shard,
                                population_json=population_json,
                                start=0, stop=2, mode="kernel", table="")
    fast_spec = FuncSpec.make(run_shard,
                              population_json=population_json,
                              start=0, stop=2, mode="vector",
                              table=table.fingerprint())
    cache = ResultCache(directory="unused-for-key-derivation")
    assert cache.key_for(kernel_spec) != cache.key_for(fast_spec)
    # A different table means different replay keys too.
    other = TransitionTable.from_json(table.to_json())
    key = sorted(other.entries)[0]
    other.entries[key] = dict(other.entries[key], system_power_mw=1.0)
    other_spec = FuncSpec.make(run_shard,
                               population_json=population_json,
                               start=0, stop=2, mode="vector",
                               table=other.fingerprint())
    assert cache.key_for(fast_spec) != cache.key_for(other_spec)


def test_auto_mode_resolves_on_population_size():
    small = FleetRunner(POP, mode="auto")
    assert (small.requested_mode, small.mode) == ("auto", "kernel")
    big_pop = PopulationSpec(seed=1, devices=AUTO_MIN_DEVICES,
                             shard_size=128)
    big = FleetRunner(big_pop, mode="auto")
    # Auto resolves to the vector engine whether or not numpy is
    # importable: without it the engine runs its pure-python backend.
    assert (big.requested_mode, big.mode) == ("auto", "vector")
    assert big.checkpoint_dir.endswith("-vector")
    for mode in ("warp", "fast"):
        with pytest.raises(ValueError):
            FleetRunner(POP, mode=mode)
        with pytest.raises(ValueError):
            run_shard(POP.to_json(), 0, 2, mode=mode)


# -- cross-validation ----------------------------------------------------------

def test_cross_validate_small_passes_and_is_deterministic(grid):
    first = cross_validate(POP, n=3, runner=grid)
    assert first["kind"] == "fastpath_cross_validation"
    assert first["device_days_compared"] + first["fallbacks"] \
        + first["crashed_skipped"] == 3 * len(POP.mitigations)
    assert first["device_days_compared"] > 0
    assert first["pass"], first["violations"]
    for entry in first["metrics"].values():
        assert entry["max_abs_delta"] >= entry["mean_abs_delta"] >= 0
    second = cross_validate(POP, n=3, runner=grid)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
