"""Shard execution and checkpoint/resume semantics."""

import json
import os

import pytest

from repro.experiments.grid import GridRunner
from repro.fleet import shard
from repro.fleet.population import PopulationSpec
from repro.fleet.report import build_report, report_json
from repro.fleet.shard import FleetRunner, run_shard, simulate_device_day
from repro.resilience import HarnessFaults, Supervisor

#: Small-but-real population shared by the tests below (module-scoped
#: fixtures keep the suite fast: one simulation, many assertions).
POP = PopulationSpec(seed=23, devices=8, shard_size=3, minutes=3.0,
                     mitigations=("vanilla", "leaseos"))


def _uncached_runner():
    return GridRunner(jobs=1, cache=False)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One uninterrupted run: (runner, merged stats, report bytes)."""
    ck = str(tmp_path_factory.mktemp("fleet-full"))
    runner = FleetRunner(POP, runner=_uncached_runner(), checkpoint_dir=ck)
    merged = runner.run()
    payload = report_json(build_report(POP, merged))
    return runner, merged, payload


def test_device_day_returns_scalars_only():
    device = POP.device(0)
    summary = simulate_device_day(device, "vanilla", minutes=2.0)
    assert all(isinstance(v, (int, float, str)) for v in summary.values())
    assert summary["system_power_mw"] > 0
    assert summary["battery_life_h"] > 0


def test_device_day_deterministic():
    device = POP.device(1)
    first = simulate_device_day(device, "leaseos", minutes=2.0)
    second = simulate_device_day(device, "leaseos", minutes=2.0)
    assert first == second


def test_run_shard_summary_shape_is_device_count_independent():
    small = run_shard(POP.to_json(), 0, 1)
    large = run_shard(POP.to_json(), 0, 3)
    assert small["population"] == POP.fingerprint()
    assert (large["start"], large["stop"]) == (0, 3)
    # O(1) in devices: same keys, same per-metric accumulator sizes
    # (histogram bins are fixed) -- only the counts grow.
    assert set(small["stats"]) == set(large["stats"])
    for name in small["stats"]:
        s_bins = small["stats"][name]["metrics"]["battery_life_h"][
            "histogram"]["bins"]
        l_bins = large["stats"][name]["metrics"]["battery_life_h"][
            "histogram"]["bins"]
        assert len(s_bins) == len(l_bins)
    assert large["stats"]["vanilla"]["counters"]["devices"] == 3


def test_a_chaos_shard_counts_violated_invariants(monkeypatch):
    # Device 160: a fault kills WHERE at 299.9 s. With alarms made to
    # outlive their app again, its repeating alarm registers GPS for
    # the dead uid 0.1 s later, and the device's checker sees it.
    from repro.droid.alarms import AlarmManager

    monkeypatch.setattr(AlarmManager, "kill_app", lambda self, uid: None,
                        raising=False)
    population = PopulationSpec(seed=2019, devices=161, shard_size=1,
                                minutes=15.0, chaos_rate=0.5)
    summary = run_shard(population.to_json(), 160, 161)
    for name in population.mitigations:
        counters = summary["stats"][name]["counters"]
        assert counters["invariant:wakelock_after_death"] == 1


def test_a_scripted_touch_runs_no_killed_apps_code():
    # Device 2019: a fault kills PodcastPlayer at 126.5 s, and a later
    # touch of the user script used to start its playback for the dead
    # uid, which the checker flagged as wakelock_after_death.
    population = PopulationSpec(seed=2019, devices=2020, minutes=15.0,
                                chaos_rate=0.5)
    for mitigation in population.mitigations:
        summary = simulate_device_day(population.device(2019), mitigation,
                                      population.minutes)
        assert not [key for key in summary if key.startswith("invariant:")]


def test_the_invariant_checker_does_not_perturb_the_day_it_checks(
        monkeypatch):
    # Device 5 has an event_jitter fault, whose rng the checker's ticks
    # drew from; on every chaos device its checks settled the power
    # monitor, splitting integration segments (device 0's last digit).
    from repro.faults import invariants

    population = PopulationSpec(seed=77, devices=6, minutes=3.0,
                                chaos_rate=0.5)

    def days():
        return [simulate_device_day(population.device(index), mitigation,
                                    population.minutes)
                for index in range(population.devices)
                for mitigation in population.mitigations]

    checked = days()
    monkeypatch.setattr(invariants, "InvariantChecker",
                        lambda phone, interval_s: None)
    assert days() == checked


def test_a_crashed_chaos_day_leaves_no_lease_hook_behind(monkeypatch):
    # Device 847's killed K-9 crashes the day once its alarm outlives
    # it; the checker observes that phone's lease manager only, so
    # nothing of the crashed day reaches the next one.
    from repro.droid.alarms import AlarmManager

    monkeypatch.setattr(AlarmManager, "kill_app", lambda self, uid: None)
    population = PopulationSpec(seed=2019, devices=848, minutes=15.0,
                                chaos_rate=0.5)
    summary = simulate_device_day(population.device(847), "leaseos", 15.0)
    assert summary["crashed"] == 1
    assert simulate_device_day(population.device(847), "leaseos",
                               15.0) == summary


def test_a_shard_without_chaos_keeps_its_summary_bytes():
    import hashlib

    summary = run_shard(POP.to_json(), 0, 3)
    assert not [name for block in summary["stats"].values()
                for name in block["counters"]
                if name.startswith("invariant:")]
    assert hashlib.sha256(json.dumps(summary, sort_keys=True).encode()) \
        .hexdigest() == \
        "0a24532e7fe73782a57b99698d455819648e5029fd1cac7c5cc79759173f7ad9"


def test_fleet_run_completes_and_counts_devices(full_run):
    __, merged, __ = full_run
    for name in POP.mitigations:
        assert merged[name].counters["devices"] == POP.devices


def test_checkpoint_files_one_per_shard(full_run):
    runner, __, __ = full_run
    names = sorted(os.listdir(runner.checkpoint_dir))
    assert names == ["shard_{:06d}.json".format(i)
                     for i in range(POP.shard_count)]


def test_interrupted_run_resumes_byte_identical(full_run, tmp_path):
    __, __, uninterrupted = full_run
    ck = str(tmp_path / "fleet-resume")
    # "Kill" after 1 of 3 shards...
    first = FleetRunner(POP, runner=_uncached_runner(), checkpoint_dir=ck)
    assert first.run(limit=1) is None
    assert len(first.pending_shards()) == POP.shard_count - 1
    # ... then resume with a brand-new runner (fresh process stand-in).
    second = FleetRunner(POP, runner=_uncached_runner(),
                         checkpoint_dir=ck)
    merged = second.run()
    assert second.shards_resumed == 1
    assert second.shards_run == POP.shard_count - 1
    assert report_json(build_report(POP, merged)) == uninterrupted


def test_unsupervised_parallel_fleet_matches_serial(full_run, tmp_path,
                                                    monkeypatch):
    serial, __, uninterrupted = full_run
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # defeat 1-core clamp
    ck = str(tmp_path / "fleet-parallel")
    parallel = FleetRunner(POP, runner=GridRunner(jobs=2, cache=False),
                           checkpoint_dir=ck)
    merged = parallel.run()
    assert parallel.shards_run == POP.shard_count
    names = sorted(os.listdir(serial.checkpoint_dir))
    assert sorted(os.listdir(ck)) == names
    for name in names:
        with open(os.path.join(serial.checkpoint_dir, name)) as a, \
                open(os.path.join(ck, name)) as b:
            assert a.read() == b.read()
    assert report_json(build_report(POP, merged)) == uninterrupted


def test_completed_run_resumes_without_rerunning(full_run):
    runner, __, uninterrupted = full_run
    again = FleetRunner(POP, runner=_uncached_runner(),
                        checkpoint_dir=runner.checkpoint_dir)
    merged = again.run()
    assert again.shards_run == 0
    assert again.shards_resumed == POP.shard_count
    assert report_json(build_report(POP, merged)) == uninterrupted


def test_stale_checkpoints_rejected_not_served(full_run, tmp_path):
    runner, __, __ = full_run
    ck = str(tmp_path / "fleet-stale")
    os.makedirs(ck)
    source = os.path.join(runner.checkpoint_dir, "shard_000000.json")
    with open(source) as handle:
        payload = json.load(handle)

    # Wrong population fingerprint -> ignored.
    bad = json.loads(json.dumps(payload))
    bad["summary"]["population"] = "0" * 64
    with open(os.path.join(ck, "shard_000000.json"), "w") as handle:
        json.dump(bad, handle)
    # Wrong package version -> ignored.
    bad = json.loads(json.dumps(payload))
    bad["version"] = "0.0.0"
    with open(os.path.join(ck, "shard_000001.json"), "w") as handle:
        json.dump(bad, handle)
    # Corrupt JSON -> ignored.
    with open(os.path.join(ck, "shard_000002.json"), "w") as handle:
        handle.write("{not json")

    probe = FleetRunner(POP, runner=_uncached_runner(), checkpoint_dir=ck)
    assert probe.pending_shards() == list(range(POP.shard_count))
    assert probe.checkpoints_rejected >= 2


def test_merged_stats_requires_every_shard(tmp_path):
    runner = FleetRunner(POP, runner=_uncached_runner(),
                         checkpoint_dir=str(tmp_path / "incomplete"))
    runner.run_shards(limit=1)
    with pytest.raises(RuntimeError):
        runner.merged_stats()


def test_shard_jobs_flow_through_grid_cache(tmp_path):
    cache_dir = str(tmp_path / "grid-cache")
    cold = GridRunner(jobs=1, cache=cache_dir)
    a = FleetRunner(POP, runner=cold,
                    checkpoint_dir=str(tmp_path / "ck-a"))
    merged_a = a.run()
    assert cold.stats.executed == POP.shard_count
    # Same population, empty checkpoint dir, warm grid cache: every
    # shard is a cache hit, zero fresh simulation, identical report.
    warm = GridRunner(jobs=1, cache=cache_dir)
    b = FleetRunner(POP, runner=warm,
                    checkpoint_dir=str(tmp_path / "ck-b"))
    merged_b = b.run()
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == POP.shard_count
    assert report_json(build_report(POP, merged_a)) == \
        report_json(build_report(POP, merged_b))


def test_the_post_run_pending_check_reads_no_checkpoint_it_wrote(
        tmp_path, monkeypatch):
    population = PopulationSpec(seed=23, devices=6, shard_size=2,
                                minutes=1.0,
                                mitigations=("vanilla", "leaseos"))
    quarantined = FleetRunner.shard_label(1)
    supervisor = Supervisor(
        mode="serial", max_retries=0,
        harness_faults=HarnessFaults.from_json(
            json.dumps({"fail": {quarantined: []}})))
    runner = FleetRunner(population, runner=GridRunner(
        jobs=1, cache=False, supervisor=supervisor),
        checkpoint_dir=str(tmp_path / "ck"))
    opened = []

    def recording(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(shard, "open", recording, raising=False)
    names = ["shard_{:06d}.json".format(index) for index in range(3)]
    # The calls _cmd_fleet makes, in its order.
    assert runner.run_shards() == 2
    assert opened == names
    assert runner.quarantined_shards == [1]
    del opened[:]
    assert runner.pending_shards() == [1]
    assert opened == [names[1]]
    del opened[:]
    merged = runner.merged_stats(allow_missing=True)
    assert opened == names
    assert runner.missing_shards == [1]
    assert merged["vanilla"].counters["devices"] == 4
