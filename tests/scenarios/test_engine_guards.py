"""Scenario devices across the two shard executors.

Scenario cases always run on the event kernel -- the vector engine's
transition-table composition was never validated against generated
families -- so the contract under test is: (a) table replay routes
scenario devices to the kernel fallback, (b) both executors produce
identical ``scenario:<family>`` counters, and (c) telemetry snapshots
carry the family histogram exactly when scenarios are present.
"""

from repro.fleet import shard
from repro.fleet.fastpath import (
    _scenario_guard,
    build_table,
    needed_probes,
    publish_table,
)
from repro.fleet.population import PopulationSpec
from repro.fleet.shard import run_shard
from repro.scenarios.catalog import ScenarioCatalog

EXAMPLE_PATH = "tests/data/scenario_catalog_example.json"


def scenario_population():
    return PopulationSpec(
        seed=11, devices=8, shard_size=8, minutes=2.0,
        mitigations=("vanilla", "leaseos"),
        catalog_json=ScenarioCatalog.from_file(EXAMPLE_PATH).to_json(),
        scenario_prevalence=0.5)


def test_scenario_guard_recognises_scenario_keys():
    assert _scenario_guard(()) is None
    assert _scenario_guard(("sync_abuser",)) is None
    assert _scenario_guard(
        ("sync_abuser", "scenario:late-release:gps:001")) == "scenario-app"


def test_needed_probes_skips_scenario_devices():
    population = scenario_population()
    probes = needed_probes(population)
    assert probes, "probe set empty"
    # Probe tuples are (kind, name, profile, mitigation, variant, env);
    # no buggy-kind probe may name a scenario key.
    for kind, name, *_rest in probes:
        if kind == "buggy":
            assert _scenario_guard((name,)) is None


def _scenario_counters(stats):
    return {name: count for name, count in stats["counters"].items()
            if name.startswith("scenario:")}


def test_executors_agree_on_scenario_devices():
    from repro.apps.buggy import scenario_families

    population = scenario_population()
    devices = [population.device(i) for i in range(8)]
    n_scenario = sum(1 for d in devices
                     if _scenario_guard(d.buggy_apps))
    # One count per (device, family) pair per mitigation day.
    n_family_days = sum(len(scenario_families(d.buggy_apps))
                        for d in devices)
    assert n_scenario, "seed lost its scenario devices"
    table = publish_table(build_table(population))
    shard._WARNED.clear()
    kernel = run_shard(population.to_json(), 0, 8)
    vector = run_shard(population.to_json(), 0, 8, mode="vector",
                       table=table)
    for mitigation in population.mitigations:
        k, v = (run["stats"][mitigation] for run in (kernel, vector))
        # The family counters are exact on both executors (scenario
        # days always run on the kernel, whatever the mode).
        assert _scenario_counters(k) == _scenario_counters(v)
        assert sum(_scenario_counters(k).values()) == n_family_days
        # Every device is counted once; every scenario device fell
        # back to the kernel, and the rest were composed columnar.
        assert v["counters"]["devices"] == k["counters"]["devices"] == 8
        assert v["counters"]["fastpath_fallbacks"] >= n_scenario
        assert v["counters"]["fastpath_fallbacks"] \
            + v["counters"]["vector_devices"] == 8


def test_telemetry_snapshots_carry_family_histogram(tmp_path,
                                                    monkeypatch):
    from repro.telemetry.emit import ENV_DIR, ENV_FP, ENV_PROGRESS
    from repro.telemetry.schema import load_stream_dir

    population = scenario_population()
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    monkeypatch.setenv(ENV_FP, population.fingerprint()[:12])
    monkeypatch.setenv(ENV_PROGRESS, "0")
    run_shard(population.to_json(), 0, 8)
    events, problems = load_stream_dir(str(tmp_path))
    assert problems == []
    progress = [e for e in events if e["event"] == "shard_progress"]
    final = progress[-1]
    families = final["scenario_families"]
    assert families
    assert all(count > 0 for count in families.values())
    assert list(families) == sorted(families)


def test_catalog_free_stream_has_no_family_field(tmp_path, monkeypatch):
    from repro.telemetry.emit import ENV_DIR, ENV_FP, ENV_PROGRESS
    from repro.telemetry.schema import load_stream_dir

    population = PopulationSpec(seed=11, devices=4, shard_size=4,
                                minutes=2.0)
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    monkeypatch.setenv(ENV_FP, population.fingerprint()[:12])
    monkeypatch.setenv(ENV_PROGRESS, "0")
    run_shard(population.to_json(), 0, 4)
    events, problems = load_stream_dir(str(tmp_path))
    assert problems == []
    for event in events:
        assert "scenario_families" not in event
