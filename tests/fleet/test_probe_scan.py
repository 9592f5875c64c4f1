"""The probe scan and its cache, and the assembled table's entry.

``needed_probes`` reads ``sample_columns`` in chunks and expands each
device class once; it must return exactly what the per-device scan it
replaced returned, frozen below as the oracle. ``build_table`` stores
the assembled table as one grid ``ResultCache`` entry, so a warm build
scans no device and reads no probe.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.grid import FuncSpec, GridRunner, ResultCache
from repro.fleet import fastpath
from repro.fleet.fastpath import (
    BASE_VARIANTS,
    BUGGY_VARIANTS,
    NORMAL_VARIANTS,
    PROBE_SCAN_CHUNK,
    _scenario_guard,
    build_table,
    case_env_json,
    needed_probes,
)
from repro.fleet.population import PopulationSpec
from repro.resilience import HarnessFaults, Supervisor
from repro.scenarios.catalog import ScenarioCatalog

EXAMPLE_PATH = "tests/data/scenario_catalog_example.json"

#: Cheap-probe population for the cache tests: 54 one-minute probes.
SMALL = PopulationSpec(seed=31, devices=2, shard_size=2, minutes=1.0,
                       buggy_prevalence=0.0,
                       mitigations=("vanilla", "leaseos"))


def reference_device_probes(device, mitigations):
    """Frozen copy of the per-device probe expansion."""
    env = case_env_json(device.buggy_apps)
    probes = []
    for mitigation in mitigations:
        for variant in BASE_VARIANTS:
            probes.append(("base", "", device.profile, mitigation,
                           variant, env))
        for name in device.normal_apps:
            for variant in NORMAL_VARIANTS:
                probes.append(("normal", name, device.profile,
                               mitigation, variant, env))
        variants = BUGGY_VARIANTS if device.normal_apps else ("fg",)
        for key in device.buggy_apps:
            for variant in variants:
                probes.append(("buggy", key, device.profile, mitigation,
                               variant, env))
    return probes


def reference_needed_probes(population):
    """Frozen copy of the per-device scan the column scan replaced:
    one ``population.device(i)`` per scanned device."""
    probes = set()
    for index in range(min(population.devices, fastpath.PROBE_SCAN_CAP)):
        device = population.device(index)
        if _scenario_guard(device.buggy_apps) is not None:
            continue
        probes.update(reference_device_probes(device,
                                              population.mitigations))
    return sorted(probes)


def _scenario_catalog_json():
    return ScenarioCatalog.from_file(EXAMPLE_PATH).to_json()


# -- the column scan equals the per-device scan --------------------------------

@pytest.mark.parametrize("kwargs", [
    {"buggy_prevalence": 0.0},
    {},
    {"chaos_rate": 0.3},
    {"mitigations": ("vanilla", "leaseos", "doze")},
    # Few apps from a one-case pool: the same (profile, buggy apps)
    # class occurs both alone (its fg probes) and beside normal apps.
    {"buggy_prevalence": 0.5, "min_apps": 1, "max_apps": 2,
     "buggy_pool": ("k9",)},
], ids=["prevalence-0", "default-prevalence", "chaos", "three-mitigations",
        "solo-and-mixed-classes"])
def test_column_scan_equals_per_device_scan(kwargs):
    population = PopulationSpec(seed=5, devices=1500, **kwargs)
    probes = needed_probes(population)
    assert probes == reference_needed_probes(population)
    assert all(isinstance(probe, tuple) and len(probe) == 6
               for probe in probes)


def test_column_scan_skips_scenario_devices():
    population = PopulationSpec(seed=5, devices=1500,
                                catalog_json=_scenario_catalog_json(),
                                scenario_prevalence=0.3)
    assert any(_scenario_guard(population.device(i).buggy_apps)
               for i in range(50)), "seed lost its scenario devices"
    assert needed_probes(population) == reference_needed_probes(population)


def test_column_scan_stops_at_the_cap_in_chunks(monkeypatch):
    monkeypatch.setattr(fastpath, "PROBE_SCAN_CAP", 2345)
    population = PopulationSpec(seed=5, devices=3000)
    ranges = []
    sample_columns = PopulationSpec.sample_columns

    def recording(self, start, stop):
        ranges.append((start, stop))
        return sample_columns(self, start, stop)

    def no_device(self, index):
        raise AssertionError("the scan sampled device {} alone".format(
            index))

    with monkeypatch.context() as patch:
        patch.setattr(PopulationSpec, "sample_columns", recording)
        patch.setattr(PopulationSpec, "device", no_device)
        probes = needed_probes(population)
    assert ranges == [(0, 1000), (1000, 2000), (2000, 2345)]
    assert max(stop - start for start, stop in ranges) <= PROBE_SCAN_CHUNK
    assert probes == reference_needed_probes(population)
    # The devices past the cap add classes the scan never saw.
    monkeypatch.setattr(fastpath, "PROBE_SCAN_CAP", 3000)
    assert set(probes) < set(reference_needed_probes(population))


# -- scans per build -----------------------------------------------------------

@pytest.fixture
def scans(monkeypatch):
    """Count needed_probes calls (each one a scan)."""
    calls = []
    scan = fastpath.needed_probes

    def counting(population):
        calls.append(population.fingerprint())
        return scan(population)

    monkeypatch.setattr(fastpath, "needed_probes", counting)
    return calls


def _entry_files(cache_dir, func):
    """Paths of the cache entries whose spec names ``func``."""
    paths = []
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        with open(path) as handle:
            payload = json.load(handle)
        if payload["spec"]["func"] == func:
            paths.append(path)
    return paths


def table_file(cache_dir):
    """Path of the one assembled-table entry in a cache directory."""
    paths = _entry_files(cache_dir, "repro.fleet.fastpath:build_table")
    assert len(paths) == 1, paths
    return paths[0]


def drop_table_entry(cache_dir):
    """Delete the assembled table's entry, so the next build assembles
    the table from the probe entries again."""
    os.unlink(table_file(cache_dir))


def test_uncached_build_scans_every_time_and_writes_nothing(tmp_path,
                                                            monkeypatch,
                                                            scans):
    monkeypatch.chdir(tmp_path)
    runner = GridRunner(jobs=1, cache=None)
    first = build_table(SMALL, runner=runner)
    second = build_table(SMALL, runner=runner)
    assert second.to_json() == first.to_json()
    assert len(scans) == 2
    assert os.listdir(str(tmp_path)) == []


# -- the assembled table's entry -----------------------------------------------

def test_warm_build_runs_no_probe_and_loads_no_probe_set(tmp_path,
                                                         monkeypatch,
                                                         scans):
    cache = str(tmp_path / "cache")
    cold = build_table(SMALL, runner=GridRunner(jobs=1, cache=cache))
    with open(table_file(cache)) as handle:
        assert json.load(handle)["result"] == cold.to_json()
    loads = []
    load = ResultCache.load

    def recording(self, spec):
        loads.append(spec.func)
        return load(self, spec)

    monkeypatch.setattr(ResultCache, "load", recording)
    runner = GridRunner(jobs=1, cache=cache)
    warm = build_table(SMALL, runner=runner)
    assert loads == ["repro.fleet.fastpath:build_table"]
    assert runner.stats.as_dict() == {
        "submitted": 0, "executed": 0, "cache_hits": 0,
        "cache_misses": 0, "failed": 0}
    assert len(scans) == 1
    assert warm.to_json() == cold.to_json()
    assert warm.fingerprint() == cold.fingerprint()
    assert len(warm.entries) == 54
    # Another population is another entry.
    other = dataclasses.replace(SMALL, seed=32)
    assert ResultCache(cache).load(FuncSpec.make(
        "repro.fleet.fastpath:build_table",
        population=other.fingerprint())) is None


def test_a_quarantined_probe_stores_no_table(tmp_path):
    cache = str(tmp_path / "cache")
    victim = needed_probes(SMALL)[7]
    label = "probe:" + fastpath.TransitionTable.entry_key(*victim)
    supervisor = Supervisor(
        mode="serial", max_retries=0,
        harness_faults=HarnessFaults.from_json(
            json.dumps({"fail": {label: []}})))
    faulted = build_table(SMALL, runner=GridRunner(
        jobs=1, cache=cache, supervisor=supervisor))
    assert supervisor.manifest.labels == [label]
    assert len(faulted.entries) == 53
    assert _entry_files(cache, "repro.fleet.fastpath:build_table") == []
    key = fastpath.TransitionTable.entry_key(*victim)
    assert key not in faulted.entries
    # The next run finds every other probe cached and runs the victim.
    runner = GridRunner(jobs=1, cache=cache)
    retried = build_table(SMALL, runner=runner)
    assert (runner.stats.executed, runner.stats.cache_hits) == (1, 53)
    assert retried.entries == dict(faulted.entries,
                                   **{key: retried.entries[key]})
    assert table_file(cache)


def test_corrupt_table_entry_is_discarded_and_rebuilt(tmp_path, scans):
    cache = str(tmp_path / "cache")
    cold = build_table(SMALL, runner=GridRunner(jobs=1, cache=cache))
    path = table_file(cache)
    with open(path, "rb") as handle:
        stored = handle.read()
    with open(path, "w") as handle:
        handle.write('{"spec": {"kind": "func"}, "result": "{')
    runner = GridRunner(jobs=1, cache=cache)
    rebuilt = build_table(SMALL, runner=runner)
    assert rebuilt.to_json() == cold.to_json()
    # Rebuilt from a second scan and the cached probes, then stored
    # again with the same bytes.
    assert runner.stats.cache_hits == 54
    assert len(scans) == 2
    assert table_file(cache) == path
    with open(path, "rb") as handle:
        assert handle.read() == stored
