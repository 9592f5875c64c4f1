"""Population sampling: the frozen law, determinism, independence,
serialisation."""

import json

import pytest

from repro.fleet.population import (
    BUGGY_POOL,
    NORMAL_ARCHETYPES,
    PopulationSpec,
    normal_app_factory,
)
from tests.fleet.sampling_oracle import LAWS, check_law, law

#: Devices per law in tier-1; CI's ``determinism`` job runs 10^5.
ORACLE_DEVICES = 2000


@pytest.mark.parametrize("name", list(LAWS))
def test_the_sampler_matches_the_frozen_law(name):
    # sample_columns is the only sampler and device(i) its one-row
    # case, so each is compared with the frozen per-device oracle,
    # fault-plan JSON included.
    population = law(name, ORACLE_DEVICES)
    armed = check_law(population)
    assert (armed > 0) == (population.chaos_rate > 0)


def test_same_seed_same_population_json():
    a = PopulationSpec(seed=42, devices=100)
    b = PopulationSpec(seed=42, devices=100)
    assert a.to_json() == b.to_json()
    assert a.fingerprint() == b.fingerprint()


def test_same_seed_identical_devices_and_sub_seeds():
    a = PopulationSpec(seed=42, devices=50, chaos_rate=0.3)
    b = PopulationSpec(seed=42, devices=50, chaos_rate=0.3)
    for index in range(50):
        assert a.sub_seed(index) == b.sub_seed(index)
        assert a.device(index) == b.device(index)


def test_different_indices_independent_streams():
    spec = PopulationSpec(seed=7, devices=200)
    sub_seeds = [spec.sub_seed(i) for i in range(200)]
    assert len(set(sub_seeds)) == 200, "sub-seed collision"
    # The sampled configurations actually vary across the population.
    devices = [spec.device(i) for i in range(40)]
    assert len({d.profile for d in devices}) > 1
    assert len({d.normal_apps for d in devices}) > 1
    assert len({d.touch_interval_s for d in devices}) > 1


def test_different_seed_different_fingerprint_and_devices():
    a = PopulationSpec(seed=1, devices=30)
    b = PopulationSpec(seed=2, devices=30)
    assert a.fingerprint() != b.fingerprint()
    assert any(a.device(i) != b.device(i) for i in range(30))


def test_json_roundtrip_preserves_spec():
    spec = PopulationSpec(seed=9, devices=77, shard_size=10,
                          mitigations=("vanilla", "leaseos", "doze"),
                          buggy_prevalence=0.4, chaos_rate=0.1)
    again = PopulationSpec.from_json(spec.to_json())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    # Canonical form: key-sorted and compact.
    payload = json.loads(spec.to_json())
    assert list(payload) == sorted(payload)


def test_vanilla_always_included_first():
    spec = PopulationSpec(seed=1, devices=10, mitigations=("leaseos",))
    assert spec.mitigations[0] == "vanilla"
    assert "leaseos" in spec.mitigations


def test_shard_ranges_partition_population():
    spec = PopulationSpec(seed=1, devices=103, shard_size=25)
    assert spec.shard_count == 5
    covered = []
    for shard in range(spec.shard_count):
        start, stop = spec.shard_range(shard)
        covered.extend(range(start, stop))
    assert covered == list(range(103))
    with pytest.raises(IndexError):
        spec.shard_range(5)


def test_device_index_bounds():
    spec = PopulationSpec(seed=1, devices=5)
    with pytest.raises(IndexError):
        spec.device(5)
    with pytest.raises(IndexError):
        spec.device(-1)


def test_chaos_rate_arms_some_devices_deterministically():
    spec = PopulationSpec(seed=13, devices=60, chaos_rate=0.5)
    armed = [i for i in range(60) if spec.device(i).fault_plan_json]
    assert armed, "chaos_rate=0.5 should arm some devices"
    assert len(armed) < 60, "chaos_rate=0.5 should spare some devices"
    again = [i for i in range(60)
             if spec.device(i).fault_plan_json]
    assert armed == again


def test_every_archetype_buildable():
    for name in NORMAL_ARCHETYPES:
        app = normal_app_factory(name)
        assert app.name


def test_buggy_pool_is_full_table5():
    from repro.apps.buggy import CASES_BY_KEY

    assert BUGGY_POOL == tuple(sorted(CASES_BY_KEY))


def test_app_mix_respects_prevalence_extremes():
    none = PopulationSpec(seed=3, devices=20, buggy_prevalence=0.0)
    assert all(not none.device(i).buggy_apps for i in range(20))
    allbugs = PopulationSpec(seed=3, devices=20, buggy_prevalence=1.0)
    assert all(not allbugs.device(i).normal_apps for i in range(20))
    assert all(allbugs.device(i).buggy_apps for i in range(20))
