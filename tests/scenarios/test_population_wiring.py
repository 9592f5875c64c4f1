"""PopulationSpec scenario wiring and the catalog-free compatibility
contract.

The load-bearing guarantee: a spec without a catalog serialises,
fingerprints and samples exactly as before the scenario subsystem
existed -- zero extra JSON keys, zero extra RNG draws -- so every
pre-scenario checkpoint, cache key and report golden stays valid.
"""

import json

import pytest

from repro.apps.buggy.registry import is_scenario_key, resolve_case
from repro.fleet.population import (
    PopulationSpec,
    _draw_scenario,
    scenario_pool,
)
from repro.scenarios.catalog import ScenarioCatalog

EXAMPLE_PATH = "tests/data/scenario_catalog_example.json"


def example_json():
    return ScenarioCatalog.from_file(EXAMPLE_PATH).to_json()


def scenario_spec(**kwargs):
    kwargs.setdefault("seed", 31)
    kwargs.setdefault("devices", 40)
    kwargs.setdefault("catalog_json", example_json())
    kwargs.setdefault("scenario_prevalence", 0.5)
    return PopulationSpec(**kwargs)


# -- catalog-free compatibility ----------------------------------------------

def test_catalog_free_json_has_no_scenario_keys():
    payload = json.loads(PopulationSpec(seed=42, devices=10).to_json())
    assert "catalog_json" not in payload
    assert "scenario_prevalence" not in payload
    assert "family_weights" not in payload


def test_catalog_free_fingerprint_unchanged_by_explicit_defaults():
    plain = PopulationSpec(seed=42, devices=10)
    explicit = PopulationSpec(seed=42, devices=10, catalog_json="",
                              scenario_prevalence=0.0, family_weights=())
    assert explicit.to_json() == plain.to_json()
    assert explicit.fingerprint() == plain.fingerprint()


def test_catalog_free_legacy_json_still_parses():
    # JSON written before the scenario fields existed must load.
    plain = PopulationSpec(seed=42, devices=10)
    legacy = PopulationSpec.from_json(plain.to_json())
    assert legacy == plain
    assert [legacy.device(i) for i in range(10)] \
        == [plain.device(i) for i in range(10)]


def test_prevalence_without_catalog_rejected():
    with pytest.raises(ValueError, match="catalog_json"):
        PopulationSpec(seed=1, devices=4, scenario_prevalence=0.2)


# -- catalog-bearing specs ---------------------------------------------------

def test_scenario_spec_roundtrip():
    spec = scenario_spec(family_weights=(("late-release", 3.0),))
    again = PopulationSpec.from_json(spec.to_json())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    assert again.family_weights == (("late-release", 3.0),)
    # Catalog identity is part of the population identity. (The alt
    # catalog's single composition is disjoint from every other test
    # catalog's key positions -- the registry refuses collisions.)
    alt = ScenarioCatalog("alt", 6, [
        {"family": "early-release", "resource": "wifi",
         "traces": ["diurnal"]}])
    other = scenario_spec(catalog_json=alt.to_json())
    assert other.fingerprint() != scenario_spec().fingerprint()


def test_scenario_devices_sampled_at_prevalence():
    spec = scenario_spec(scenario_prevalence=0.9)
    keys = [key for i in range(40) for key in spec.device(i).buggy_apps
            if is_scenario_key(key)]
    assert keys, "no scenario apps at 90% prevalence"
    # Every sampled key resolves: from_json registered the catalog.
    for key in set(keys):
        assert resolve_case(key).category == "scenario"


def test_family_weights_skew_the_draw():
    heavy = scenario_spec(
        devices=120, scenario_prevalence=0.9,
        family_weights=(("late-release", 50.0),))
    families = [key.split(":")[1]
                for i in range(120) for key in heavy.device(i).buggy_apps
                if is_scenario_key(key)]
    assert families.count("late-release") > len(families) * 0.7


def test_bad_family_weights_rejected():
    with pytest.raises(ValueError, match="negative weight"):
        scenario_pool(example_json(), (("late-release", -1.0),))
    with pytest.raises(ValueError, match="sum to zero"):
        scenario_pool(example_json(), (
            ("late-release", 0.0), ("misleading-burst", 0.0),
            ("missed-release-exception", 0.0)))


def test_draw_scenario_covers_the_pool():
    pool = scenario_pool(example_json())
    keys = {_draw_scenario(u / 100.0, pool) for u in range(100)}
    assert keys == set(pool[0])
