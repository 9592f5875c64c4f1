"""Catalog schema validation, serialisation and materialisation."""

import json

import pytest

from repro.apps.buggy.registry import (
    SCENARIO_CASES_BY_KEY,
    is_scenario_key,
    resolve_case,
    scenario_families,
)
from repro.scenarios.catalog import (
    CATALOG_SCHEMA_VERSION,
    ScenarioCatalog,
    default_catalog,
    scenario_key,
)
from repro.scenarios.families import FAMILIES, RESOURCE_DRIVERS

from tests.conftest import check_schema

# Entry keys are ``scenario:<family>:<resource>:<index>`` and the
# registry is process-global, so the compositions here are chosen to
# collide with neither the default catalog's nor the committed
# example's key positions.
MINI_ENTRIES = [
    {"family": "lost-reference", "resource": "sensor",
     "traces": ["diurnal"]},
    {"family": "misleading-burst", "resource": "cpu",
     "traces": ["diurnal"], "params": {"burst_s": 12.0}},
]


def mini_catalog(name="mini", seed=5):
    return ScenarioCatalog(name=name, seed=seed, entries=MINI_ENTRIES)


# -- validation --------------------------------------------------------------

def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        ScenarioCatalog("x", 1, [{"family": "nope", "resource": "gps"}])


def test_unknown_resource_rejected():
    with pytest.raises(ValueError, match="unknown resource"):
        ScenarioCatalog("x", 1, [
            {"family": "late-release", "resource": "flux-capacitor"}])


def test_unsupported_composition_rejected():
    # acquire-loop does not compose with the screen driver.
    assert "screen" not in FAMILIES["acquire-loop"].supported
    with pytest.raises(ValueError, match="does not compose"):
        ScenarioCatalog("x", 1, [
            {"family": "acquire-loop", "resource": "screen"}])


def test_unknown_trace_kind_rejected():
    with pytest.raises(ValueError, match="unknown trace kind"):
        ScenarioCatalog("x", 1, [
            {"family": "late-release", "resource": "gps",
             "traces": ["lunar-eclipse"]}])


def test_non_numeric_param_rejected():
    with pytest.raises(ValueError, match="must be a number"):
        ScenarioCatalog("x", 1, [
            {"family": "late-release", "resource": "gps",
             "params": {"hold_s": "long"}}])


def test_wrong_kind_and_schema_rejected():
    with pytest.raises(ValueError, match="not a scenario catalog"):
        ScenarioCatalog.from_json(json.dumps({"kind": "fleet_report"}))
    payload = mini_catalog().to_jsonable()
    payload["schema"] = CATALOG_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        ScenarioCatalog.from_json(json.dumps(payload))


# -- serialisation and identity ----------------------------------------------

def test_canonical_json_roundtrip():
    cat = mini_catalog()
    again = ScenarioCatalog.from_json(cat.to_json())
    assert again.to_json() == cat.to_json()
    assert again.fingerprint() == cat.fingerprint()
    payload = json.loads(cat.to_json())
    assert list(payload) == sorted(payload)


def test_fingerprint_sensitive_to_seed_and_entries():
    base = mini_catalog()
    assert mini_catalog(seed=6).fingerprint() != base.fingerprint()
    fewer = ScenarioCatalog("mini", 5, MINI_ENTRIES[:1])
    assert fewer.fingerprint() != base.fingerprint()
    # The name is part of the identity too (it names artifacts).
    assert mini_catalog(name="other").fingerprint() != base.fingerprint()


def test_committed_example_catalog_parses():
    cat = ScenarioCatalog.from_file("tests/data/scenario_catalog_example.json")
    assert len(cat.entries) == 3
    assert cat.entries[2]["params"] == {"burst_s": 12.0}


def test_lint_tool_instantiates_the_example_and_fails_other_files(
        tmp_path, capsys):
    assert check_schema("catalog", "--instantiate",
                        "tests/data/scenario_catalog_example.json") == 0
    assert check_schema("catalog", "tests/data/telemetry_example.jsonl") == 1
    other = tmp_path / "report.json"
    other.write_text(json.dumps({"kind": "fleet_report", "schema": 1}))
    assert check_schema("catalog", str(other)) == 1
    capsys.readouterr()


# -- deterministic materialisation -------------------------------------------

def test_default_catalog_meets_diversity_floor():
    cat = default_catalog()
    families = {entry["family"] for entry in cat.entries}
    resources = {entry["resource"] for entry in cat.entries}
    assert len(families) >= 5
    assert len(resources) >= 5
    assert len(cat.entries) == sum(
        len(FAMILIES[f].supported) for f in FAMILIES)
    for resource in RESOURCE_DRIVERS:
        assert resource in resources


def test_entry_params_deterministic_and_overridable():
    cat = mini_catalog()
    assert cat.entry_params(0) == mini_catalog().entry_params(0)
    # Explicit params override the seeded draw, others keep it.
    drawn = cat.entry_params(1)
    assert drawn["burst_s"] == 12.0
    bare = ScenarioCatalog("mini", 5, [
        dict(MINI_ENTRIES[1], params={})])
    # Same sub-seed position, no override: the seeded value differs or
    # matches by chance, but every other key draws identically.
    assert set(bare.entry_params(0)) == set(drawn)


def test_instantiate_registers_resolvable_cases():
    cat = mini_catalog()
    cases = cat.instantiate()
    assert cat.instantiate() is cases  # idempotent per instance
    for index, case in enumerate(cases):
        assert case.key == cat.entry_key(index)
        assert is_scenario_key(case.key)
        assert resolve_case(case.key) is case
        assert case.key in SCENARIO_CASES_BY_KEY
    assert scenario_families([c.key for c in cases]) == [
        "lost-reference", "misleading-burst"]


def test_conflicting_catalog_same_keys_rejected():
    mini_catalog().instantiate()
    # Same name+seed+entries but different params -> same keys, a
    # different fingerprint: must refuse to overwrite.
    conflicting = ScenarioCatalog("mini", 5, [
        dict(MINI_ENTRIES[0], params={"use_s": 9.0}),
        MINI_ENTRIES[1],
    ])
    with pytest.raises(ValueError, match="already registered"):
        conflicting.instantiate()


def test_scenario_key_layout_carries_family():
    key = scenario_key("late-release", "gps", 7)
    assert key == "scenario:late-release:gps:007"
    assert scenario_families([key, "sync_abuser"]) == ["late-release"]
