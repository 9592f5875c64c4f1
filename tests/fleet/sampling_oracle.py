"""The population sampling law, frozen as a per-device draw sequence.

``PopulationSpec.sample_columns`` is the one sampler: it inlines every
``random.Random`` call for speed, and ``PopulationSpec.device`` is its
one-row case. :func:`reference_device` states the same law with the
plain calls (``choice``, ``randint``, ``uniform``), one device at a
time, so the two are independent statements of it and a change to
either shows as a mismatch.

pytest does not collect this module. ``tests/fleet/test_population.py``
runs :func:`check_law` at tier-1 sizes, and CI's ``determinism`` job
runs every law at 10^5 devices::

    PYTHONPATH=src python -c \\
        "from tests.fleet.sampling_oracle import check_laws; check_laws(100_000)"
"""

import random
import time

from repro.fleet.population import (
    NORMAL_ARCHETYPES,
    DeviceSpec,
    PopulationSpec,
    _draw_scenario,
    scenario_pool,
)
from repro.scenarios.catalog import ScenarioCatalog

CATALOG_PATH = "tests/data/scenario_catalog_example.json"

#: ``law name -> PopulationSpec keyword arguments`` (``devices`` is
#: the caller's): the prevalence extremes, the default law, chaos, and
#: a weighted scenario catalog with chaos.
LAWS = {
    "prevalence-0": dict(seed=7, buggy_prevalence=0.0),
    "default": dict(seed=2019),
    "prevalence-1-apps-1-9": dict(seed=7, buggy_prevalence=1.0,
                                  min_apps=1, max_apps=9),
    "chaos-0.5": dict(seed=11, chaos_rate=0.5),
    "catalog-chaos": dict(
        seed=31, chaos_rate=0.3, scenario_prevalence=0.3,
        family_weights=(("late-release", 3.0), ("misleading-burst", 0.5))),
}

#: ``device(i)`` is compared on every ``DEVICE_STRIDE``-th index.
DEVICE_STRIDE = 97


def law(name, devices):
    """The :class:`PopulationSpec` of law ``name`` at ``devices``."""
    kwargs = dict(LAWS[name], devices=devices)
    if "scenario_prevalence" in kwargs:
        kwargs["catalog_json"] = \
            ScenarioCatalog.from_file(CATALOG_PATH).to_json()
    return PopulationSpec(**kwargs)


def reference_device(population, index):
    """Device ``index`` of ``population``, drawn as ``device()`` drew
    it before ``sample_columns`` became the one sampler: the same
    calls in the same order (``self`` renamed ``population``)."""
    if not 0 <= index < population.devices:
        raise IndexError("device {} out of range".format(index))
    sub_seed = population.sub_seed(index)
    rng = random.Random(sub_seed)
    profile = rng.choice(list(population.profiles))
    slots = rng.randint(population.min_apps, population.max_apps)
    # Catalog-free specs take zero scenario draws, keeping their
    # device streams byte-identical to pre-scenario builds.
    pool = scenario_pool(population.catalog_json,
                         population.family_weights) \
        if population.catalog_json else None
    normal, buggy = [], []
    for __ in range(slots):
        if pool is not None \
                and rng.random() < population.scenario_prevalence:
            buggy.append(_draw_scenario(rng.random(), pool))
        elif population.buggy_pool \
                and rng.random() < population.buggy_prevalence:
            buggy.append(rng.choice(list(population.buggy_pool)))
        else:
            normal.append(rng.choice(list(NORMAL_ARCHETYPES)))
    # Duplicate installs are illegal (one uid per app name); keep
    # first occurrences, preserving sampled order.
    normal = tuple(dict.fromkeys(normal))
    buggy = tuple(dict.fromkeys(buggy))
    fault_plan_json = ""
    if population.chaos_rate > 0 and rng.random() < population.chaos_rate:
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.sample(
            sub_seed % (2 ** 31), horizon_s=population.minutes * 60.0,
            events_per_hour=population.chaos_events_per_hour)
        fault_plan_json = plan.to_json()
    return DeviceSpec(
        index=index,
        sub_seed=sub_seed,
        profile=profile,
        normal_apps=normal,
        buggy_apps=buggy,
        gps_quality=round(rng.uniform(0.55, 0.98), 3),
        movement_mps=round(rng.choice((0.0, 0.0, 0.8, 1.4)), 3),
        network_kind=rng.choice(("wifi", "wifi", "cellular")),
        battery_level=round(rng.uniform(0.5, 1.0), 3),
        session_count=rng.randint(1, 3),
        session_s=round(rng.uniform(120.0, 600.0), 1),
        touch_interval_s=round(rng.uniform(6.0, 45.0), 1),
        fault_plan_json=fault_plan_json,
    )


def check_law(population):
    """Assert that every row of ``sample_columns(0, devices)``, and
    ``device(i)`` on every :data:`DEVICE_STRIDE`-th index, equals the
    oracle, fault-plan JSON included. Returns the number of armed
    rows, so a caller can see the chaos draw was exercised."""
    columns = population.sample_columns(0, population.devices)
    assert len(columns) == population.devices
    armed = 0
    for row in range(population.devices):
        expected = reference_device(population, row)
        got = columns.spec(row, population)
        assert got == expected, "row {}: {} != {}".format(
            row, got, expected)
        armed += bool(expected.fault_plan_json)
    for index in range(0, population.devices, DEVICE_STRIDE):
        assert population.device(index) \
            == reference_device(population, index), \
            "device({}) differs from the oracle".format(index)
    return armed


def check_laws(devices):
    """:func:`check_law` on every law of :data:`LAWS` at ``devices``
    devices, one summary line each on stdout."""
    for name in LAWS:
        started = time.monotonic()
        armed = check_law(law(name, devices))
        print("sampling law {}: {} devices ({} fault-armed) equal the "
              "oracle in {:.1f} s".format(name, devices, armed,
                                         time.monotonic() - started),
              flush=True)
