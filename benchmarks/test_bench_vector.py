"""Vector-engine benchmark: numpy vs pure-python backend throughput.

Records ``results/BENCH_vector.json`` (uploaded by the CI
table-smoke artifact step):

- pure-python backend (``REPRO_FASTPATH_NUMPY=0``: per-device
  ``fast_summary`` and pure-python folds) vs numpy columnar
  device-days/sec on a 10^5-device, 4-mitigation fleet (>= 10x,
  asserted), with the fallback count asserted zero on *both* sides so
  the comparison is pure engine against pure engine;
- the same columnar throughput at 2 mitigations (the default law's
  width) for scaling context;
- a 10^6-device end-to-end replay -- sampling, class resolution,
  composition and folding over every shard, merged -- asserted under
  60 s (the ISSUE's fleet-scale wall-clock budget);
- the one-off table build, timed separately (it amortises across the
  whole fleet and is identical for both backends).

The bench law is app-rich (8..12 installed apps, four mitigations)
because that is where the scalar per-device Python walk hurts; the
buggy pool is narrowed to six cases and the buggy prevalence kept low
enough that no device in the 10^6 fleet is all-buggy (all-buggy
foreground probe combinations live outside the table's bounded probe
scan), so every merged-case environment is covered by the table and
neither engine takes a kernel fallback.
"""

import json
import os
import time

from repro.experiments.grid import GridRunner
from repro.fleet.fastpath import build_table
from repro.fleet.population import BUGGY_POOL, PopulationSpec
from repro.fleet.stats import FleetStats
from repro.fleet.vector import replay_shard_vector

MITIGATIONS = ("vanilla", "leaseos", "doze-aggressive", "defdroid")

#: The throughput-comparison fleet.
BENCH_DEVICES = 100_000

#: Devices the pure-python backend replays (it is ~10x slower per
#: device-day; a prefix keeps the benchmark honest *and* quick).
SCALAR_DEVICES = 2_500

#: The end-to-end fleet-scale smoke.
SMOKE_DEVICES = 1_000_000

#: Required numpy columnar advantage over the pure-python backend.
MIN_SPEEDUP = 10.0

#: Fleet-scale wall-clock budget (seconds) for the 10^6 replay.
SMOKE_BUDGET_S = 60.0


def _population(devices, mitigations, shard_size):
    return PopulationSpec(
        devices=devices, seed=7, mitigations=mitigations,
        min_apps=8, max_apps=12, buggy_prevalence=0.15,
        buggy_pool=tuple(BUGGY_POOL[:6]), shard_size=shard_size)


def _fallbacks(stats):
    return max(fold.counters.get("fastpath_fallbacks", 0)
               for fold in stats.values())


def test_bench_vector(results_path, monkeypatch):
    population = _population(BENCH_DEVICES, MITIGATIONS, 25_000)

    # One-off table build, shared by both backends (timed separately:
    # it amortises over the fleet and is identical either way).
    start = time.perf_counter()
    table = build_table(population,
                        runner=GridRunner(jobs=1, cache=False))
    table_s = time.perf_counter() - start

    # Pure-python backend: a device prefix, pure table replay.
    monkeypatch.setenv("REPRO_FASTPATH_NUMPY", "0")
    start = time.perf_counter()
    scalar_stats, __ = replay_shard_vector(population, 0,
                                           SCALAR_DEVICES, table)
    scalar_s = time.perf_counter() - start
    monkeypatch.delenv("REPRO_FASTPATH_NUMPY")
    scalar_days = SCALAR_DEVICES * len(MITIGATIONS)
    scalar_dd_s = scalar_days / scalar_s
    assert _fallbacks(scalar_stats) == 0

    # numpy columnar backend: one full shard.
    start = time.perf_counter()
    vector_stats, __ = replay_shard_vector(population, 0, 25_000,
                                           table)
    vector_s = time.perf_counter() - start
    vector_days = 25_000 * len(MITIGATIONS)
    vector_dd_s = vector_days / vector_s
    assert _fallbacks(vector_stats) == 0
    assert vector_stats["vanilla"].counters["vector_devices"] == 25_000
    speedup = vector_dd_s / scalar_dd_s

    # Scaling context: the same law at the default two-mitigation
    # width (same table -- sampling is mitigation-independent).
    narrow = _population(BENCH_DEVICES, ("vanilla", "leaseos"), 25_000)
    start = time.perf_counter()
    narrow_stats, __ = replay_shard_vector(narrow, 0, 25_000, table)
    narrow_s = time.perf_counter() - start
    narrow_dd_s = 25_000 * 2 / narrow_s
    assert _fallbacks(narrow_stats) == 0

    # Fleet scale: 10^6 devices end-to-end (sample, resolve, compose,
    # fold, merge) under the wall-clock budget.
    smoke_pop = _population(SMOKE_DEVICES, MITIGATIONS, 50_000)
    start = time.perf_counter()
    merged = {name: FleetStats() for name in MITIGATIONS}
    for shard in range(smoke_pop.shard_count):
        lo, hi = smoke_pop.shard_range(shard)
        stats, __ = replay_shard_vector(smoke_pop, lo, hi, table)
        merged = {name: merged[name].merge(stats[name])
                  for name in MITIGATIONS}
    smoke_s = time.perf_counter() - start
    smoke_days = SMOKE_DEVICES * len(MITIGATIONS)
    for name in MITIGATIONS:
        assert merged[name].counters["devices"] == SMOKE_DEVICES
    assert _fallbacks(merged) == 0

    payload = {
        "mitigations": list(MITIGATIONS),
        "app_slots": [8, 12],
        "buggy_pool_cases": 6,
        "buggy_prevalence": 0.15,
        "table_probes": len(table.entries),
        "table_build_s": round(table_s, 2),
        "scalar_device_days": scalar_days,
        "scalar_s": round(scalar_s, 3),
        "scalar_device_days_per_s": round(scalar_dd_s, 1),
        "vector_device_days": vector_days,
        "vector_s": round(vector_s, 3),
        "vector_device_days_per_s": round(vector_dd_s, 1),
        "speedup_vs_python_backend": round(speedup, 2),
        "vector_2mit_device_days_per_s": round(narrow_dd_s, 1),
        "smoke": {
            "devices": SMOKE_DEVICES,
            "device_days": smoke_days,
            "shards": smoke_pop.shard_count,
            "replay_s": round(smoke_s, 1),
            "device_days_per_s": round(smoke_days / smoke_s, 1),
            "budget_s": SMOKE_BUDGET_S,
        },
        "cpu_count": os.cpu_count() or 1,
    }
    with open(results_path("BENCH_vector.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    assert speedup >= MIN_SPEEDUP, payload
    assert smoke_s < SMOKE_BUDGET_S, payload
