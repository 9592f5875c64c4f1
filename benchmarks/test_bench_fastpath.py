"""Transition-table benchmark: replay throughput, validation, 10^5 smoke.

Records ``results/BENCH_fastpath.json`` (uploaded by the CI
table-smoke artifact step):

- kernel vs table-replay device-days/sec at the canonical 30 sim-min
  day, and the speedup (the tentpole claim: >= 1000x, asserted);
- the table-build amortisation facts (probe count, build seconds);
- a full cross-validation run -- kernel vs table on >= 50 seeded random
  device-days drawn from the *default* heterogeneous sampling law,
  judged against the frozen per-metric tolerances (pass asserted);
- a 10^5-device fleet smoke through ``FleetRunner(mode="auto")``
  (which resolves to the vector engine at this size): end-to-end wall
  time, throughput, and the fallback fraction.

The kernel baseline is timed over a handful of device-days (it is four
orders of magnitude slower); the replay side over thousands.
"""

import json
import os
import time

from repro.experiments.grid import GridRunner
from repro.fleet import FleetRunner, PopulationSpec, build_report
from repro.fleet.fastpath import build_table, cross_validate
from repro.fleet.shard import simulate_device_day
from repro.fleet.vector import replay_shard_vector

#: Narrow sampling pools keep the benchmark's transition table small
#: (the speedup is per *device-day*; class diversity only moves the
#: one-off table cost, which is reported separately).
BENCH_POOLS = dict(profiles=("Nexus 5X",), buggy_pool=("torch", "k9"),
                   max_apps=3)
MINUTES = 30.0

#: Kernel device-days timed for the baseline denominator.
KERNEL_SAMPLE_DEVICES = 3

#: Devices replayed for the throughput numerator.
REPLAY_DEVICES = 500

#: Cross-validation width (the acceptance floor is 50 specs).
XVAL_N = 50

#: The CI smoke's fleet size.
SMOKE_DEVICES = 100_000


def test_bench_fastpath(results_path, tmp_path):
    population = PopulationSpec(seed=2019, devices=2000, shard_size=500,
                                minutes=MINUTES,
                                mitigations=("vanilla", "leaseos"),
                                **BENCH_POOLS)

    # Kernel baseline: a few real event-loop device-days.
    start = time.perf_counter()
    kernel_days = 0
    for index in range(KERNEL_SAMPLE_DEVICES):
        for mitigation in population.mitigations:
            simulate_device_day(population.device(index), mitigation,
                                MINUTES)
            kernel_days += 1
    kernel_s = time.perf_counter() - start
    kernel_dd_s = kernel_days / kernel_s

    # One-off table build (uncached, honestly timed).
    start = time.perf_counter()
    table = build_table(population,
                        runner=GridRunner(jobs=1, cache=False))
    table_s = time.perf_counter() - start

    # Replay throughput: sampling, composition and batched folding.
    start = time.perf_counter()
    stats, __ = replay_shard_vector(population, 0, REPLAY_DEVICES, table)
    replay_s = time.perf_counter() - start
    replay_days = REPLAY_DEVICES * len(population.mitigations)
    replay_dd_s = replay_days / replay_s
    speedup = replay_dd_s / kernel_dd_s
    for name in population.mitigations:
        assert stats[name].counters["fastpath_devices"] == REPLAY_DEVICES
        assert stats[name].counters.get("fastpath_fallbacks", 0) == 0

    # The tentpole claim, kernel-validated: >= 50 seeded random
    # device-days from the *default* (fully heterogeneous) law, judged
    # against the frozen tolerances.
    xval_pop = PopulationSpec(seed=2019, devices=2000, shard_size=500,
                              minutes=MINUTES,
                              mitigations=("vanilla", "leaseos"))
    start = time.perf_counter()
    validation = cross_validate(xval_pop, n=XVAL_N,
                                runner=GridRunner(jobs=1, cache=False))
    xval_s = time.perf_counter() - start
    assert validation["pass"], validation["violations"]
    assert validation["device_days_compared"] >= XVAL_N

    # 10^5-device CI smoke: the full sharded pipeline in auto mode.
    smoke_pop = PopulationSpec(seed=2019, devices=SMOKE_DEVICES,
                               shard_size=5000, minutes=5.0,
                               mitigations=("vanilla", "leaseos"),
                               profiles=("Nexus 5X", "Google Pixel XL"),
                               buggy_pool=("torch", "k9"), max_apps=3)
    start = time.perf_counter()
    smoke_runner = FleetRunner(
        smoke_pop, runner=GridRunner(jobs=1, cache=False), mode="auto",
        checkpoint_dir=str(tmp_path / "ck-smoke"))
    assert smoke_runner.mode == "vector"
    smoke_merged = smoke_runner.run()
    smoke_s = time.perf_counter() - start
    smoke_days = smoke_pop.devices * len(smoke_pop.mitigations)
    fallbacks = sum(
        smoke_merged[name].counters.get("fastpath_fallbacks", 0)
        for name in smoke_pop.mitigations)
    for name in smoke_pop.mitigations:
        assert smoke_merged[name].counters["devices"] == SMOKE_DEVICES
    # An unseen tail class falls back to the kernel; at fleet scale it
    # must stay a rounding error.
    assert fallbacks <= 0.005 * smoke_days
    build_report(smoke_pop, smoke_merged,
                 execution=smoke_runner.run_summary())

    payload = {
        "minutes_per_device_day": MINUTES,
        "kernel_device_days_timed": kernel_days,
        "kernel_device_days_per_s": round(kernel_dd_s, 2),
        "table_probes": len(table.entries),
        "table_build_s": round(table_s, 2),
        "replay_device_days": replay_days,
        "replay_s": round(replay_s, 3),
        "replay_device_days_per_s": round(replay_dd_s, 1),
        "speedup_vs_kernel": round(speedup, 1),
        "cross_validation_s": round(xval_s, 1),
        "cross_validation": validation,
        "smoke": {
            "devices": smoke_pop.devices,
            "device_days": smoke_days,
            "minutes_per_device_day": smoke_pop.minutes,
            "shards": smoke_pop.shard_count,
            "total_s": round(smoke_s, 1),
            "device_days_per_s": round(smoke_days / smoke_s, 1),
            "fastpath_fallbacks": fallbacks,
            "mode": smoke_runner.mode,
            "table_fingerprint": smoke_runner.table_fingerprint,
        },
        "cpu_count": os.cpu_count() or 1,
    }
    assert speedup >= 1000.0, payload
    with open(results_path("BENCH_fastpath.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
