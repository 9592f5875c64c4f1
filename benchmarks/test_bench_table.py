"""Table-replay benchmark: one executor, every claim, one record.

Records ``results/BENCH_table.json`` (uploaded by the CI table-smoke
artifact step). Every replay below runs through the one table-replay
executor, :func:`~repro.fleet.vector.replay_shard_vector`:

- ``kernel``: kernel vs table-replay device-days/sec at the canonical
  30 sim-min day on a narrow law, and the speedup (>= 1000x,
  asserted), with the one-off table build and the process's first
  replay timed separately;
- ``cross_validation``: kernel vs table on >= 50 seeded random
  device-days drawn from the *default* heterogeneous sampling law,
  judged against the frozen per-metric tolerances (pass asserted);
- ``auto_smoke``: a 10^5-device fleet through ``FleetRunner(mode=
  "auto")``, which resolves to the vector engine at this size: wall
  time, throughput and the fallback fraction;
- ``backends``: the numpy columnar backend against the pure-python one
  (``REPRO_FASTPATH_NUMPY=0``: per-device ``fast_summary`` and
  pure-python folds) on an app-rich, four-mitigation law, with zero
  fallbacks on both legs so the comparison is engine against engine
  (>= 10x, asserted). The same columnar throughput at two mitigations
  is recorded for scaling context;
- ``fleet_scale``: a 10^6-device end-to-end replay (sampling, class
  resolution, composition, folding, merge) under 60 s (asserted).

Both speed gates are timed by :func:`_interleaved`: the two legs run
in :data:`PAIRS` interleaved pairs in this process, alternating which
leg runs first, the gate divides the legs' min-of-N times, and every
pair's times and ratio are recorded beside it, so a slow moment of a
shared host, which only adds time, cannot sink the verdict on its own.
The kernel comparison's replay leg is warm, as every shard of a fleet
run after the process's first is: the process's first replay, which
includes one-off set-up such as importing numpy, runs before the pairs
and is recorded (``first_replay_s``) but not gated.

The backend law keeps its buggy pool to six cases and its buggy
prevalence low enough that no device of the 10^6 fleet is all-buggy
(all-buggy foreground probe combinations live outside the table's
bounded probe scan), so every merged-case environment is in the table
and neither engine takes a kernel fallback.
"""

import json
import os
import time

from repro.experiments.grid import GridRunner
from repro.fleet import FleetRunner, PopulationSpec, build_report
from repro.fleet.fastpath import build_table, cross_validate
from repro.fleet.population import BUGGY_POOL
from repro.fleet.shard import simulate_device_day
from repro.fleet.stats import FleetStats
from repro.fleet.vector import replay_shard_vector

#: Narrow sampling pools keep the kernel comparison's transition table
#: small (the speedup is per *device-day*; class diversity only moves
#: the one-off table cost, which is reported separately).
KERNEL_POOLS = dict(profiles=("Nexus 5X",), buggy_pool=("torch", "k9"),
                    max_apps=3)
MINUTES = 30.0

#: Devices whose kernel days (one per mitigation) make the baseline.
KERNEL_SAMPLE_DEVICES = 3

#: Devices table-replayed for the kernel comparison's numerator.
REPLAY_DEVICES = 500

#: Required table-replay advantage over the kernel.
MIN_KERNEL_SPEEDUP = 1000.0

#: Cross-validation width (the acceptance floor is 50 specs).
XVAL_N = 50

#: The ``mode="auto"`` smoke's fleet size.
AUTO_SMOKE_DEVICES = 100_000

#: The backend law's mitigations.
MITIGATIONS = ("vanilla", "leaseos", "doze-aggressive", "defdroid")

#: The backend comparison's fleet and the numpy leg's one shard.
BENCH_DEVICES = 100_000
VECTOR_DEVICES = 25_000

#: Devices the pure-python backend replays (it is ~10x slower per
#: device-day; a prefix keeps the benchmark honest *and* quick).
SCALAR_DEVICES = 2_500

#: Interleaved timing pairs behind the backend speedup gate.
PAIRS = 9

#: Required numpy columnar advantage over the pure-python backend.
MIN_SPEEDUP = 10.0

#: The end-to-end fleet-scale replay and its wall-clock budget (s).
SMOKE_DEVICES = 1_000_000
SMOKE_BUDGET_S = 60.0


def _runner():
    return GridRunner(jobs=1, cache=False)


def _fallbacks(stats):
    return max(fold.counters.get("fastpath_fallbacks", 0)
               for fold in stats.values())


def _interleaved(slow, fast):
    """Time two ``(name, run, device_days)`` legs in :data:`PAIRS`
    interleaved pairs, alternating which runs first, so neither always
    inherits the other's warm caches or a host's slow moment. Returns
    the record block: each leg's per-pair seconds and min-of-N
    throughput, every pair's speedup, and the gated speedup of the
    min-of-N times."""
    legs = (slow, fast)
    times = ([], [])
    for pair in range(PAIRS):
        for leg in ((0, 1) if pair % 2 == 0 else (1, 0)):
            run = legs[leg][1]
            start = time.perf_counter()
            run()
            times[leg].append(time.perf_counter() - start)

    def speedup(slow_s, fast_s):
        return (fast[2] / fast_s) / (slow[2] / slow_s)

    block = {"pairs": PAIRS,
             "pair_speedups": [round(speedup(s, f), 2)
                               for s, f in zip(*times)],
             # Unrounded: the record shows exactly what the gate compared.
             "speedup": speedup(min(times[0]), min(times[1]))}
    for (name, __, days), seconds in zip(legs, times):
        block[name + "_device_days"] = days
        block[name + "_s"] = [round(s, 3) for s in seconds]
        block[name + "_device_days_per_s"] = round(days / min(seconds), 2)
    return block


def _kernel_block():
    population = PopulationSpec(seed=2019, devices=2000, shard_size=500,
                                minutes=MINUTES,
                                mitigations=("vanilla", "leaseos"),
                                **KERNEL_POOLS)
    days = len(population.mitigations)

    def kernel():
        # Kernel baseline: a few real event-loop device-days.
        for index in range(KERNEL_SAMPLE_DEVICES):
            for mitigation in population.mitigations:
                simulate_device_day(population.device(index), mitigation,
                                    MINUTES)

    def replay():
        # Replay throughput: sampling, composition and batched folding.
        stats, __ = replay_shard_vector(population, 0, REPLAY_DEVICES,
                                        table)
        for name in population.mitigations:
            assert stats[name].counters["fastpath_devices"] \
                == REPLAY_DEVICES
            assert stats[name].counters.get("fastpath_fallbacks", 0) == 0

    # One-off table build (uncached, honestly timed).
    start = time.perf_counter()
    table = build_table(population, runner=_runner())
    table_s = time.perf_counter() - start

    # The process's first replay pays one-off set-up: recorded only.
    start = time.perf_counter()
    replay()
    first_replay_s = time.perf_counter() - start

    block = _interleaved(
        ("kernel", kernel, KERNEL_SAMPLE_DEVICES * days),
        ("replay", replay, REPLAY_DEVICES * days))
    return dict(
        block,
        minutes_per_device_day=MINUTES,
        table_probes=len(table.entries),
        table_build_s=round(table_s, 2),
        first_replay_s=round(first_replay_s, 3),
        min_speedup=MIN_KERNEL_SPEEDUP)


def _cross_validation_block():
    population = PopulationSpec(seed=2019, devices=2000, shard_size=500,
                                minutes=MINUTES,
                                mitigations=("vanilla", "leaseos"))
    start = time.perf_counter()
    validation = cross_validate(population, n=XVAL_N, runner=_runner())
    xval_s = time.perf_counter() - start
    assert validation["pass"], validation["violations"]
    assert validation["device_days_compared"] >= XVAL_N
    return dict(validation, wall_s=round(xval_s, 1))


def _auto_smoke_block(tmp_path):
    population = PopulationSpec(seed=2019, devices=AUTO_SMOKE_DEVICES,
                                shard_size=5000, minutes=5.0,
                                mitigations=("vanilla", "leaseos"),
                                profiles=("Nexus 5X", "Google Pixel XL"),
                                buggy_pool=("torch", "k9"), max_apps=3)
    start = time.perf_counter()
    runner = FleetRunner(population, runner=_runner(), mode="auto",
                         checkpoint_dir=str(tmp_path / "ck-smoke"))
    assert runner.mode == "vector"
    merged = runner.run()
    smoke_s = time.perf_counter() - start
    days = population.devices * len(population.mitigations)
    fallbacks = sum(merged[name].counters.get("fastpath_fallbacks", 0)
                    for name in population.mitigations)
    for name in population.mitigations:
        assert merged[name].counters["devices"] == AUTO_SMOKE_DEVICES
    # An unseen tail class falls back to the kernel; at fleet scale it
    # must stay a rounding error.
    assert fallbacks <= 0.005 * days
    build_report(population, merged, execution=runner.run_summary())
    return {
        "devices": population.devices,
        "device_days": days,
        "minutes_per_device_day": population.minutes,
        "shards": population.shard_count,
        "total_s": round(smoke_s, 1),
        "device_days_per_s": round(days / smoke_s, 1),
        "fastpath_fallbacks": fallbacks,
        "mode": runner.mode,
        "table_fingerprint": runner.table_fingerprint,
    }


def _backend_population(devices, mitigations, shard_size):
    return PopulationSpec(
        devices=devices, seed=7, mitigations=mitigations,
        min_apps=8, max_apps=12, buggy_prevalence=0.15,
        buggy_pool=tuple(BUGGY_POOL[:6]), shard_size=shard_size)


def _replay(monkeypatch, numpy_on, population, stop, table):
    """Replay devices ``[0, stop)`` on one backend, with no kernel
    fallback. The numpy gate is read per call."""
    if numpy_on:
        monkeypatch.delenv("REPRO_FASTPATH_NUMPY", raising=False)
    else:
        monkeypatch.setenv("REPRO_FASTPATH_NUMPY", "0")
    stats, __ = replay_shard_vector(population, 0, stop, table)
    assert _fallbacks(stats) == 0
    if numpy_on:
        assert stats["vanilla"].counters["vector_devices"] == stop


def _backends_block(monkeypatch):
    population = _backend_population(BENCH_DEVICES, MITIGATIONS,
                                     VECTOR_DEVICES)

    # One-off table build, shared by both backends (timed separately:
    # it amortises over the fleet and is identical either way).
    start = time.perf_counter()
    table = build_table(population, runner=_runner())
    table_s = time.perf_counter() - start

    block = _interleaved(
        ("scalar", lambda: _replay(monkeypatch, False, population,
                                   SCALAR_DEVICES, table),
         SCALAR_DEVICES * len(MITIGATIONS)),
        ("vector", lambda: _replay(monkeypatch, True, population,
                                   VECTOR_DEVICES, table),
         VECTOR_DEVICES * len(MITIGATIONS)))

    # Scaling context: the same law at the default two-mitigation
    # width (same table -- sampling is mitigation-independent).
    narrow = _backend_population(BENCH_DEVICES, ("vanilla", "leaseos"),
                                 VECTOR_DEVICES)
    start = time.perf_counter()
    _replay(monkeypatch, True, narrow, VECTOR_DEVICES, table)
    narrow_s = time.perf_counter() - start
    return table, dict(
        block,
        mitigations=list(MITIGATIONS),
        app_slots=[8, 12],
        buggy_pool_cases=6,
        buggy_prevalence=0.15,
        table_probes=len(table.entries),
        table_build_s=round(table_s, 2),
        min_speedup=MIN_SPEEDUP,
        vector_2mit_device_days_per_s=round(VECTOR_DEVICES * 2 / narrow_s,
                                            1))


def _fleet_scale_block(table):
    population = _backend_population(SMOKE_DEVICES, MITIGATIONS, 50_000)
    start = time.perf_counter()
    merged = {name: FleetStats() for name in MITIGATIONS}
    for shard in range(population.shard_count):
        lo, hi = population.shard_range(shard)
        stats, __ = replay_shard_vector(population, lo, hi, table)
        merged = {name: merged[name].merge(stats[name])
                  for name in MITIGATIONS}
    smoke_s = time.perf_counter() - start
    days = SMOKE_DEVICES * len(MITIGATIONS)
    for name in MITIGATIONS:
        assert merged[name].counters["devices"] == SMOKE_DEVICES
    assert _fallbacks(merged) == 0
    return {
        "devices": SMOKE_DEVICES,
        "device_days": days,
        "shards": population.shard_count,
        "replay_s": smoke_s,
        "device_days_per_s": round(days / smoke_s, 1),
        "budget_s": SMOKE_BUDGET_S,
    }


def test_bench_table(results_path, tmp_path, monkeypatch):
    kernel = _kernel_block()
    validation = _cross_validation_block()
    auto_smoke = _auto_smoke_block(tmp_path)
    table, backends = _backends_block(monkeypatch)
    fleet_scale = _fleet_scale_block(table)
    payload = {
        "kernel": kernel,
        "cross_validation": validation,
        "auto_smoke": auto_smoke,
        "backends": backends,
        "fleet_scale": fleet_scale,
        "cpu_count": os.cpu_count() or 1,
    }
    # Written before the speed gates, so a failing run still leaves
    # its record for the artifact upload.
    with open(results_path("BENCH_table.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    assert kernel["speedup"] >= MIN_KERNEL_SPEEDUP, kernel
    assert backends["speedup"] >= MIN_SPEEDUP, backends
    assert fleet_scale["replay_s"] < SMOKE_BUDGET_S, fleet_scale
