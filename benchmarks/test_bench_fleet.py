"""Fleet benchmark: device-days/sec and aggregate-memory behaviour.

Records ``results/BENCH_fleet.json`` (uploaded by the CI bench-smoke
artifact step):

- throughput: simulated device-days per wall-second through the full
  shard pipeline (sampling + simulation + folding + checkpointing);
- the O(shards) memory claim, two ways: a tracemalloc peak for the
  in-process run, and the ratio of per-shard summary size between a
  1-device and a full shard (must be ~1x -- summaries are
  device-count-independent);
- a cold vs warm re-run through the grid cache (warm must execute no
  simulation), plus the ru_maxrss proxy for the whole process;
- telemetry's own share of a shard's time (gated), beside ungated
  telemetry-off/on timings of the same shard.

It also regenerates ``results/fleet_s2019_d32.json``, the committed
population-scale artifact.
"""

import contextlib
import json
import os
import resource
import statistics
import time
import tracemalloc

from repro.experiments.grid import GridRunner
from repro.telemetry import emit
from repro.fleet import (
    FleetRunner,
    PopulationSpec,
    build_report,
    render,
    report_json,
    run_shard,
    simulate_device_day,
)

#: Small enough for CI, big enough to amortise per-shard overheads.
DEVICES = 32
SHARD_SIZE = 8
MINUTES = 10.0


#: Telemetry off/on pairs of one shard, alternating which runs first.
TELEMETRY_PAIRS = 5


class _TelemetryClock:
    """Times telemetry's own work: ``shard_telemetry`` and every
    ``ShardTelemetry`` method, the shard-side names perfbench's
    ``layers.TELEMETRY`` lists. A call made inside another timed call
    counts once, in the outer one."""

    METHODS = ("started", "observe", "observe_batch", "observe_families",
               "device_done", "fallback", "finished", "close")

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0

    def _timed(self, func):
        def timed(*args, **kwargs):
            if self._depth:
                return func(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self._depth -= 1
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Wrap the timed names while the block runs."""
        saved = [(emit, "shard_telemetry", emit.shard_telemetry)] + [
            (emit.ShardTelemetry, name, getattr(emit.ShardTelemetry, name))
            for name in self.METHODS]
        for owner, name, func in saved:
            setattr(owner, name, self._timed(func))
        try:
            yield self
        finally:
            for owner, name, func in saved:
                setattr(owner, name, func)


def _population(seed=2019):
    return PopulationSpec(seed=seed, devices=DEVICES,
                          shard_size=SHARD_SIZE, minutes=MINUTES,
                          mitigations=("vanilla", "leaseos"))


def test_bench_fleet(results_path, artifact_writer, tmp_path):
    population = _population()
    cache_dir = str(tmp_path / "grid-cache")

    tracemalloc.start()
    start = time.perf_counter()
    cold = GridRunner(jobs=1, cache=cache_dir)
    runner = FleetRunner(population, runner=cold,
                         checkpoint_dir=str(tmp_path / "ck-cold"))
    merged = runner.run()
    cold_s = time.perf_counter() - start
    __, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert cold.stats.executed == population.shard_count

    device_days = population.devices * len(population.mitigations)
    report = build_report(population, merged)

    # Warm re-run: fresh checkpoint dir, warm grid cache -> zero
    # simulation, identical report bytes.
    start = time.perf_counter()
    warm_grid = GridRunner(jobs=1, cache=cache_dir)
    warm = FleetRunner(population, runner=warm_grid,
                       checkpoint_dir=str(tmp_path / "ck-warm"))
    warm_merged = warm.run()
    warm_s = time.perf_counter() - start
    assert warm_grid.stats.executed == 0
    assert report_json(build_report(population, warm_merged)) == \
        report_json(report)

    # Shard summaries must not scale with device count (the O(shards)
    # aggregate-memory guarantee): compare serialised sizes.
    one = len(json.dumps(run_shard(population.to_json(), 0, 1)))
    full = len(json.dumps(run_shard(population.to_json(), 0, SHARD_SIZE)))
    summary_ratio = full / one

    # Telemetry overhead, gated: telemetry's own work timed inside each
    # telemetry-on run of a shard, as shard_s / (shard_s - telemetry_s).
    # Telemetry folds one Moments observation per device-day and
    # time-gates its progress snapshots, so it must stay within 3% of
    # the shard (the bar in docs/observability.md). The A/B pairs of
    # the same shard, telemetry off and on in alternating order, are
    # recorded ungated: on a small shared host their spread is wider
    # than the bar.
    from repro.telemetry.emit import ENV_DIR, ENV_FP

    spec_json = population.to_json()
    run_shard(spec_json, 0, SHARD_SIZE)  # warm the kernel
    clock = _TelemetryClock()
    pairs, ratios, telemetry_s = [], [], []
    with clock.installed():
        for pair in range(TELEMETRY_PAIRS):
            times = {}
            for telemetry_on in ((False, True) if pair % 2 == 0
                                 else (True, False)):
                if telemetry_on:
                    os.environ[ENV_DIR] = str(tmp_path / "telemetry")
                    os.environ[ENV_FP] = population.fingerprint()[:12]
                clock.seconds = 0.0
                start = time.perf_counter()
                try:
                    run_shard(spec_json, 0, SHARD_SIZE)
                finally:
                    times[telemetry_on] = time.perf_counter() - start
                    if telemetry_on:
                        del os.environ[ENV_DIR]
                        del os.environ[ENV_FP]
                if telemetry_on:
                    telemetry_s.append(clock.seconds)
                    ratios.append(times[True]
                                  / (times[True] - clock.seconds))
            pairs.append([round(times[False], 4), round(times[True], 4)])
    telemetry_overhead = statistics.median(ratios)
    base_times = [off for off, __ in pairs]
    telem_times = [on for __, on in pairs]

    # Per-mitigation kernel throughput: where the device-day budget
    # actually goes (a mitigation's bookkeeping shows up here).
    per_mitigation = {}
    for mitigation in population.mitigations:
        start = time.perf_counter()
        timed = 4
        for index in range(timed):
            simulate_device_day(population.device(index), mitigation,
                                MINUTES)
        per_mitigation[mitigation] = round(
            timed / (time.perf_counter() - start), 2)

    payload = {
        "devices": population.devices,
        "mitigations": list(population.mitigations),
        "device_days": device_days,
        "shards": population.shard_count,
        "minutes_per_device_day": MINUTES,
        "cold_s": round(cold_s, 3),
        "device_days_per_s": round(device_days / cold_s, 2),
        "kernel_device_days_per_s_by_mitigation": per_mitigation,
        "warm_cache_s": round(warm_s, 3),
        "cache_speedup": round(cold_s / warm_s, 2),
        "tracemalloc_peak_mb": round(traced_peak / 1e6, 2),
        "ru_maxrss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "shard_summary_bytes_1_device": one,
        "shard_summary_bytes_full_shard": full,
        "shard_summary_size_ratio": round(summary_ratio, 2),
        "telemetry_own_s_per_shard": round(
            statistics.median(telemetry_s), 5),
        "telemetry_overhead_ratio": round(telemetry_overhead, 4),
        "telemetry_ab_pairs_s": pairs,
        "telemetry_shard_s": round(min(telem_times), 3),
        "no_telemetry_shard_s": round(min(base_times), 3),
        "telemetry_ab_ratio": round(min(telem_times) / min(base_times), 4),
        "cpu_count": os.cpu_count() or 1,
    }
    # A full shard's summary must be the same size class as a 1-device
    # shard's (accumulators, not per-device rows).
    assert summary_ratio < 2.0
    # Telemetry must stay off the hot path: its own work within 3% of
    # the shard.
    assert telemetry_overhead < 1.03
    with open(results_path("BENCH_fleet.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    # Regenerate the committed population artifacts.
    with open(results_path(
            "fleet_s{}_d{}.json".format(population.seed,
                                        population.devices)),
            "w") as handle:
        handle.write(report_json(report) + "\n")
    artifact_writer("fleet_comparison.txt", render(report))
