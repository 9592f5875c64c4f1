"""Sharded fleet-scale population simulation.

The missing layer between the single-device simulator and the ROADMAP's
"millions of users": sample a heterogeneous population of device-days
(:mod:`~repro.fleet.population`), shard it through the parallel grid
runner with per-shard checkpoint/resume (:mod:`~repro.fleet.shard`),
aggregate with mergeable O(shards)-memory statistics
(:mod:`~repro.fleet.stats`), and compare mitigations at population
scale (:mod:`~repro.fleet.report`). Device-days execute on the event
kernel, or are replayed from the kernel-validated transition table
(:mod:`~repro.fleet.fastpath`) by the columnar vectorized engine,
which composes whole shards at once (:mod:`~repro.fleet.vector`,
``mode="vector"``; ``mode="auto"`` picks it for large fleets). One
loop, :func:`~repro.fleet.shard.simulate_rows`, runs and records every
kernel device-day: each device of a kernel shard, and each device the
table cannot compose. CLI: ``python -m repro fleet``.
"""

from repro.fleet.fastpath import (
    TransitionTable,
    build_table,
    cross_validate,
    fast_summary,
    publish_table,
)
from repro.fleet.population import (
    DeviceColumns,
    DeviceSpec,
    PopulationSpec,
)
from repro.fleet.vector import compose_shard, replay_shard_vector
from repro.fleet.report import (
    build_report,
    default_report_path,
    render,
    report_json,
    write_report,
)
from repro.fleet.shard import FleetRunner, run_shard, simulate_device_day
from repro.fleet.stats import (
    FleetStats,
    Histogram,
    MetricSummary,
    Moments,
    QuantileDigest,
    wilson_interval,
)

__all__ = [
    "DeviceColumns",
    "DeviceSpec",
    "PopulationSpec",
    "FleetRunner",
    "run_shard",
    "simulate_device_day",
    "TransitionTable",
    "build_table",
    "cross_validate",
    "fast_summary",
    "publish_table",
    "replay_shard_vector",
    "compose_shard",
    "FleetStats",
    "Histogram",
    "MetricSummary",
    "Moments",
    "QuantileDigest",
    "wilson_interval",
    "build_report",
    "default_report_path",
    "render",
    "report_json",
    "write_report",
]
