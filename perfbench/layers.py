"""Per-layer metrics of one traced run, from its span files.

Each metric names the trace targets it is computed from; when one of
them did not resolve (see ``targets.json``) the metric is ``None``
rather than a misleading zero. Layers are named by module:

- ``cli``: ``repro.cli.main`` (its start, and its self time: the part
  of the run no layer span covers, ``trace.unattributed_share``);
- ``resilience``: ``Supervisor.execute`` (fork, pipe, join and the
  parent's bookkeeping per supervised job);
- ``fastpath``: table build, probe scan, table JSON encode/decode;
- ``grid``: ``ResultCache`` reads and writes;
- ``shard``: ``run_shard``/``simulate_device_day`` glue, phone builds,
  checkpoints and the checkpoint merge;
- ``sim``: ``Phone.run_for`` (the event kernel);
- ``population``, ``vector``, ``stats``, ``report``, ``telemetry``.
"""

import json
import os

from collections import namedtuple

from tracer import TARGETS_FILE

Span = namedtuple("Span", "name start end pid id parent extra")

MAIN = "repro.cli:main"
BUILD_TABLE = "repro.fleet.fastpath:build_table"
NEEDED_PROBES = "repro.fleet.fastpath:needed_probes"
TO_JSON = "repro.fleet.fastpath:TransitionTable.to_json"
FROM_JSON = "repro.fleet.fastpath:TransitionTable.from_json"
CACHE_LOAD = "repro.experiments.grid:ResultCache.load"
CACHE_STORE = "repro.experiments.grid:ResultCache.store"
SUPERVISE = "repro.resilience.supervisor:Supervisor.execute"
FUNC_EXECUTE = "repro.experiments.grid:FuncSpec.execute"
RUN_SHARD = "repro.fleet.shard:run_shard"
BUILD_PHONE = "repro.fleet.shard:build_device_phone"
DEVICE_DAY = "repro.fleet.shard:simulate_device_day"
RUN_FOR = "repro.droid.phone:Phone.run_for"
SAMPLE_COLUMNS = "repro.fleet.population:PopulationSpec.sample_columns"
SAMPLE_DEVICE = "repro.fleet.population:PopulationSpec.device"
COMPOSE = "repro.fleet.vector:compose_shard"
REPLAY = "repro.fleet.vector:replay_shard_vector"
OBSERVE = "repro.fleet.stats:FleetStats.observe"
OBSERVE_MANY = "repro.fleet.stats:FleetStats.observe_many"
STATS_MERGE = "repro.fleet.stats:FleetStats.merge"
MERGED_STATS = "repro.fleet.shard:FleetRunner.merged_stats"
BUILD_REPORT = "repro.fleet.report:build_report"
WRITE_REPORT = "repro.fleet.report:write_report"
TELEMETRY = tuple(
    "repro.telemetry.emit:" + name for name in (
        "shard_telemetry", "ShardTelemetry.started",
        "ShardTelemetry.observe", "ShardTelemetry.observe_batch",
        "ShardTelemetry.observe_families", "ShardTelemetry.device_done",
        "ShardTelemetry.fallback", "ShardTelemetry.finished",
        "ShardTelemetry.close", "RunTelemetry.__init__",
        "RunTelemetry.run_started", "RunTelemetry.shard_finished",
        "RunTelemetry.supervisor_attempt", "RunTelemetry.budget",
        "RunTelemetry.run_finished", "RunTelemetry.close"))


def load_spans(trace_dir):
    """Every span the run's processes flushed into ``trace_dir``."""
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as handle:
                spans.extend(Span(*json.loads(line)) for line in handle)
    return spans


def load_target_status(trace_dir):
    """``{target: "ok" | "missing: ..."}``; empty if never written."""
    try:
        with open(os.path.join(trace_dir, TARGETS_FILE)) as handle:
            return json.load(handle)
    except OSError:
        return {}


def union_length(intervals):
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    low = high = None
    for start, end in sorted(intervals):
        if high is None or start > high:
            if high is not None:
                total += high - low
            low, high = start, end
        else:
            high = max(high, end)
    if high is not None:
        total += high - low
    return total


def self_times(spans):
    """``{span id: duration minus the time its child spans cover}``.

    Children are linked by parent id, in this process or in processes
    forked under the span; all times share one monotonic clock.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = [(max(child.start, span.start), min(child.end, span.end))
                   for child in children.get(span.id, ())]
        out[span.id] = (span.end - span.start) - union_length(
            [(start, end) for start, end in covered if end > start])
    return out


class SpanIndex:
    """Spans grouped by target, with self times and ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)
        self.by_id = {span.id: span for span in spans}
        self.self_s = self_times(spans)

    def count(self, name):
        return len(self.by_name.get(name, ()))

    def total(self, name):
        return sum(s.end - s.start for s in self.by_name.get(name, ()))

    def self_total(self, *names):
        return sum(self.self_s[s.id] for name in names
                   for s in self.by_name.get(name, ()))

    def extra_sum(self, name, key):
        return sum((s.extra or {}).get(key, 0)
                   for s in self.by_name.get(name, ()))

    def outermost_total(self, *names):
        """Summed duration of ``names`` spans not nested in another."""
        wanted = set(names)
        total = 0.0
        for name in wanted:
            for span in self.by_name.get(name, ()):
                parent = self.by_id.get(span.parent)
                while parent is not None and parent.name not in wanted:
                    parent = self.by_id.get(parent.parent)
                if parent is None:
                    total += span.end - span.start
        return total


def _ratio(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


def _report_counter(report, name):
    """The largest per-mitigation value of a report counter."""
    return max((block["counters"].get(name, 0)
                for block in report["mitigations"].values()), default=0)


def _metrics(index, context):
    """``[(metric, targets it needs, thunk)]`` for one traced run."""
    ix = index
    root = (ix.by_name.get(MAIN) or [None])[0]
    jobs = ix.extra_sum(SUPERVISE, "jobs")
    events = ix.extra_sum(RUN_FOR, "events")
    phone_builds = ix.count(BUILD_PHONE)
    entries = ix.extra_sum(BUILD_TABLE, "entries")
    report = context["report"]
    return [
        ("cli.startup_s", (MAIN,),
         lambda: root.start - context["spawned_at"]),
        ("resilience.jobs", (SUPERVISE,), lambda: jobs),
        ("resilience.overhead_ms_per_job", (SUPERVISE, FUNC_EXECUTE),
         lambda: _ratio(ix.self_total(SUPERVISE), jobs, 1000.0)),
        ("shard.phone_build_ms", (BUILD_PHONE,),
         lambda: _ratio(ix.total(BUILD_PHONE), phone_builds, 1000.0)),
        ("sim.device_days", (RUN_FOR,), lambda: ix.count(RUN_FOR)),
        ("sim.events", (RUN_FOR,), lambda: events),
        ("sim.busy_s", (RUN_FOR,), lambda: ix.total(RUN_FOR)),
        ("sim.us_per_event", (RUN_FOR,),
         lambda: _ratio(ix.total(RUN_FOR), events, 1e6)),
        ("fastpath.probes", (NEEDED_PROBES,),
         lambda: ix.extra_sum(NEEDED_PROBES, "probes")),
        ("fastpath.distinct_probe_share", (BUILD_TABLE,),
         lambda: _ratio(ix.extra_sum(BUILD_TABLE, "distinct"), entries)),
        ("fastpath.table_build_s", (BUILD_TABLE,),
         lambda: ix.total(BUILD_TABLE)),
        ("fastpath.scan_s", (NEEDED_PROBES,),
         lambda: ix.total(NEEDED_PROBES)),
        ("fastpath.table_bytes", (TO_JSON,),
         lambda: max([(s.extra or {}).get("bytes", 0)
                      for s in ix.by_name.get(TO_JSON, ())], default=0)),
        ("fastpath.table_encode_calls", (TO_JSON,),
         lambda: ix.count(TO_JSON)),
        ("fastpath.table_encode_s", (TO_JSON,), lambda: ix.total(TO_JSON)),
        ("fastpath.table_decode_s", (FROM_JSON,),
         lambda: ix.total(FROM_JSON)),
        ("grid.cache_hits", (CACHE_LOAD,),
         lambda: ix.extra_sum(CACHE_LOAD, "hit")),
        ("grid.cache_load_s", (CACHE_LOAD,), lambda: ix.total(CACHE_LOAD)),
        ("grid.cache_stores", (CACHE_STORE,),
         lambda: ix.extra_sum(CACHE_STORE, "stored")),
        ("grid.cache_store_s", (CACHE_STORE,),
         lambda: ix.total(CACHE_STORE)),
        ("grid.cache_bytes_written", (), lambda: context["cache_bytes"]),
        ("population.sample_s", (SAMPLE_COLUMNS, SAMPLE_DEVICE),
         lambda: ix.outermost_total(SAMPLE_COLUMNS, SAMPLE_DEVICE)),
        ("vector.replay_s", (REPLAY,), lambda: ix.total(REPLAY)),
        ("vector.compose_s", (COMPOSE,), lambda: ix.total(COMPOSE)),
        ("vector.devices", (),
         lambda: _report_counter(report, "vector_devices")),
        ("vector.fallback_devices", (),
         lambda: _report_counter(report, "fastpath_fallbacks")),
        ("stats.fold_s", (OBSERVE, OBSERVE_MANY),
         lambda: ix.outermost_total(OBSERVE, OBSERVE_MANY)),
        ("stats.merge_s", (STATS_MERGE,),
         lambda: ix.outermost_total(STATS_MERGE)),
        ("shard.busy_s", (RUN_SHARD, DEVICE_DAY),
         lambda: ix.self_total(RUN_SHARD, DEVICE_DAY)),
        ("shard.checkpoint_writes", (),
         lambda: context["checkpoint_files"]),
        ("shard.checkpoint_bytes", (), lambda: context["checkpoint_bytes"]),
        ("shard.merge_s", (MERGED_STATS,),
         lambda: ix.self_total(MERGED_STATS)),
        ("report.busy_s", (BUILD_REPORT, WRITE_REPORT),
         lambda: ix.self_total(BUILD_REPORT, WRITE_REPORT)),
        ("telemetry.busy_s", TELEMETRY,
         lambda: ix.self_total(*TELEMETRY)),
        ("telemetry.events", (), lambda: context["telemetry_events"]),
        ("telemetry.bytes", (), lambda: context["telemetry_bytes"]),
        ("trace.unattributed_share", (MAIN,),
         lambda: ix.self_s[root.id] / context["wall_s"]),
    ]


def layer_metrics(trace_dir, context):
    """``{metric: value or None}`` for one traced run.

    ``context`` carries what the spans do not: ``report`` (the parsed
    fleet report), ``spawned_at`` (monotonic time the CLI process was
    started), ``wall_s`` and the byte/file counts of the run's cache,
    checkpoint and telemetry directories, and the telemetry events.
    """
    status = load_target_status(trace_dir)
    index = SpanIndex(load_spans(trace_dir))
    out = {}
    for name, needs, compute in _metrics(index, context):
        missing = [t for t in needs if status.get(t, "missing") != "ok"]
        if MAIN in needs and not index.count(MAIN):
            missing.append(MAIN)
        out[name] = None if missing else compute()
    return out


#: Every metric :func:`layer_metrics` returns, in order.
METRIC_NAMES = tuple(name for name, __, __ in _metrics(
    SpanIndex([]), {"report": {"mitigations": {}}}))
