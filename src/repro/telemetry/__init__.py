"""repro.telemetry: versioned JSONL run telemetry + live aggregation.

- :mod:`repro.telemetry.schema` -- the event schema, wall-clock field
  tagging, and the stream validator;
- :mod:`repro.telemetry.writer` -- the crash-safe append-only,
  fork-safe per-process stream writer;
- :mod:`repro.telemetry.emit` -- shard/runner emission hooks, plumbed
  by environment variable so grid cache keys never change;
- :mod:`repro.telemetry.watch` -- the `repro watch` aggregator whose
  finished-run snapshot equals the canonical fleet report to the byte.
"""

from repro.telemetry.emit import (
    DEFAULT_TELEMETRY_ROOT,
    ENV_DIR,
    ENV_FP,
    ENV_PROGRESS,
    PROGRESS_INTERVAL_S,
    RunTelemetry,
    ShardTelemetry,
    default_telemetry_dir,
    shard_telemetry,
)
from repro.telemetry.schema import (
    EVENT_FIELDS,
    SCHEMA_VERSION,
    WALLCLOCK_FIELDS,
    canonical_events,
    canonical_json,
    load_stream_dir,
    strip_wallclock,
    validate_event,
    validate_events,
    validate_stream_dir,
    validate_stream_file,
)
from repro.telemetry.watch import (
    RunView,
    check_report,
    follow,
    load_view,
    reconstruct_report,
    render_snapshot,
    resolve_run,
)
from repro.telemetry.writer import TelemetryWriter

__all__ = [
    "DEFAULT_TELEMETRY_ROOT",
    "ENV_DIR",
    "ENV_FP",
    "ENV_PROGRESS",
    "EVENT_FIELDS",
    "PROGRESS_INTERVAL_S",
    "RunTelemetry",
    "RunView",
    "SCHEMA_VERSION",
    "ShardTelemetry",
    "TelemetryWriter",
    "WALLCLOCK_FIELDS",
    "canonical_events",
    "canonical_json",
    "check_report",
    "default_telemetry_dir",
    "follow",
    "load_stream_dir",
    "load_view",
    "reconstruct_report",
    "render_snapshot",
    "resolve_run",
    "shard_telemetry",
    "strip_wallclock",
    "validate_event",
    "validate_events",
    "validate_stream_dir",
    "validate_stream_file",
]
