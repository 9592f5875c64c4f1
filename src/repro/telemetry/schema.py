"""The versioned telemetry event schema and its validator.

A telemetry stream is JSON Lines: one event object per line, appended
crash-safely by :mod:`repro.telemetry.writer`. Every event carries the
same envelope --

- ``v`` -- the schema version (:data:`SCHEMA_VERSION`);
- ``event`` -- one of :data:`EVENT_FIELDS`;
- ``stream`` -- the logical stream name (``"run"`` for the fleet
  runner / supervisor / CLI, ``"shard-NNNNNN"`` for one shard);
- ``seq`` -- a per-writer monotonic sequence number starting at 0,
  gapless within one stream file;
- ``fp`` -- the 12-hex run fingerprint (population fingerprint prefix)
  tagging every event with the run it belongs to;
- ``t_wall`` -- the wall-clock emission time (unix seconds).

Everything *except* the fields named in :data:`WALLCLOCK_FIELDS` is
deterministic: two serial runs of the same population produce
byte-identical streams once those fields are stripped
(:func:`strip_wallclock`), which is what the stream goldens pin. The
validator (:func:`validate_events`, :func:`validate_stream_dir`) is
shared by the tests, ``tools/check_schema.py telemetry`` and the
telemetry-smoke CI job: every line must parse, event types must be
known, required fields must be present, and sequence numbers must be
gapless per (file, stream).
"""

import json
import os

from repro.io import canonical_json as _canonical_json

#: Bump on incompatible stream changes; events carry it as ``v``.
SCHEMA_VERSION = 1

#: Envelope fields present on every event, in addition to the
#: per-event required fields below.
ENVELOPE_FIELDS = ("v", "event", "stream", "seq", "fp", "t_wall")

#: Event type -> required payload fields. Extra fields are allowed
#: (the schema is open for additions); unknown *event types* are not.
EVENT_FIELDS = {
    # One per fresh run, first record of the runner's stream: the full
    # population (sampling law), resolved/requested execution mode.
    "run_started": ("population", "mode", "requested_mode", "devices",
                    "shards"),
    # Emitted *instead of* run_started when valid checkpoints already
    # existed: finished shards are never re-emitted, the aggregator
    # finds them in the earlier run's stream files in the same dir.
    "run_resumed": ("population", "mode", "requested_mode", "devices",
                    "shards", "shards_resumed"),
    # First record of a shard's own stream (worker process).
    "shard_started": ("shard", "start", "stop", "mode"),
    # Periodic in-shard snapshot, time-gated (>= PROGRESS_INTERVAL_S
    # apart by default): partial mergeable stats only.
    "shard_progress": ("shard", "devices_done", "devices_total",
                       "device_days", "fallbacks", "crashed",
                       "energy_mw"),
    # Emitted by the *runner* the moment a shard's checkpoint lands
    # (so cache hits and supervised retries are covered exactly once);
    # ``stats`` is the shard's full per-mitigation FleetStats payload,
    # the mergeable partial the watch aggregator folds.
    "shard_finished": ("shard", "start", "stop", "mode", "stats",
                       "crashes"),
    # A table-replayed device fell back to the kernel. Emitted for the
    # shard's first device of each reason (every one is counted in
    # shard_progress.fallbacks), so a shard's stream does not depend
    # on which worker ran it.
    "fallback": ("shard", "reason", "device"),
    # One per *failed* supervisor attempt, recovery or quarantine.
    "supervisor_attempt": ("label", "attempt", "outcome", "error"),
    # A RunBudget abort observed by the supervisor.
    "budget": ("label", "attempt", "error"),
    # Terminal record of a completed run: execution provenance and the
    # sha256 of the canonical report it must agree with.
    "run_finished": ("shards_total", "shards_run", "shards_resumed",
                     "shards_quarantined", "devices", "execution",
                     "report_sha256"),
    # One scheduled sweep of the crash-safe lease authority
    # (repro.service): how many leases expired, what stayed active,
    # and the cadence position (seeded-deterministic sweep index).
    "service_sweep": ("swept", "active", "sweep_index"),
    # One LeaseService.recover(): what the storage backend salvaged
    # and the canonical-state fingerprint the replay reconstructed.
    "service_recovered": ("snapshot_seq", "records_replayed",
                          "records_dropped", "leases", "state_fp",
                          "degraded"),
}

#: The only non-deterministic fields an event may carry. Everything
#: else must be a pure function of (population, shard boundaries,
#: execution mode), so streams golden once these are stripped.
WALLCLOCK_FIELDS = frozenset({"t_wall", "elapsed_s", "rate_dd_s",
                              "eta_s"})

#: Events that may legally terminate a run stream.
TERMINAL_EVENTS = frozenset({"run_finished"})


def strip_wallclock(event):
    """A copy of ``event`` without its wall-clock fields."""
    return {key: value for key, value in event.items()
            if key not in WALLCLOCK_FIELDS}


def canonical_events(events):
    """Deterministic canonical form of a whole stream directory.

    Wall-clock fields stripped, sorted by ``(stream, seq)`` -- the
    order is then independent of shard dispatch/completion order and
    of which file each record landed in, so goldens can pin a digest.
    """
    stripped = [strip_wallclock(event) for event in events]
    return sorted(stripped,
                  key=lambda e: (e.get("stream", ""), e.get("seq", -1)))


def canonical_json(events):
    """Canonical bytes of a stream (for digests and goldens)."""
    return "\n".join(_canonical_json(event)
                     for event in canonical_events(events))


def validate_event(event, source="<stream>"):
    """Problems with one parsed event (empty list == valid)."""
    problems = []
    if not isinstance(event, dict):
        return ["{}: event is not an object".format(source)]
    for field in ENVELOPE_FIELDS:
        if field not in event:
            problems.append("{}: missing envelope field {!r}".format(
                source, field))
    kind = event.get("event")
    if kind is not None and kind not in EVENT_FIELDS:
        problems.append("{}: unknown event type {!r}".format(source, kind))
    elif kind is not None:
        for field in EVENT_FIELDS[kind]:
            if field not in event:
                problems.append("{}: {} missing required field {!r}"
                                .format(source, kind, field))
    version = event.get("v")
    if version is not None and version != SCHEMA_VERSION:
        problems.append("{}: schema version {} != {}".format(
            source, version, SCHEMA_VERSION))
    return problems


def parse_lines(lines, source="<stream>"):
    """Parse JSONL lines; returns ``(events, problems)``.

    Every line must parse -- the writer emits one complete line per
    record, so a torn line means a corrupted stream, not a crash.
    """
    events, problems = [], []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError as exc:
            problems.append("{}:{}: unparsable line ({})".format(
                source, number, exc))
    return events, problems


def validate_events(events, source="<stream>"):
    """Schema + sequencing problems for one *file's* events.

    Within one file, each logical stream's sequence numbers must be
    gapless from 0 in file order (the writer appends, never seeks),
    and every event must carry the same run fingerprint.
    """
    problems = []
    next_seq = {}
    fingerprints = set()
    for position, event in enumerate(events):
        problems.extend(validate_event(
            event, "{}[{}]".format(source, position)))
        if not isinstance(event, dict):
            continue
        stream = event.get("stream")
        seq = event.get("seq")
        if isinstance(stream, str) and isinstance(seq, int):
            expected = next_seq.get(stream, 0)
            if seq != expected:
                problems.append(
                    "{}[{}]: stream {!r} seq {} != expected {} "
                    "(gap or reorder)".format(source, position, stream,
                                              seq, expected))
            next_seq[stream] = max(expected, seq) + 1
        if "fp" in event:
            fingerprints.add(event["fp"])
    if len(fingerprints) > 1:
        problems.append("{}: mixed run fingerprints {}".format(
            source, sorted(fingerprints)))
    return problems


def validate_stream_file(path, require_finished=False):
    """Validate one ``.jsonl`` stream file; returns problems."""
    with open(path) as handle:
        events, problems = parse_lines(handle, source=path)
    problems.extend(validate_events(events, source=path))
    if require_finished:
        if not events or events[-1].get("event") not in TERMINAL_EVENTS:
            problems.append("{}: no terminal run_finished record"
                            .format(path))
    return problems


def stream_files(directory):
    """The stream files of a run directory, sorted by name."""
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory) if name.endswith(".jsonl"))


def validate_stream_dir(directory, require_finished=False):
    """Validate every stream file of a run directory.

    ``require_finished=True`` additionally demands (a) at least one
    ``run_started``/``run_resumed`` record and (b) at least one run
    stream whose final record is ``run_finished`` -- the shape of a
    run that ran to completion.
    """
    paths = stream_files(directory)
    if not paths:
        return ["{}: no telemetry stream files".format(directory)]
    problems = []
    started = finished = False
    fingerprints = set()
    for path in paths:
        with open(path) as handle:
            events, parse_problems = parse_lines(handle, source=path)
        problems.extend(parse_problems)
        problems.extend(validate_events(events, source=path))
        for event in events:
            if isinstance(event, dict) and "fp" in event:
                fingerprints.add(event["fp"])
        kinds = [e.get("event") for e in events if isinstance(e, dict)]
        if "run_started" in kinds or "run_resumed" in kinds:
            started = True
        if events and events[-1].get("event") in TERMINAL_EVENTS:
            finished = True
    if len(fingerprints) > 1:
        problems.append("{}: mixed run fingerprints {}".format(
            directory, sorted(fingerprints)))
    if require_finished:
        if not started:
            problems.append("{}: no run_started/run_resumed record"
                            .format(directory))
        if not finished:
            problems.append("{}: no stream ends with run_finished"
                            .format(directory))
    return problems


def load_stream_dir(directory):
    """Every event of a run directory, with per-file parse problems.

    Returns ``(events, problems)``; events keep file order within a
    file, files are visited in sorted-name order. The watch aggregator
    is order-insensitive (it keys on ``stream``/``seq``/``shard``), so
    this is sufficient for both snapshots and goldens.
    """
    events, problems = [], []
    for path in stream_files(directory):
        with open(path) as handle:
            parsed, file_problems = parse_lines(handle, source=path)
        events.extend(parsed)
        problems.extend(file_problems)
    return events, problems
