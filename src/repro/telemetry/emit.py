"""Telemetry emission hooks for fleet shards and the fleet runner.

Plumbing is by *environment variable*, never by function kwargs:
``run_shard`` dispatches as a content-addressed
:class:`~repro.experiments.grid.FuncSpec`, so a telemetry kwarg would
change every shard's cache key and orphan every warm cache. Instead the
:class:`~repro.fleet.shard.FleetRunner` exports :data:`ENV_DIR` /
:data:`ENV_FP` around its dispatch; workers (forked within that
dispatch, so they inherit the environment) open their own
per-process stream files. A worker whose population fingerprint does
not match :data:`ENV_FP` stays silent -- a stale variable from an
unrelated run must never pollute another run's stream.

Emission cost discipline: progress snapshots are time-gated
(:data:`PROGRESS_INTERVAL_S` apart at least, tunable via
:data:`ENV_PROGRESS`), counters and the streaming energy mean update
in O(1) per device-day, and nothing here allocates per-event except at
actual emission time. ``REPRO_TELEMETRY_PROGRESS_S=0`` removes the
time gate (a snapshot per device -- the deterministic mode the stream
goldens use); any negative value disables progress snapshots entirely.
"""

import os
import time

from repro.fleet.stats import Moments
from repro.telemetry.writer import TelemetryWriter

#: Stream directory of the active run; unset => telemetry off.
ENV_DIR = "REPRO_TELEMETRY_DIR"

#: 12-hex fingerprint of the run the directory belongs to; a worker
#: simulating a different population stays silent.
ENV_FP = "REPRO_TELEMETRY_FP"

#: Seconds between in-shard progress snapshots (default
#: :data:`PROGRESS_INTERVAL_S`; ``0`` => every device, ``<0`` => none).
ENV_PROGRESS = "REPRO_TELEMETRY_PROGRESS_S"

#: Default minimum spacing of ``shard_progress`` records -- keeps
#: emission far off the hot path (a kernel shard manages ~4
#: device-days/s; the vector engine folds whole shards in one call).
PROGRESS_INTERVAL_S = 1.0

#: Default root for per-run stream directories.
DEFAULT_TELEMETRY_ROOT = os.path.join("results", ".telemetry")


def default_telemetry_dir(population):
    """``results/.telemetry/<fp12>/`` for one population."""
    return os.path.join(DEFAULT_TELEMETRY_ROOT,
                        population.fingerprint()[:12])


def progress_interval():
    raw = os.environ.get(ENV_PROGRESS, "")
    try:
        return float(raw) if raw else PROGRESS_INTERVAL_S
    except ValueError:
        return PROGRESS_INTERVAL_S


#: The shard telemetry of the currently-executing shard in this
#: process, if any -- the hook :func:`repro.fleet.fastpath.
#: _log_fallback_once` reaches through to attribute fallbacks without
#: any signature change on the replay paths.
_ACTIVE_SHARD = None


def active_shard_telemetry():
    return _ACTIVE_SHARD


class ShardTelemetry:
    """Per-shard emission state, owned by one ``run_shard`` call.

    All counters are O(1) updates; the only per-device float work is
    one Welford ``add`` on the streaming energy mean (``add_many`` on
    the vector path). Snapshots carry *mergeable partials* -- a watcher
    can fold any subset of shards' latest snapshots into fleet-level
    numbers without waiting for anything to finish.
    """

    def __init__(self, writer, shard, start, stop, mode):
        self.writer = writer
        self.shard = shard
        self.start = start
        self.stop = stop
        self.mode = mode
        self.interval = progress_interval()
        self.devices_done = 0
        self.device_days = 0
        self.fallbacks = 0
        self.crashed = 0
        #: Scenario family -> device-day count; stays empty (and off
        #: the wire) for catalog-free populations.
        self.families = {}
        self._fallback_reasons = set()
        self.energy = Moments()
        self._t0 = time.monotonic()
        self._last_progress = None

    def started(self):
        self.writer.emit("shard_started", shard=self.shard,
                         start=self.start, stop=self.stop,
                         mode=self.mode)

    def observe(self, summary):
        """Fold one device-day summary (kernel path)."""
        self.energy.add(summary["system_power_mw"])
        self.device_days += 1
        self.crashed += summary["crashed"]

    def observe_batch(self, power_values, device_days, crashed):
        """Fold a whole composed shard at once (vector path)."""
        if device_days:
            self.energy.add_many(power_values)
        self.device_days += device_days
        self.crashed += crashed

    def observe_families(self, families, count=1):
        """Attribute ``count`` device-days to each scenario family."""
        for name in families:
            self.families[name] = self.families.get(name, 0) + count

    def device_done(self, count=1):
        self.devices_done += count
        self._maybe_progress()

    def fallback(self, reason, device):
        """Count a kernel fallback; emit the event only on the shard's
        first occurrence of ``reason``.

        Gated per shard, not per process, so the shard's stream is the
        same whichever worker ran it and whatever it ran before."""
        self.fallbacks += 1
        if reason not in self._fallback_reasons:
            self._fallback_reasons.add(reason)
            self.writer.emit("fallback", shard=self.shard,
                             reason=reason, device=device)

    def _maybe_progress(self, force=False):
        if self.interval < 0:
            return
        now = time.monotonic()
        if not force and self._last_progress is not None \
                and now - self._last_progress < self.interval:
            return
        self._last_progress = now
        elapsed = now - self._t0
        rate = self.device_days / elapsed if elapsed > 0 else 0.0
        fields = {}
        if self.families:
            # Conditional so catalog-free streams keep their exact
            # historical record bytes (the stream goldens pin them).
            fields["scenario_families"] = dict(
                sorted(self.families.items()))
        self.writer.emit(
            "shard_progress", shard=self.shard,
            devices_done=self.devices_done,
            devices_total=self.stop - self.start,
            device_days=self.device_days, fallbacks=self.fallbacks,
            crashed=self.crashed, energy_mw=self.energy.to_dict(),
            # Wall-clock-derived fields, stripped by stream goldens.
            elapsed_s=round(elapsed, 3), rate_dd_s=round(rate, 3),
            **fields)

    def finished(self):
        """Final snapshot so the stream's last partial is complete."""
        self._maybe_progress(force=True)

    def close(self):
        global _ACTIVE_SHARD
        if _ACTIVE_SHARD is self:
            _ACTIVE_SHARD = None
        self.writer.close()


def shard_telemetry(population, shard_index, start, stop, mode):
    """The shard's emitter, or None when telemetry is off (or the
    inherited environment belongs to a different run)."""
    global _ACTIVE_SHARD
    directory = os.environ.get(ENV_DIR)
    if not directory:
        return None
    fp = population.fingerprint()[:12]
    expected = os.environ.get(ENV_FP, "")
    if expected and expected != fp:
        return None
    writer = TelemetryWriter(directory,
                             "shard-{:06d}".format(shard_index), fp)
    telemetry = ShardTelemetry(writer, shard_index, start, stop, mode)
    _ACTIVE_SHARD = telemetry
    return telemetry


class RunTelemetry:
    """The runner-side stream: run lifecycle, shard completions,
    supervision outcomes.

    ``shard_finished`` fires from the runner's checkpoint hook, so a
    cache-hit shard (whose worker never ran) is still announced exactly
    once -- and a *resumed* shard (checkpoint already on disk before
    the run) is deliberately never re-announced: its record lives in
    the stream files of the run that computed it.
    """

    def __init__(self, directory, fp):
        self.directory = directory
        self.fp = fp
        self.writer = TelemetryWriter(directory, "run", fp)

    def run_started(self, population, mode, requested_mode,
                    shards_resumed=0):
        fields = dict(population=population.to_json(), mode=mode,
                      requested_mode=requested_mode,
                      devices=population.devices,
                      shards=population.shard_count)
        if shards_resumed:
            self.writer.emit("run_resumed",
                             shards_resumed=shards_resumed, **fields)
        else:
            self.writer.emit("run_started", **fields)

    def shard_finished(self, shard_index, summary):
        self.writer.emit(
            "shard_finished", shard=shard_index,
            start=summary["start"], stop=summary["stop"],
            mode=summary["mode"], stats=summary["stats"],
            crashes=summary["crashes"])

    def supervisor_attempt(self, label, attempt, outcome, error):
        self.writer.emit("supervisor_attempt", label=label,
                         attempt=attempt, outcome=outcome, error=error)

    def budget(self, label, attempt, error):
        self.writer.emit("budget", label=label, attempt=attempt,
                         error=error)

    def run_finished(self, run_summary, devices, execution,
                     report_sha256, degraded=None):
        fields = dict(
            shards_total=run_summary["shards_total"],
            shards_run=run_summary["shards_run"],
            shards_resumed=run_summary["shards_resumed"],
            shards_quarantined=run_summary["shards_quarantined"],
            devices=devices, execution=execution,
            report_sha256=report_sha256)
        if degraded is not None:
            fields["degraded"] = degraded
        self.writer.emit("run_finished", **fields)

    def close(self):
        self.writer.close()
