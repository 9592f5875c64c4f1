"""`repro watch`: aggregate and render a live telemetry stream.

The aggregator is a pure fold over the stream directory: every
``shard_finished`` event carries the shard's full per-mitigation
:class:`~repro.fleet.stats.FleetStats` payload (the same dict the
checkpoint stores), and :func:`RunView.merged_stats` folds them **in
shard-index order** through :func:`repro.fleet.stats.merge_shards`,
the fold :meth:`repro.fleet.shard.FleetRunner.merged_stats` runs, so a
finished run's snapshot equals the canonical ``fleet_*.json`` report
to the byte (:func:`check_report` enforces it). Unfinished shards
contribute their latest ``shard_progress`` partial (devices done,
device-days/s, fallback/crash counters, streaming mean energy), so a
half-done overnight run still renders fleet-level numbers.
"""

import hashlib
import os
import time

from repro.fleet.stats import Moments, merge_shards
from repro.telemetry.emit import DEFAULT_TELEMETRY_ROOT
from repro.telemetry.schema import load_stream_dir


def resolve_run(run=None, root=DEFAULT_TELEMETRY_ROOT):
    """The stream directory for ``run``: a directory path, a
    fingerprint prefix under ``root``, or (None) the most recently
    modified run under ``root``."""
    if run and os.path.isdir(run):
        return run
    if not os.path.isdir(root):
        raise FileNotFoundError(
            "no telemetry root {} (run `repro fleet --telemetry` "
            "first)".format(root))
    candidates = sorted(
        name for name in os.listdir(root)
        if os.path.isdir(os.path.join(root, name)))
    if run:
        matches = [name for name in candidates if name.startswith(run)]
        if not matches:
            raise FileNotFoundError(
                "no run matching {!r} under {} (have: {})".format(
                    run, root, ", ".join(candidates) or "none"))
        if len(matches) > 1:
            raise ValueError("ambiguous run {!r}: matches {}".format(
                run, ", ".join(matches)))
        return os.path.join(root, matches[0])
    if not candidates:
        raise FileNotFoundError("no runs under {}".format(root))
    return os.path.join(
        root, max(candidates, key=lambda name: os.path.getmtime(
            os.path.join(root, name))))


class RunView:
    """One consistent reading of a stream directory's events."""

    def __init__(self, events):
        self.events = events
        self.meta = None  # latest run_started / run_resumed
        self.run_finished = None
        self.finished = {}  # shard -> shard_finished event
        self.progress = {}  # shard -> best shard_progress event
        self.fallback_reasons = {}  # reason -> first event
        self.supervisor = {}  # outcome -> count
        self.budget_events = 0
        def newer(current, candidate):
            # File visit order is name-sorted (pid-based), so "latest"
            # must come from the emission timestamp where present.
            if current is None:
                return True
            return candidate.get("t_wall", 0) >= current.get("t_wall", 0)

        for event in events:
            kind = event.get("event")
            if kind in ("run_started", "run_resumed"):
                if newer(self.meta, event):
                    self.meta = event
            elif kind == "run_finished":
                if newer(self.run_finished, event):
                    self.run_finished = event
            elif kind == "shard_finished":
                self.finished[event["shard"]] = event
            elif kind == "shard_progress":
                shard = event["shard"]
                best = self.progress.get(shard)
                # Furthest snapshot wins (retries restart from zero;
                # the completed attempt's final snapshot dominates).
                if best is None or (
                        (event["devices_done"], event["device_days"])
                        >= (best["devices_done"],
                            best["device_days"])):
                    self.progress[shard] = event
            elif kind == "fallback":
                self.fallback_reasons.setdefault(event["reason"], event)
            elif kind == "supervisor_attempt":
                outcome = event["outcome"]
                self.supervisor[outcome] = \
                    self.supervisor.get(outcome, 0) + 1
            elif kind == "budget":
                self.budget_events += 1

    # -- aggregation -------------------------------------------------------

    def population(self):
        from repro.fleet.population import PopulationSpec

        if self.meta is None:
            raise ValueError("stream has no run_started/run_resumed "
                             "record yet")
        return PopulationSpec.from_json(self.meta["population"])

    def shard_count(self):
        return self.meta["shards"] if self.meta else \
            (max(self.finished) + 1 if self.finished else 0)

    def merged_stats(self):
        """Fold finished shards' stats through the fleet runner's
        :func:`~repro.fleet.stats.merge_shards`, so floats agree bitwise.
        Returns ``(merged, missing_shards)``."""
        if self.meta is not None:
            mitigations = self.population().mitigations
        else:
            mitigations = ()
            if self.finished:
                first = self.finished[min(self.finished)]
                mitigations = tuple(sorted(first["stats"]))
        events = map(self.finished.get, range(self.shard_count()))
        return merge_shards(mitigations, [
            None if event is None else event["stats"] for event in events])

    def partial_totals(self):
        """In-flight totals from unfinished shards' latest snapshots:
        ``(devices_done, device_days, fallbacks, crashed, energy)``."""
        devices = days = fallbacks = crashed = 0
        energy = Moments()
        for shard, event in sorted(self.progress.items()):
            if shard in self.finished:
                continue
            devices += event["devices_done"]
            days += event["device_days"]
            fallbacks += event["fallbacks"]
            crashed += event["crashed"]
            energy = energy.merge(
                Moments.from_dict(event["energy_mw"]))
        return devices, days, fallbacks, crashed, energy

    def wall_span(self):
        stamps = [event["t_wall"] for event in self.events
                  if isinstance(event.get("t_wall"), (int, float))]
        if not stamps:
            return 0.0
        return max(stamps) - min(stamps)


def load_view(directory):
    """``(RunView, parse problems)`` for one stream directory."""
    events, problems = load_stream_dir(directory)
    return RunView(events), problems


# -- report agreement ----------------------------------------------------------

def reconstruct_report(view):
    """The canonical report dict implied by a finished run's stream.

    Uses the stream's own population JSON, the bitwise shard-stats
    fold, and the ``run_finished`` record's execution/degraded blocks
    -- every deterministic input the CLI's ``build_report`` call had.
    """
    from repro.fleet.report import build_report

    if view.run_finished is None:
        raise ValueError("run has no run_finished record (still in "
                         "flight, or interrupted)")
    merged, missing = view.merged_stats()
    report = build_report(view.population(), merged,
                          execution=view.run_finished["execution"])
    degraded = view.run_finished.get("degraded")
    if degraded is not None:
        report["degraded"] = degraded
    return report


def check_report(view, report_path):
    """Byte-compare the stream's implied report with the canonical
    artifact; returns a problem string or None."""
    from repro.fleet.report import report_json

    try:
        reconstructed = report_json(reconstruct_report(view))
    except ValueError as exc:
        return str(exc)
    try:
        with open(report_path) as handle:
            on_disk = handle.read().rstrip("\n")
    except OSError as exc:
        return "cannot read {}: {}".format(report_path, exc)
    if reconstructed != on_disk:
        return ("telemetry aggregate disagrees with {} ({} vs {} "
                "bytes)".format(report_path, len(reconstructed),
                                len(on_disk)))
    digest = hashlib.sha256(
        reconstructed.encode("utf-8")).hexdigest()
    expected = view.run_finished["report_sha256"]
    if expected and digest != expected:
        return ("report sha256 {} != run_finished.report_sha256 {}"
                .format(digest, expected))
    return None


# -- rendering -----------------------------------------------------------------

def render_snapshot(view, directory=""):
    """The live table: run header, per-mitigation rows, supervision."""
    from repro.experiments.runner import format_table
    from repro.fleet.report import fmt

    lines = []
    if view.meta is None:
        return "telemetry: no run_started record yet in {}".format(
            directory or "stream")
    meta = view.meta
    shard_count = view.shard_count()
    finished = len([s for s in view.finished if s < shard_count])
    devices, days, fallbacks, crashed, energy = view.partial_totals()
    merged, missing = view.merged_stats()
    for stats in merged.values():
        devices += stats.counters.get("devices", 0)
    state = "finished" if view.run_finished is not None else "running"
    header = ("run {} [{}]: mode={} devices={} shards {}/{} done"
              .format(meta["fp"], state, meta["mode"], meta["devices"],
                      finished, shard_count))
    if meta["event"] == "run_resumed":
        header += " (resumed, {} from checkpoints)".format(
            meta["shards_resumed"])
    lines.append(header)

    span = view.wall_span()
    total_days = days + sum(
        stats.counters.get("devices", 0) for stats in merged.values())
    if span > 0 and view.run_finished is None and total_days:
        rate = total_days / span
        remaining = meta["devices"] * max(
            len(view.population().mitigations), 1) - total_days
        lines.append(
            "throughput ~{:.1f} device-days/s, eta ~{:.0f}s for {} "
            "device-day(s) left".format(rate, remaining / rate
                                        if rate > 0 else 0.0,
                                        remaining))
    if view.progress and view.run_finished is None:
        lines.append(
            "in-flight: {} device(s) done, {} device-day(s), mean "
            "energy {} mW over {} sample(s)".format(
                devices, days, fmt(energy.mean, "{:.1f}")
                if energy.count else "-", energy.count))

    if any(stats.counters for stats in merged.values()):
        headers = ["mitigation", "devices", "battery h (mean)",
                   "power mW (mean)", "deferrals", "fallbacks",
                   "crashed"]
        rows = []
        for name, stats in merged.items():
            counters = stats.counters
            life = stats.metrics.get("battery_life_h")
            power = stats.metrics.get("system_power_mw")
            rows.append([
                name,
                str(counters.get("devices", 0)),
                fmt(life.moments.mean) if life else "-",
                fmt(power.moments.mean, "{:.1f}") if power else "-",
                str(counters.get("deferrals", 0)),
                str(counters.get("fastpath_fallbacks", 0)),
                str(counters.get("crashed", 0)),
            ])
        lines.append(format_table(
            headers, rows,
            title="merged over {} finished shard(s)".format(finished)))
    if missing and view.run_finished is not None:
        lines.append("degraded: shard(s) {} missing from the merge"
                     .format(", ".join(str(s) for s in missing)))
    if view.supervisor or view.budget_events:
        parts = ["{} {}".format(count, outcome) for outcome, count
                 in sorted(view.supervisor.items())]
        if view.budget_events:
            parts.append("{} budget abort(s)".format(
                view.budget_events))
        lines.append("supervision: " + ", ".join(parts))
    if view.fallback_reasons:
        lines.append("fallback reasons: " + ", ".join(
            sorted(view.fallback_reasons)))
    if view.run_finished is not None:
        rf = view.run_finished
        lines.append(
            "run_finished: {} executed, {} resumed, {} quarantined, "
            "report sha256 {}".format(
                rf["shards_run"], rf["shards_resumed"],
                rf["shards_quarantined"], rf["report_sha256"][:12]))
    return "\n".join(lines)


def follow(directory, interval=2.0, timeout=None, render=None,
           clock=time.monotonic, sleep=time.sleep):
    """Re-render ``directory`` every ``interval`` seconds until its
    run finishes (or ``timeout`` elapses). ``render`` receives each
    snapshot text; injectable clock/sleep keep this testable."""
    if render is None:
        render = print
    deadline = clock() + timeout if timeout is not None else None
    while True:
        view, __ = load_view(directory)
        render(render_snapshot(view, directory))
        if view.run_finished is not None:
            return view
        if deadline is not None and clock() >= deadline:
            return view
        sleep(interval)
