"""Shard execution: simulate a device range, fold it, checkpoint it.

A shard is the unit of dispatch, caching and checkpointing. Each shard
job is an ordinary :class:`~repro.experiments.grid.FuncSpec` calling
:func:`run_shard` with scalars only, so shards fan out through the
existing :class:`~repro.experiments.grid.GridRunner` process pool and
memoise in its content-addressed result cache. Inside the worker every
device-day is simulated, summarised, folded into the shard's
:class:`~repro.fleet.stats.FleetStats`, and *discarded* -- a shard's
return value is O(1) in the number of devices it simulated.

:class:`FleetRunner` drives the shards in index order, writes one
checkpoint file per completed shard (tagged with the population
fingerprint and package version), and on a re-run skips every shard
whose checkpoint is already on disk -- so a killed fleet run resumes
where it stopped and still produces a byte-identical report.
"""

import json
import os
import sys
import tempfile

from repro.apps.buggy import scenario_families
from repro.experiments.grid import FuncSpec, GridRunner
from repro.fleet.population import PopulationSpec, normal_app_factory
from repro.fleet.stats import FleetStats
from repro.version import __version__

#: Checkpoint schema version; bump on incompatible checkpoint changes.
CHECKPOINT_SCHEMA = 1

#: Default root for per-population checkpoint directories.
DEFAULT_CHECKPOINT_ROOT = os.path.join("results", ".fleet")

#: Cap on per-device crash records carried in one shard summary, so a
#: systematically-crashing population keeps summaries O(1)-ish.
MAX_CRASH_RECORDS = 20


# -- one device-day -----------------------------------------------------------

#: Distinct device-crash reasons already logged; a 10k-device shard
#: with one systematic bug logs one line, not 10k. Scoped per *run*:
#: :class:`FleetRunner` clears it (and the table replay's fallback twin)
#: at construction, so a second run in the same process warns again.
_LOGGED_CRASH_REASONS = set()


def reset_crash_warnings():
    """Clear the warn-once dedup set (start of a new fleet run)."""
    _LOGGED_CRASH_REASONS.clear()


def _log_device_crash_once(index, mitigation, reason):
    if reason in _LOGGED_CRASH_REASONS:
        return
    _LOGGED_CRASH_REASONS.add(reason)
    print("fleet: device {} ({}) crashed during simulation: {} "
          "(logged once per distinct reason; every occurrence is in "
          "the shard's crash records)".format(index, mitigation, reason),
          file=sys.stderr)


def build_device_phone(device, mitigation, extra_overrides=None):
    """Materialise a DeviceSpec as a live phone, apps installed.

    Returns ``(phone, buggy_uids, interactive_uids, injector)``. Shared
    by the kernel path below and the transition table's probes
    (:mod:`repro.fleet.fastpath`), so a probe day exercises the *exact*
    construction a real device-day does. ``extra_overrides`` are final
    phone-kwargs overrides applied after every case's -- the table
    uses them to probe one app under the *merged* environment of a
    multi-case device (a later case's triggering environment overrides
    an earlier one's, which changes whether the earlier bug fires).
    """
    from repro.apps.buggy import resolve_case
    from repro.device.profiles import PROFILES
    from repro.droid.phone import Phone
    from repro.env.network import ServerMode
    from repro.experiments.grid import resolve_mitigation_factory

    factory = resolve_mitigation_factory(mitigation)
    mit = factory() if factory else None
    cases = [resolve_case(key) for key in device.buggy_apps]
    overrides = dict(
        gps_quality=device.gps_quality,
        movement_mps=device.movement_mps,
        network_kind=device.network_kind,
        battery_level=device.battery_level,
    )
    # A buggy app's triggering environment wins over the sampled
    # ambient one (a bug that never triggers measures nothing).
    for case in cases:
        overrides.update(case.phone_kwargs)
    if extra_overrides:
        overrides.update(extra_overrides)
    phone = Phone(profile=PROFILES[device.profile],
                  seed=device.sub_seed % (2 ** 31), mitigation=mit,
                  **overrides)
    for case in cases:
        for server, mode in case.servers.items():
            if not isinstance(mode, ServerMode):
                mode = ServerMode(mode)
            phone.env.network.set_server(server, mode)

    buggy_uids, interactive_uids = [], []
    for case in cases:
        app = phone.install(case.make_app())
        buggy_uids.append(app.uid)
    for name in device.normal_apps:
        app = phone.install(normal_app_factory(name))
        interactive_uids.append(app.uid)

    injector = None
    if device.fault_plan_json:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        injector = FaultInjector(
            phone, FaultPlan.from_json(device.fault_plan_json),
            seed=device.sub_seed % (2 ** 31),
            target_uid=buggy_uids[0] if buggy_uids else None)
        injector.arm()
    return phone, buggy_uids, interactive_uids, injector


def simulate_device_day(device, mitigation, minutes):
    """Run one sampled device-day under one mitigation.

    Returns a flat dict of scalars -- the *only* thing that survives
    the simulation. The Phone, its apps and the event heap are garbage
    the moment this returns, which is what keeps shard memory flat.
    """
    from repro.sim.summary import day_summary

    phone, buggy_uids, interactive_uids, injector = \
        build_device_phone(device, mitigation)
    session_uids = interactive_uids or buggy_uids

    def scripted_day():
        for __ in range(device.session_count):
            yield from phone.user.active_session(
                session_uids, device.session_s,
                touch_interval=device.touch_interval_s)
            yield from phone.user.idle_session(device.session_s)

    phone.sim.spawn(scripted_day(), name="fleet.user")
    mark = phone.energy_mark()
    crashed = 0
    crash_error = ""
    try:
        phone.run_for(minutes=minutes)
    except Exception as exc:  # noqa: BLE001 -- a dead device still reports
        crashed = 1
        crash_error = "{}: {}".format(type(exc).__name__, exc)
        _log_device_crash_once(device.index, mitigation, crash_error)

    summary = day_summary(phone, mark, buggy_uids=buggy_uids,
                          interactive_uids=interactive_uids)
    summary.update({
        "index": device.index,
        "mitigation": mitigation,
        "crashed": crashed,
        "crash_error": crash_error,
        "faults_applied": injector.applied_count if injector else 0,
    })
    return summary


#: Per-device columns the shard fold reads under each mitigation.
FOLD_COLUMNS = ("system_power_mw", "buggy_power_mw", "battery_life_h",
                "disruptions", "renewals", "deferrals", "revocations",
                "fp_apps", "fn_apps", "crashed", "faults_applied")


class _SequentialStats(FleetStats):
    """The kernel's fold sink: every batch folds value by value.

    ``observe_many`` replays ``observe`` once per value, in order, so a
    kernel shard keeps its sequential Welford fold (and the report
    bytes pinned on it) while sharing :func:`fold_shard` with the
    table-replay engine, whose plain :class:`FleetStats` sinks fold
    each metric as one batch.
    """

    __slots__ = ()

    def observe_many(self, name, values):
        for value in values:
            self.observe(name, value)


def _int_sum(values):
    """Exact integer column sum (``int64.sum()`` or builtin)."""
    return int(values.sum()) if hasattr(values, "sum") \
        else int(sum(values))


def _paired_columns(columns, vanilla):
    """``(waste_reduction_pct, battery_delta_h)`` of one mitigation's
    columns against the paired vanilla days: waste only where the
    vanilla day wasted anything, the battery delta for every device.
    numpy columns run the scalar's exact float ops elementwise, so both
    column types observe bit-identical sequences."""
    buggy, base = columns["buggy_power_mw"], vanilla["buggy_power_mw"]
    life, base_life = columns["battery_life_h"], vanilla["battery_life_h"]
    if hasattr(base, "dtype"):
        wasted = base > 1e-9
        return 100.0 * (1.0 - buggy[wasted] / base[wasted]), \
            life - base_life
    waste = [100.0 * (1.0 - value / paired)
             for value, paired in zip(buggy, base) if paired > 1e-9]
    return waste, [value - paired
                   for value, paired in zip(life, base_life)]


def fold_shard(stats, columns, normal_apps, buggy_apps):
    """Fold one shard's device-days into per-mitigation ``stats``.

    ``columns[mitigation][name]`` holds one value per device, in
    device-index order, for every :data:`FOLD_COLUMNS` name (lists, or
    numpy arrays from the vector engine); mitigations iterate in
    population order. ``normal_apps``/``buggy_apps`` are the devices'
    installed app tuples. This is the whole fold policy, shared by
    every executor: ``waste_reduction_pct`` and ``battery_delta_h``
    are observed only for mitigations after vanilla, ``deferrals``
    only under leaseos, and every metric reaches its sink in one
    ``observe_many`` call per shard -- a :class:`FleetStats` batch-
    merges it, a :class:`_SequentialStats` observes value by value.
    """
    devices = len(buggy_apps)
    normal_total = sum(len(apps) for apps in normal_apps)
    buggy_total = sum(len(apps) for apps in buggy_apps)
    buggy_devices = sum(1 for apps in buggy_apps if apps)
    families = {}
    for apps in buggy_apps:
        for family in scenario_families(apps):
            families[family] = families.get(family, 0) + 1
    mitigations = tuple(columns)
    vanilla = columns["vanilla"]
    paired = mitigations[mitigations.index("vanilla") + 1:]
    for mitigation in mitigations:
        sink = stats[mitigation]
        data = columns[mitigation]
        for name in ("battery_life_h", "system_power_mw",
                     "buggy_power_mw", "disruptions"):
            sink.observe_many(name, data[name])
        if mitigation in paired:
            waste, delta = _paired_columns(data, vanilla)
            sink.observe_many("waste_reduction_pct", waste)
            sink.observe_many("battery_delta_h", delta)
        if mitigation == "leaseos":
            sink.observe_many("deferrals", data["deferrals"])
        sink.count("devices", devices)
        for name in ("renewals", "deferrals", "revocations", "fp_apps",
                     "fn_apps", "crashed", "faults_applied",
                     "disruptions"):
            sink.count(name, _int_sum(data[name]))
        sink.count("normal_apps", normal_total)
        sink.count("buggy_apps", buggy_total)
        sink.count("buggy_devices", buggy_devices)
        for family, count in sorted(families.items()):
            sink.count("scenario:" + family, count)


# -- the shard job ------------------------------------------------------------

def run_shard(population_json, start, stop, mode="kernel",
              table_json=""):
    """Simulate devices [start, stop) under every mitigation.

    Module-level with scalar kwargs only, so it dispatches as a
    :class:`FuncSpec` (process pool + content-addressed cache). Returns
    the shard summary: per-mitigation ``FleetStats`` dicts plus
    bookkeeping -- size O(1) in the device count.

    ``mode="vector"`` replays the shard from the transition table in
    ``table_json`` (:mod:`repro.fleet.vector`, composing the whole
    shard columnar over :mod:`repro.fleet.fastpath`'s table) instead of
    running the event kernel, falling back to the kernel per device
    where the table cannot be trusted. The extra kwargs also mean
    table-replayed shard results can never collide with kernel ones in
    the grid's content-addressed cache: a kernel dispatch omits them
    entirely, so its cache keys are byte-identical to what they always
    were.
    """
    if mode not in ("kernel", "vector"):
        raise ValueError("unknown shard mode {!r}".format(mode))
    # Imported lazily: repro.telemetry imports repro.fleet.stats, so a
    # module-level import here would be circular.
    from repro.telemetry.emit import shard_telemetry

    population = PopulationSpec.from_json(population_json)
    # Telemetry rides in on environment variables, never kwargs: the
    # shard's content-addressed cache key must not change when a run
    # happens to be observed (shard_telemetry returns None when off).
    shard_index = start // max(population.shard_size, 1)
    telem = shard_telemetry(population, shard_index, start, stop, mode)
    try:
        if telem is not None:
            telem.started()
        summary = {
            "schema": CHECKPOINT_SCHEMA,
            "population": population.fingerprint(),
            "start": start,
            "stop": stop,
            "mode": mode,
        }
        if mode == "vector":
            from repro.fleet.fastpath import TransitionTable
            from repro.fleet.vector import replay_shard_vector

            table = TransitionTable.from_json(table_json)
            per_mitigation, crashes = replay_shard_vector(
                population, start, stop, table, telemetry=telem)
            summary["table"] = table.fingerprint()
        else:
            per_mitigation, crashes = _kernel_shard(population, start,
                                                    stop, telem)
        if telem is not None:
            telem.finished()
        summary["stats"] = {name: stats.to_dict()
                            for name, stats
                            in sorted(per_mitigation.items())}
        # Structured per-device crash records (capped): the aggregate
        # "crashed" counter says how many, these say which and why.
        summary["crashes"] = crashes
        return summary
    finally:
        if telem is not None:
            telem.close()


def _kernel_shard(population, start, stop, telem):
    """Every device-day of [start, stop) on the event kernel; returns
    ``({mitigation: FleetStats}, crashes)``."""
    columns = {name: {column: [] for column in FOLD_COLUMNS}
               for name in population.mitigations}
    normal_apps, buggy_apps = [], []
    crashes = []
    for device in population.devices_in(start, stop):
        normal_apps.append(device.normal_apps)
        buggy_apps.append(device.buggy_apps)
        families = scenario_families(device.buggy_apps)
        for mitigation in population.mitigations:
            summary = simulate_device_day(
                device, mitigation, population.minutes)
            if summary["crashed"] and len(crashes) < MAX_CRASH_RECORDS:
                crashes.append({"device": device.index,
                                "mitigation": mitigation,
                                "error": summary["crash_error"]})
            for column, values in columns[mitigation].items():
                values.append(summary[column])
            if telem is not None:
                telem.observe(summary)
                if families:
                    telem.observe_families(families)
        if telem is not None:
            telem.device_done()
    per_mitigation = {name: _SequentialStats()
                      for name in population.mitigations}
    fold_shard(per_mitigation, columns, normal_apps, buggy_apps)
    return per_mitigation, crashes


# -- checkpointed dispatch ----------------------------------------------------

class FleetRunner:
    """Drives a population's shards through a GridRunner with resume.

    ``checkpoint_dir`` defaults to a per-population directory under
    ``results/.fleet/<fingerprint12>/`` (suffixed ``-vector`` on the
    vector engine, so the two execution modes never share checkpoint
    files), so re-running the same spec resumes automatically and
    different specs never collide. Checkpoint files from another population, package
    version, checkpoint schema, execution mode or transition table are
    ignored (and reported), never served.

    ``mode`` selects the device-day executor: ``"kernel"`` (the full
    event loop), ``"vector"`` (whole-shard replay from the
    transition table, :mod:`repro.fleet.vector`, with per-device
    kernel fallback; numpy or pure-python backend), or ``"auto"``
    (vector at or above :data:`~repro.fleet.fastpath.AUTO_MIN_DEVICES`
    devices, kernel below: the table build only amortises over enough
    device-days).
    """

    def __init__(self, population, runner=None, checkpoint_dir=None,
                 verbose=False, mode="kernel", telemetry_dir=None,
                 service_journal=None):
        if mode not in ("kernel", "vector", "auto"):
            raise ValueError("unknown fleet mode {!r}".format(mode))
        # New run: re-arm the warn-once logs so this run's first
        # fallback/crash of each kind is reported again (satellite of
        # the vector-engine PR; see reset_crash_warnings).
        from repro.fleet.fastpath import reset_fallback_warnings

        reset_crash_warnings()
        reset_fallback_warnings()
        self.population = population
        self.runner = runner if runner is not None else GridRunner()
        # Same per-run scoping for the supervisor: its stats and its
        # serial-fallback warn-once are lifetime state, and a second
        # FleetRunner sharing the supervisor must not inherit them.
        supervisor = getattr(self.runner, "supervisor", None)
        if supervisor is not None:
            supervisor.begin_run()
        self.requested_mode = mode
        if mode == "auto":
            from repro.fleet.fastpath import AUTO_MIN_DEVICES

            mode = "vector" if population.devices >= AUTO_MIN_DEVICES \
                else "kernel"
        self.mode = mode
        if checkpoint_dir is None:
            suffix = "-vector" if self.mode == "vector" else ""
            checkpoint_dir = os.path.join(
                DEFAULT_CHECKPOINT_ROOT,
                population.fingerprint()[:12] + suffix)
        self.checkpoint_dir = checkpoint_dir
        self.verbose = verbose
        #: Lazily built transition table (vector mode only): JSON payload
        #: and fingerprint, shared by every shard dispatch this run.
        self._table_json = None
        self.table_fingerprint = None
        self.shards_run = 0
        self.shards_resumed = 0
        #: Shard indices whose on-disk checkpoint was rejected (stale
        #: version/schema/population). A set, not a counter: the same
        #: stale file is probed by pending_shards() *and* merged_stats()
        #: and must count once, not once per probe.
        self.rejected_shards = set()
        #: Shard indices the supervisor quarantined this run (their
        #: checkpoints were deliberately NOT written).
        self.quarantined_shards = []
        #: Shard indices skipped by merged_stats(allow_missing=True).
        self.missing_shards = []
        #: Run telemetry stream (``--telemetry``): created lazily by
        #: the first ``run_shards`` call when ``telemetry_dir`` is set.
        self.telemetry_dir = telemetry_dir
        self.telemetry = None
        #: Root directory for the crash-safe lease-authority journal
        #: (``--service-journal``). Exported to shard workers by
        #: environment variable only, exactly like telemetry, so the
        #: content-addressed shard cache keys never see it.
        self.service_journal = service_journal

    @property
    def checkpoints_rejected(self):
        """Distinct shards whose stale checkpoint was rejected."""
        return len(self.rejected_shards)

    @property
    def shards_quarantined(self):
        return len(self.quarantined_shards)

    # -- checkpoint files --------------------------------------------------

    def _checkpoint_path(self, shard_index):
        return os.path.join(self.checkpoint_dir,
                            "shard_{:06d}.json".format(shard_index))

    def _load_checkpoint(self, shard_index):
        """A valid checkpoint's summary dict, or None."""
        try:
            with open(self._checkpoint_path(shard_index)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        summary = payload.get("summary")
        start, stop = self.population.shard_range(shard_index)
        if (payload.get("version") != __version__
                or not isinstance(summary, dict)
                or summary.get("schema") != CHECKPOINT_SCHEMA
                or summary.get("population")
                != self.population.fingerprint()
                or (summary.get("start"), summary.get("stop"))
                != (start, stop)
                or summary.get("mode", "kernel") != self.mode
                or (self.mode == "vector"
                    and self.table_fingerprint is not None
                    and summary.get("table")
                    != self.table_fingerprint)):
            self.rejected_shards.add(shard_index)
            if self.verbose:
                print("fleet: ignoring stale checkpoint {}".format(
                    self._checkpoint_path(shard_index)), file=sys.stderr)
            return None
        return summary

    def _write_checkpoint(self, shard_index, summary):
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        payload = {"version": __version__, "summary": summary}
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.checkpoint_dir, suffix=".tmp", delete=False)
        # Atomic publish: a kill mid-write leaves no torn checkpoint.
        try:
            with handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(handle.name, self._checkpoint_path(shard_index))
        except OSError:
            try:
                os.unlink(handle.name)
            except OSError:
                pass

    # -- execution ---------------------------------------------------------

    def pending_shards(self):
        """Shard indices with no valid checkpoint, ascending."""
        return [index for index in range(self.population.shard_count)
                if self._load_checkpoint(index) is None]

    @staticmethod
    def shard_label(shard_index):
        """The supervision/fault-matching label for one shard job."""
        return "shard:{:06d}".format(shard_index)

    def _ensure_table(self):
        """The vector engine's transition table JSON, built on first use.

        Probes dispatch through the same grid runner as the shards, so
        a warm result cache makes this a pure load. Building *before*
        ``pending_shards`` also pins ``table_fingerprint``, which the
        checkpoint validator then enforces: a checkpoint replayed from
        a different table is stale, never served.
        """
        if self._table_json is None:
            from repro.fleet.fastpath import build_table

            table = build_table(self.population, runner=self.runner,
                                verbose=self.verbose)
            self._table_json = table.to_json()
            self.table_fingerprint = table.fingerprint()
        return self._table_json

    def run_shards(self, limit=None):
        """Execute up to ``limit`` pending shards (all by default).

        Shards are dispatched in index order through the grid runner and
        each completed shard's summary is checkpointed *the moment it
        completes* (the runner's ``on_result`` hook), so a kill loses at
        most the in-flight shards (less with the grid cache warm). Under
        a supervised runner the whole pending set is handed over in one
        call -- the supervisor owns concurrency, deadlines and retries
        -- and shards that end in quarantine simply come back without a
        result: their checkpoints are never written (a timed-out shard
        must not publish partial state) and their indices land in
        ``quarantined_shards``. Returns the number of shards executed.
        """
        table_json = self._ensure_table() \
            if self.mode == "vector" else None
        pending = self.pending_shards()
        resumed = self.population.shard_count - len(pending)
        self.shards_resumed += resumed
        self._begin_telemetry(resumed)
        if limit is not None:
            pending = pending[:limit]
        population_json = self.population.to_json()
        supervisor = getattr(self.runner, "supervisor", None)
        if supervisor is not None and supervisor.manifest.run_fingerprint \
                == "":
            supervisor.manifest.run_fingerprint = \
                self.population.fingerprint()[:12]
        if supervisor is not None:
            supervisor.telemetry = self.telemetry
        executed = [0]

        def dispatch(batch):
            specs, labels = [], []
            for shard_index in batch:
                start, stop = self.population.shard_range(shard_index)
                if self.mode == "vector":
                    # The extra kwargs separate table-replayed shard
                    # results from kernel ones in the grid cache; a
                    # kernel dispatch omits them so its cache keys
                    # never change.
                    specs.append(FuncSpec.make(
                        run_shard, population_json=population_json,
                        start=start, stop=stop, mode=self.mode,
                        table_json=table_json))
                else:
                    specs.append(FuncSpec.make(
                        run_shard, population_json=population_json,
                        start=start, stop=stop))
                labels.append(self.shard_label(shard_index))

            def checkpoint(index, spec, summary):
                shard_index = batch[index]
                self._write_checkpoint(shard_index, summary)
                executed[0] += 1
                if self.telemetry is not None:
                    # Runner-side, so cache hits and supervised retries
                    # are announced exactly once each.
                    self.telemetry.shard_finished(shard_index, summary)
                if self.verbose:
                    print("fleet: shard {}/{} done".format(
                        shard_index + 1, self.population.shard_count),
                        file=sys.stderr)

            summaries = self.runner.run(specs, labels=labels,
                                        on_result=checkpoint)
            for shard_index, summary in zip(batch, summaries):
                if summary is None:
                    self.quarantined_shards.append(shard_index)

        saved_env = self._export_telemetry_env()
        try:
            if supervisor is not None:
                if pending:
                    dispatch(pending)
            else:
                batch_size = max(self.runner.effective_jobs, 1)
                for offset in range(0, len(pending), batch_size):
                    dispatch(pending[offset:offset + batch_size])
        finally:
            self._restore_telemetry_env(saved_env)
            # An interrupt mid-dispatch keeps every checkpoint already
            # streamed out; the counter must reflect them for the
            # partial-run summary the CLI prints on the way down.
            self.shards_run += executed[0]
        return executed[0]

    def _begin_telemetry(self, resumed):
        """Open the run stream on the first ``run_shards`` call."""
        if self.telemetry_dir is None or self.telemetry is not None:
            return
        from repro.telemetry.emit import RunTelemetry

        self.telemetry = RunTelemetry(
            self.telemetry_dir, self.population.fingerprint()[:12])
        self.telemetry.run_started(self.population, self.mode,
                                   self.requested_mode,
                                   shards_resumed=resumed)

    def _export_telemetry_env(self):
        """Export the stream location for shard workers; returns the
        saved values. Workers inherit it because they are forked during
        the dispatch this brackets: a supervised worker lives for one
        ``Supervisor.execute`` call, so none is left over from the
        table build, which runs before the export.

        Environment, not kwargs: a telemetry kwarg on ``run_shard``
        would change every shard's content-addressed cache key."""
        if self.telemetry is None and self.service_journal is None:
            return None
        from repro.service.storage import ENV_JOURNAL
        from repro.telemetry.emit import ENV_DIR, ENV_FP

        saved = {key: os.environ.get(key)
                 for key in (ENV_DIR, ENV_FP, ENV_JOURNAL)}
        if self.telemetry is not None:
            os.environ[ENV_DIR] = self.telemetry.directory
            os.environ[ENV_FP] = self.telemetry.fp
        if self.service_journal is not None:
            os.environ[ENV_JOURNAL] = self.service_journal
        return saved

    @staticmethod
    def _restore_telemetry_env(saved):
        if saved is None:
            return
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    def merged_stats(self, allow_missing=False):
        """Fold every shard checkpoint, in index order, into one
        FleetStats per mitigation.

        Raises if any shard is missing, unless ``allow_missing`` is
        true (the graceful-degradation path), in which case missing
        shards are skipped and recorded in ``missing_shards``.
        """
        merged = {name: FleetStats() for name in self.population.mitigations}
        self.missing_shards = []
        for shard_index in range(self.population.shard_count):
            summary = self._load_checkpoint(shard_index)
            if summary is None:
                if allow_missing:
                    self.missing_shards.append(shard_index)
                    continue
                raise RuntimeError(
                    "shard {} has no valid checkpoint; run run_shards() "
                    "to completion first".format(shard_index))
            for name, data in summary["stats"].items():
                merged[name] = merged[name].merge(FleetStats.from_dict(data))
        return merged

    def run_summary(self):
        """Always-surfaced execution accounting for the final report.

        Counts stale-checkpoint rejections explicitly: a rejected
        checkpoint means silent recomputation, and an operator reading
        a quiet run's summary must see that it happened.
        """
        summary = {
            "mode": self.mode,
            "shards_total": self.population.shard_count,
            "shards_run": self.shards_run,
            "shards_resumed": self.shards_resumed,
            "checkpoints_rejected": self.checkpoints_rejected,
            "shards_quarantined": self.shards_quarantined,
        }
        if self.mode == "vector":
            summary["table_fingerprint"] = self.table_fingerprint or ""
        return summary

    def run(self, limit=None, allow_missing=False):
        """Run (or resume) the fleet; returns merged stats when
        complete, or None if ``limit`` stopped the run early.
        ``allow_missing=True`` degrades instead: merged stats over
        whatever checkpoints exist (missing shards recorded in
        ``missing_shards``)."""
        self.run_shards(limit=limit)
        if self.pending_shards() and not allow_missing:
            return None
        return self.merged_stats(allow_missing=allow_missing)
