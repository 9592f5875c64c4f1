"""Shard execution: simulate a device range, fold it, checkpoint it.

A shard is the unit of dispatch, caching and checkpointing. Each shard
job is an ordinary :class:`~repro.experiments.grid.FuncSpec` calling
:func:`run_shard` with scalars only, so shards fan out over the
existing :class:`~repro.experiments.grid.GridRunner`'s workers and
memoise in its content-addressed result cache. Inside the worker every
device-day is simulated, summarised, folded into the shard's
:class:`~repro.fleet.stats.FleetStats`, and *discarded* -- a shard's
return value is O(1) in the number of devices it simulated.

:func:`simulate_rows` is the one loop that runs device-days on the
event kernel: every row of a kernel shard, and every row the
table-replay engine (:mod:`repro.fleet.vector`) hands back as a
fallback. It records each day the same way in both: fold columns,
capped crash records, invariant violations, scenario families, shard
telemetry, and the run's warn-once stderr lines.

:class:`FleetRunner` drives the shards in index order, writes one
checkpoint file per completed shard (tagged with the population
fingerprint and the code digest, :func:`repro.version.code_digest`),
and on a re-run skips every shard whose checkpoint is already on disk
-- so a killed fleet run resumes where it stopped and still produces a
byte-identical report, and a shard simulated by other code is re-run.
"""

import json
import os
import sys

from repro.apps.buggy import scenario_families
from repro.experiments.grid import FuncSpec, GridRunner
from repro.fleet.population import PopulationSpec, normal_app_factory
from repro.fleet.stats import FleetStats, merge_shards
from repro.io import atomic_write
from repro.version import code_digest

#: The shard summary's format field. Code identity is not its job: a
#: checkpoint carries :func:`repro.version.code_digest` beside it.
CHECKPOINT_SCHEMA = 1

#: Default root for per-population checkpoint directories.
DEFAULT_CHECKPOINT_ROOT = os.path.join("results", ".fleet")

#: Cap on per-device crash records carried in one shard summary, so a
#: systematically-crashing population keeps summaries O(1)-ish.
MAX_CRASH_RECORDS = 20


# -- one device-day -----------------------------------------------------------

#: ``(kind, reason)`` pairs already warned about on stderr, for device
#: crashes and table-replay fallbacks alike: a 10k-device shard with
#: one systematic bug logs one line, not 10k, and every occurrence is
#: still counted. Scoped per *run*: :class:`FleetRunner` clears it at
#: construction, so a second run in the same process warns again.
_WARNED = set()


def _warn_once(kind, reason, message):
    if (kind, reason) not in _WARNED:
        _WARNED.add((kind, reason))
        print(message, file=sys.stderr)


def build_device_phone(device, mitigation, extra_overrides=None):
    """Materialise a DeviceSpec as a live phone, apps installed.

    Returns ``(phone, buggy_uids, interactive_uids, injector)``; a
    fault-armed device's injector carries an
    :class:`~repro.faults.invariants.InvariantChecker` as its
    ``checker``, as the chaos sweep's do. Shared
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
        from repro.faults.invariants import InvariantChecker
        from repro.faults.plan import FaultPlan

        injector = FaultInjector(
            phone, FaultPlan.from_json(device.fault_plan_json),
            seed=device.sub_seed % (2 ** 31),
            checker=InvariantChecker(phone, interval_s=30.0),
            target_uid=buggy_uids[0] if buggy_uids else None)
        injector.arm()
    return phone, buggy_uids, interactive_uids, injector


def user_day(phone, device, session_uids):
    """The scripted user day of every kernel device-day and active
    probe: ``device.session_count`` sessions touching ``session_uids``
    every ``touch_interval_s``, each followed by an idle stretch as
    long as the session."""
    for __ in range(device.session_count):
        yield from phone.user.active_session(
            session_uids, device.session_s,
            touch_interval=device.touch_interval_s)
        yield from phone.user.idle_session(device.session_s)


def simulate_device_day(device, mitigation, minutes):
    """Run one sampled device-day under one mitigation.

    Returns a flat dict of scalars -- the *only* thing that survives
    the simulation. A fault-armed device's checker adds one
    ``invariant:<name>`` count per violated invariant. The Phone, its
    apps, its checker and the event heap are garbage the moment this
    returns, which is what keeps shard memory flat.
    """
    from repro.sim.summary import day_summary

    phone, buggy_uids, interactive_uids, injector = \
        build_device_phone(device, mitigation)
    checker = injector.checker if injector is not None else None
    phone.sim.spawn(user_day(phone, device,
                             interactive_uids or buggy_uids),
                    name="fleet.user")
    mark = phone.energy_mark()
    crashed = 0
    crash_error = ""
    try:
        phone.run_for(minutes=minutes)
    except Exception as exc:  # noqa: BLE001 -- a dead device still reports
        crashed = 1
        crash_error = "{}: {}".format(type(exc).__name__, exc)
        _warn_once("crash", crash_error,
                   "fleet: device {} ({}) crashed during simulation: {} "
                   "(logged once per distinct reason; every occurrence "
                   "is in the shard's crash records)".format(
                       device.index, mitigation, crash_error))

    summary = day_summary(phone, mark, buggy_uids=buggy_uids,
                          interactive_uids=interactive_uids)
    summary.update({
        "index": device.index,
        "mitigation": mitigation,
        "crashed": crashed,
        "crash_error": crash_error,
        "faults_applied": injector.applied_count if injector else 0,
    })
    if checker is not None:
        checker.check_now()  # the day's end, between periodic checks
        for violation in checker.violations:
            key = "invariant:" + violation.invariant
            summary[key] = summary.get(key, 0) + 1
    return summary


#: Per-device columns the shard fold reads under each mitigation.
FOLD_COLUMNS = ("system_power_mw", "buggy_power_mw", "battery_life_h",
                "disruptions", "renewals", "deferrals", "revocations",
                "fp_apps", "fn_apps", "crashed", "faults_applied")


def simulate_rows(population, columns, fallback, data, telemetry):
    """Run rows of a sampled shard on the event kernel, in row order.

    ``columns`` is the shard's :meth:`~repro.fleet.population.
    PopulationSpec.sample_columns`; ``fallback`` maps each row to run
    to the reason the transition table could not compose it, or to
    None in a kernel shard. Each row's device-day runs under every
    mitigation (:func:`simulate_device_day`), and its
    :data:`FOLD_COLUMNS` land in ``data[mitigation][name][row]``.
    ``telemetry`` (the shard's :class:`~repro.telemetry.emit.
    ShardTelemetry`, or None) observes each day, attributes the
    device's scenario families and marks the device done. A fallback
    row is also counted there, and warned about on stderr once per
    reason per run. Returns ``(crashes, invariants)``: the first
    :data:`MAX_CRASH_RECORDS` crashed days as ``{"device",
    "mitigation", "error"}`` records, and per mitigation the days'
    summed ``invariant:<name>`` counts.
    """
    crashes = []
    invariants = {mitigation: {} for mitigation in population.mitigations}
    for row in sorted(fallback):
        reason = fallback[row]
        if reason is not None:
            index = columns.index[row]
            if telemetry is not None:
                telemetry.fallback(reason, index)
            _warn_once("fallback", reason, json.dumps(
                {"event": "fastpath_fallback", "reason": reason,
                 "first_device": index,
                 "action": "device rerouted to the kernel path; "
                           "occurrences are counted in the "
                           "fastpath_fallbacks counter"},
                sort_keys=True))
        device = columns.spec(row, population)
        families = scenario_families(device.buggy_apps)
        for mitigation in population.mitigations:
            summary = simulate_device_day(device, mitigation,
                                          population.minutes)
            for name in FOLD_COLUMNS:
                data[mitigation][name][row] = summary[name]
            if summary["crashed"] and len(crashes) < MAX_CRASH_RECORDS:
                crashes.append({"device": device.index,
                                "mitigation": mitigation,
                                "error": summary["crash_error"]})
            found = invariants[mitigation]
            for key, count in summary.items():
                if key.startswith("invariant:"):
                    found[key] = found.get(key, 0) + count
            if telemetry is not None:
                telemetry.observe(summary)
                if families:
                    telemetry.observe_families(families)
        if telemetry is not None:
            telemetry.device_done()
    return crashes, invariants


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


def fold_shard(stats, columns, normal_apps, buggy_apps, invariants=None):
    """Fold one shard's device-days into per-mitigation ``stats``.

    ``columns[mitigation][name]`` holds one value per device, in
    device-index order, for every :data:`FOLD_COLUMNS` name (lists, or
    numpy arrays from the vector engine); mitigations iterate in
    population order. ``normal_apps``/``buggy_apps`` are the devices'
    installed app tuples. ``invariants`` maps a mitigation to the
    ``invariant:<name>`` counts its kernel days reported
    (:func:`simulate_rows`), folded as counters: absent when zero,
    like ``scenario:<family>``. This is the whole fold policy, shared by
    every executor: ``waste_reduction_pct`` and ``battery_delta_h``
    are observed for every mitigation but vanilla, ``deferrals``
    only under leaseos, and every metric reaches its sink in one
    ``observe_many`` call per shard -- a :class:`FleetStats` batch-
    merges it, a :class:`_SequentialStats` observes value by value.
    """
    invariants = invariants or {}
    devices = len(buggy_apps)
    normal_total = sum(len(apps) for apps in normal_apps)
    buggy_total = sum(len(apps) for apps in buggy_apps)
    buggy_devices = sum(1 for apps in buggy_apps if apps)
    families = {}
    for apps in buggy_apps:
        if apps:
            for family in scenario_families(apps):
                families[family] = families.get(family, 0) + 1
    vanilla = columns["vanilla"]
    for mitigation, data in columns.items():
        sink = stats[mitigation]
        for name in ("battery_life_h", "system_power_mw",
                     "buggy_power_mw", "disruptions"):
            sink.observe_many(name, data[name])
        if mitigation != "vanilla":
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
        for name, count in sorted(invariants.get(mitigation, {}).items()):
            sink.count(name, count)


# -- the shard job ------------------------------------------------------------

def run_shard(population_json, start, stop, mode="kernel", table=""):
    """Simulate devices [start, stop) under every mitigation.

    Module-level with scalar kwargs only, so it dispatches as a
    :class:`FuncSpec` (worker processes + content-addressed cache). Returns
    the shard summary: per-mitigation ``FleetStats`` dicts plus
    bookkeeping -- size O(1) in the device count.

    ``mode="vector"`` replays the shard from the transition table whose
    fingerprint is ``table`` (:mod:`repro.fleet.vector`, composing the
    whole shard columnar over :mod:`repro.fleet.fastpath`'s table)
    instead of running the event kernel, falling back to the kernel per
    device where the table cannot be trusted. The table itself must
    have been published in this process
    (:func:`~repro.fleet.fastpath.publish_table`; a forked worker
    inherits its parent's), else this raises :class:`LookupError`
    naming the fingerprint. The summary's ``"table"`` is that
    fingerprint. The mode and table kwargs also mean table-replayed
    shard results can never collide with kernel ones in the grid's
    content-addressed cache, nor with another table's: a kernel
    dispatch passes ``table=""``.
    """
    if mode not in ("kernel", "vector"):
        raise ValueError("unknown shard mode {!r}".format(mode))
    # Imported lazily: repro.telemetry imports repro.fleet.stats, so a
    # module-level import here would be circular.
    from repro.telemetry.emit import shard_telemetry

    if mode == "vector":
        from repro.fleet.fastpath import published_table

        replay_table = published_table(table)
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
            from repro.fleet.vector import replay_shard_vector

            per_mitigation, crashes = replay_shard_vector(
                population, start, stop, replay_table, telemetry=telem)
            summary["table"] = table
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
    columns = population.sample_columns(start, stop)
    rows = len(columns)
    data = {mitigation: {name: [None] * rows for name in FOLD_COLUMNS}
            for mitigation in population.mitigations}
    crashes, invariants = simulate_rows(
        population, columns, dict.fromkeys(range(rows)), data, telem)
    per_mitigation = {name: _SequentialStats()
                      for name in population.mitigations}
    fold_shard(per_mitigation, data, columns.normal_apps,
               columns.buggy_apps, invariants)
    return per_mitigation, crashes


# -- checkpointed dispatch ----------------------------------------------------

class FleetRunner:
    """Drives a population's shards through a GridRunner with resume.

    ``checkpoint_dir`` defaults to a per-population directory under
    ``results/.fleet/<fingerprint12>/`` (suffixed ``-vector`` on the
    vector engine, so the two execution modes never share checkpoint
    files), so re-running the same spec resumes automatically and
    different specs never collide. Checkpoint files from another
    population, code digest, checkpoint schema, execution mode or
    transition table are ignored (and reported), never served.

    ``mode`` selects the device-day executor: ``"kernel"`` (the full
    event loop), ``"vector"`` (whole-shard replay from the
    transition table, :mod:`repro.fleet.vector`, with per-device
    kernel fallback; numpy or pure-python backend), or ``"auto"``
    (vector at or above :data:`~repro.fleet.fastpath.AUTO_MIN_DEVICES`
    devices, kernel below: the table build only amortises over enough
    device-days).
    """

    def __init__(self, population, runner=None, checkpoint_dir=None,
                 verbose=False, mode="kernel", telemetry_dir=None):
        if mode not in ("kernel", "vector", "auto"):
            raise ValueError("unknown fleet mode {!r}".format(mode))
        # New run: re-arm the warn-once set so this run's first
        # fallback/crash of each reason is reported again.
        _WARNED.clear()
        self.population = population
        self.runner = runner if runner is not None else GridRunner()
        # Same per-run scoping for the supervisor's serial-fallback
        # warn-once: a second FleetRunner sharing it warns again.
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
        #: Fingerprint of the lazily built, published transition table
        #: (vector mode only), shared by every shard dispatch this run.
        self.table_fingerprint = None
        self.shards_run = 0
        self.shards_resumed = 0
        #: Shard indices whose on-disk checkpoint was rejected (stale
        #: code/schema/population). A set, not a counter: the same
        #: stale file is probed by pending_shards() *and* merged_stats()
        #: and must count once, not once per probe.
        self.rejected_shards = set()
        #: Shard indices the supervisor quarantined this run (their
        #: checkpoints were deliberately NOT written).
        self.quarantined_shards = []
        #: Shard indices skipped by merged_stats(allow_missing=True).
        self.missing_shards = []
        #: Shard indices whose checkpoint this runner wrote: valid by
        #: construction, so pending_shards() does not read them back.
        self._written = set()
        #: Run telemetry stream (``--telemetry``): created lazily by
        #: the first ``run_shards`` call when ``telemetry_dir`` is set.
        self.telemetry_dir = telemetry_dir
        self.telemetry = None

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
        """A valid checkpoint's summary dict, or None.

        In vector mode the table is pinned first (:meth:`_ensure_table`,
        a cache load when warm), so a checkpoint replayed from any other
        table is stale whichever method asks first.
        """
        table = self._ensure_table() if self.mode == "vector" else None
        try:
            with open(self._checkpoint_path(shard_index)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        summary = payload.get("summary")
        start, stop = self.population.shard_range(shard_index)
        if (payload.get("version") != code_digest()
                or not isinstance(summary, dict)
                or summary.get("schema") != CHECKPOINT_SCHEMA
                or summary.get("population")
                != self.population.fingerprint()
                or (summary.get("start"), summary.get("stop"))
                != (start, stop)
                or summary.get("mode", "kernel") != self.mode
                or summary.get("table") != table):
            self.rejected_shards.add(shard_index)
            if self.verbose:
                print("fleet: ignoring stale checkpoint {}".format(
                    self._checkpoint_path(shard_index)), file=sys.stderr)
            return None
        return summary

    def _write_checkpoint(self, shard_index, summary):
        """Publish one shard's checkpoint atomically. A failed write
        raises: no shard may count as done without its file. Its
        ``"version"`` is the code digest that computed it."""
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        payload = {"version": code_digest(), "summary": summary}
        # Not canonical_json: checkpoint files keep the exact bytes
        # earlier versions wrote.
        atomic_write(self._checkpoint_path(shard_index),
                     json.dumps(payload, sort_keys=True))
        self._written.add(shard_index)

    # -- execution ---------------------------------------------------------

    def pending_shards(self):
        """Shard indices with no valid checkpoint, ascending. A
        checkpoint this runner wrote is not read again."""
        return [index for index in range(self.population.shard_count)
                if index not in self._written
                and self._load_checkpoint(index) is None]

    @staticmethod
    def shard_label(shard_index):
        """The supervision/fault-matching label for one shard job."""
        return "shard:{:06d}".format(shard_index)

    def _ensure_table(self):
        """The vector engine's table fingerprint; the table is built and
        published (:func:`~repro.fleet.fastpath.publish_table`) on first
        use.

        The table comes through the same grid runner as the shards, so
        a warm result cache makes this one read of the assembled table,
        and the fingerprint hashes the text that read returned.
        Shard jobs carry just the fingerprint: supervised workers are
        forked by the shard dispatch, after the publish, and inherit
        the table. The checkpoint validator pins it too: a checkpoint
        replayed from a different table is stale, never served.
        """
        if self.table_fingerprint is None:
            from repro.fleet.fastpath import build_table, publish_table

            self.table_fingerprint = publish_table(build_table(
                self.population, runner=self.runner,
                verbose=self.verbose))
        return self.table_fingerprint

    def run_shards(self, limit=None):
        """Execute up to ``limit`` pending shards (all by default).

        Shards are dispatched in index order through the grid runner and
        each completed shard's summary is checkpointed *the moment it
        completes* (the runner's ``on_result`` hook), so a kill loses at
        most the in-flight shards (less with the grid cache warm). The
        whole pending set is handed over in one call -- the runner owns
        concurrency, and its supervisor deadlines and retries -- and
        under a degrading supervisor shards that end in quarantine
        simply come back without a result: their checkpoints are never
        written (a timed-out shard must not publish partial state) and
        their indices land in ``quarantined_shards``. Returns the number
        of shards executed.
        """
        table = self._ensure_table() if self.mode == "vector" else ""
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
        specs, labels = [], []
        for shard_index in pending:
            start, stop = self.population.shard_range(shard_index)
            # The mode and table separate table-replayed shard results
            # from kernel ones, and one table's from another's, in the
            # grid cache.
            specs.append(FuncSpec.make(
                run_shard, population_json=population_json, start=start,
                stop=stop, mode=self.mode, table=table))
            labels.append(self.shard_label(shard_index))
        executed = [0]

        def checkpoint(index, spec, summary):
            shard_index = pending[index]
            self._write_checkpoint(shard_index, summary)
            executed[0] += 1
            if self.telemetry is not None:
                # Runner-side, so cache hits and supervised retries are
                # announced exactly once each.
                self.telemetry.shard_finished(shard_index, summary)
            if self.verbose:
                print("fleet: shard {}/{} done".format(
                    shard_index + 1, self.population.shard_count),
                    file=sys.stderr)

        saved_env = self._export_telemetry_env()
        try:
            summaries = self.runner.run(specs, labels=labels,
                                        on_result=checkpoint)
            for shard_index, summary in zip(pending, summaries):
                if summary is None:
                    self.quarantined_shards.append(shard_index)
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
        if self.telemetry is None:
            return None
        from repro.telemetry.emit import ENV_DIR, ENV_FP

        saved = {key: os.environ.get(key) for key in (ENV_DIR, ENV_FP)}
        os.environ[ENV_DIR] = self.telemetry.directory
        os.environ[ENV_FP] = self.telemetry.fp
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
        def shard_stats(shard_index):
            summary = self._load_checkpoint(shard_index)
            if summary is not None:
                return summary["stats"]
            if not allow_missing:
                raise RuntimeError(
                    "shard {} has no valid checkpoint; run run_shards() "
                    "to completion first".format(shard_index))
            return None

        merged, self.missing_shards = merge_shards(
            self.population.mitigations,
            map(shard_stats, range(self.population.shard_count)))
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
