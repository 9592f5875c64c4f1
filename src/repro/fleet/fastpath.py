"""Kernel-probed transition table and the per-device composition over it.

The discrete-event kernel spends ~0.25 host-seconds per simulated
device-day; at fleet scale (ROADMAP: "millions of device-days") that is
the whole budget. This module replaces the event loop with a
**transition/outcome table**: the kernel is run once per
*device-equivalence class* -- a (device profile, mitigation, app)
combination on a canonical representative day -- and device-days are
then composed from table lookups plus deterministic, seed-derived
perturbation (:func:`fast_summary`). The table-replay executor,
:func:`repro.fleet.vector.replay_shard_vector`, composes whole shards
this way -- columnar with numpy, per device through
:func:`fast_summary` without it. Three-plus orders of magnitude
faster, and continuously cross-validated against the kernel it
summarises (SimDC-style aggregated fast-pathing; see PAPERS.md).

How a device-day is composed from probes
----------------------------------------

Every probe runs the *real* kernel via
:func:`repro.fleet.shard.build_device_phone` on a canonical day
(:data:`CANONICAL`), and is summarised by the same
:func:`repro.sim.summary.day_summary` hook as the kernel path:

- ``base/idle``      -- no apps, screen off all day: the floor power.
- ``base/active``    -- no apps, canonical screen sessions: isolates
  the screen/session ambient cost, which the replay rescales to each
  device's sampled session schedule (exact alternation arithmetic,
  :func:`active_seconds`).
- ``base/awake``     -- no apps, canonical sessions *plus* an all-day
  suspend veto: the baseline for the ``bg_awake`` point below.
- ``normal/<app>/{idle,bg,active}`` -- the app alone at three
  exposure points: screen off all day (``idle``), canonical screen
  cycling without touches (``bg``), and canonical sessions *with*
  touches (``active``). ``idle``/``bg`` bracket the app's
  screen-context-dependent background cost (interpolated linearly in
  the device's active fraction); ``active - bg`` isolates the pure
  touch cost, rescaled by the device's touch rate and divided across
  the session rotation (an app on a 4-app device receives ~1/4 of the
  touches the probe received).
- ``buggy/<case>/{bg_idle,bg,bg_awake}`` -- the Table-5 case installed
  with screen off, under canonical screen cycling, and under cycling
  plus an all-day suspend veto, all *without* touches: three points
  spanning the **awake-fraction axis**. Deep sleep freezes app
  execution, so a *mitigated* (lease-deferred) app's power depends on
  how much of the day the phone is held out of suspend -- by the
  user's sessions or by co-installed apps' wakelocks. The replay
  interpolates each mitigated case piecewise-linearly along this
  measured axis at the device's composed awake fraction (session
  awake time unioned with every other app's probed awake excess).
- ``buggy/<case>/fg`` -- the case *receiving* the user session, for
  devices whose sampled mix is all-buggy.

Every probe is additionally keyed by the device's **merged case
environment**: each Table-5 case pins the phone environment that
triggers its bug (``CaseSpec.phone_kwargs``), later installs override
earlier ones, and whether a bug fires can depend on the *winning*
values (a weak-signal case suppresses a stationary-tracking case's
fix-processing spin by keeping GPS from ever locking). Probes
therefore run under the device's final merged overrides
(:func:`case_env_json`), so an app's table entry reflects the
environment it actually inhabits on that device class.

Lease traffic, disruptions and classifier outcomes (fp/fn) are integer
outcomes read straight from the probes and summed; powers are composed
additively and perturbed by a small zero-mean multiplicative jitter
derived from the device sub-seed (standing in for the kernel's
seed-to-seed variance). Battery life uses the identical
formula-and-clamp as the kernel (:func:`repro.sim.summary.
battery_life_h`).

Everything is deterministic: probes, the probe set and the assembled
table are seeded and cached (content-addressed, through the grid
:class:`~repro.experiments.grid.ResultCache`), the table serialises to
canonical JSON with a sha256 fingerprint, and a replayed shard's
``FleetStats`` are bit-identical across shard order, kill-and-resume,
and numpy presence.

Accuracy is a *measured, stated* contract, not an assumption:
:func:`cross_validate` runs N seeded random device-days through the
kernel and the table and asserts every per-metric delta within
:data:`DEFAULT_TOLERANCES` (see docs/fleet.md for the accuracy model).
A device the table cannot faithfully replay -- armed fault plan,
scenario app, missing or crashed probe, non-finite composition --
**falls back to the kernel for that device alone**
(:func:`repro.fleet.shard.simulate_rows`, with a structured
once-per-run warning and a ``fastpath_fallbacks`` counter) instead of
degrading the shard.
"""

import dataclasses
import hashlib
import json
import sys

from repro.fleet.population import DeviceSpec, PopulationSpec
from repro.io import canonical_json, left_sum

#: The table JSON's format field, hashed into its fingerprint. Code
#: identity is not its job: every cached probe and checkpoint already
#: carries :func:`repro.version.code_digest`.
PROBE_SCHEMA = 1

#: The canonical representative day every probe runs: the seven usage
#: fields of a :class:`~repro.fleet.population.DeviceSpec`, at typical
#: values of the sampling law's ranges
#: (:meth:`~repro.fleet.population.PopulationSpec.sample_columns`).
CANONICAL = {
    "gps_quality": 0.765,
    "movement_mps": 0.0,
    "network_kind": "wifi",
    "battery_level": 0.75,
    "session_count": 2,
    "session_s": 360.0,
    "touch_interval_s": 24.0,
}

#: Fixed sub-seed for every probe phone: probes are class
#: representatives, not sampled devices.
PROBE_SEED = 20190451

#: Relative half-width of the zero-mean per-device jitter applied to
#: modelled powers -- stands in for the kernel's seed-to-seed variance.
JITTER = 0.01

_JITTER_SALT = 0x5DEECE66D

_MASK64 = 0xFFFFFFFFFFFFFFFF


def jitter_unit(sub_seed):
    """The device's jitter draw in [0, 1): splitmix64 of the sub-seed.

    A single hash-derived uniform instead of seeding a Mersenne
    Twister per device: the same determinism contract (device
    sub-seed -> factor, platform-independent), but pure 64-bit integer
    arithmetic, so the vector engine computes it for a whole shard as
    elementwise ``uint64`` numpy ops that are bit-identical to this
    scalar (``(z >> 11) * 2**-53`` is exact in float64 both ways).
    """
    z = (sub_seed ^ _JITTER_SALT) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return (z >> 11) * (2.0 ** -53)

#: ``mode="auto"`` picks the vector engine at or above this population
#: size; below it the table build cannot amortise over enough
#: device-days to beat just running the kernel.
AUTO_MIN_DEVICES = 512

#: At most this many devices (the first ones, by index) are scanned for
#: needed probes, so a fleet at or below the cap gets an exact table.
#: Above it the scan prefix misses classes: at the default sampling law
#: 1.34% of devices 20,000-219,999 need a probe the scan missed. Each
#: such device replays on the kernel instead -- never wrong, but
#: counted in the ``fastpath_fallbacks`` counter and warned about.
PROBE_SCAN_CAP = 20000

#: Devices the probe scan samples per :meth:`~repro.fleet.population.
#: PopulationSpec.sample_columns` call: it never holds more rows.
PROBE_SCAN_CHUNK = 1000

#: Probes one supervised worker attempt runs back to back
#: (``GridRunner.run``'s ``chunk``): a probe's kernel day takes about
#: 3 ms, so one round trip per probe cost about a tenth of a cold
#: build; 120 per chunk measured slower than 30. Probe cache keys and
#: entries do not depend on it.
PROBE_CHUNK = 30

#: Exposure variants probed for the app-free base day: screen off all
#: day, canonical screen sessions, and sessions plus an all-day suspend
#: veto (the baseline for :data:`BUGGY_VARIANTS`' ``bg_awake`` point).
BASE_VARIANTS = ("idle", "active", "awake")

#: Exposure variants probed per normal archetype.
NORMAL_VARIANTS = ("idle", "bg", "active")

#: Exposure variants probed per Table-5 case on a mixed device: the
#: (screen-off, screen-cycling, held-awake) points spanning the *awake
#: fraction* axis a mitigated app's power moves along.
BUGGY_VARIANTS = ("bg_idle", "bg", "bg_awake")

#: Single-hardware-unit rails whose draw is *split* across the apps
#: holding them (the unit runs once no matter how many holders):
#: awake-idle CPU, the GPS chip, the wifi lock, the screen. A solo
#: probe absorbs such a rail whole, so composing co-installed apps
#: must collapse overlapping holds to the rail's union
#: (:func:`fast_summary`). Per-record rails (sensors, audio, compute,
#: network transfers) are additive and need no correction.
SHARED_RAILS = ("cpu_base", "gps", "wifi_lock", "screen")

#: Probe-summary fields carried in a table entry. ``shared_mw`` maps
#: each :data:`SHARED_RAILS` name to the probed app's attributed draw
#: on it (rails the app never touched are absent).
ENTRY_FIELDS = (
    "system_power_mw", "buggy_power_mw", "shared_mw", "awake_frac",
    "disruptions", "renewals", "deferrals", "revocations", "fp_apps",
    "fn_apps", "crashed",
)

#: Metrics compared kernel-vs-table by :func:`cross_validate`, with the
#: default per-device-day tolerance: a delta passes iff
#: ``abs(fast - kernel) <= abs_tol + rel_tol * abs(kernel)``, ``fast``
#: being the :func:`fast_summary` value. These are
#: calibrated against measured composition error (docs/fleet.md has the
#: accuracy model and the measured envelope behind each number).
DEFAULT_TOLERANCES = {
    "system_power_mw": {"rel": 0.25, "abs": 60.0},
    "buggy_power_mw": {"rel": 0.25, "abs": 60.0},
    "battery_life_h": {"rel": 0.25, "abs": 6.0},
    "disruptions": {"rel": 0.5, "abs": 10.0},
    "renewals": {"rel": 0.5, "abs": 10.0},
    "deferrals": {"rel": 1.0, "abs": 40.0},
    "revocations": {"rel": 1.0, "abs": 10.0},
    "fp_apps": {"rel": 0.0, "abs": 2.0},
    "fn_apps": {"rel": 0.0, "abs": 2.0},
}


# -- kernel probes -------------------------------------------------------------

def _probe_device(profile, normal_apps=(), buggy_apps=()):
    """The canonical-day DeviceSpec a probe simulates."""
    return DeviceSpec(index=0, sub_seed=PROBE_SEED, profile=profile,
                      normal_apps=tuple(normal_apps),
                      buggy_apps=tuple(buggy_apps), **CANONICAL)


def _screen_cycle_day(phone, session_count, session_s):
    """Canonical screen on/off alternation with no touches.

    The ambient session cost a *background* app experiences: the user
    is present (screen cycling on the canonical schedule) but the
    foreground belongs to apps that are not installed in this probe.
    """
    from repro.sim.events import Timeout

    for __ in range(session_count):
        phone.screen_on()
        yield Timeout(session_s)
        phone.screen_off()
        yield Timeout(session_s)


#: Merged-environment memo, keyed by the device's ``buggy_apps`` tuple
#: (the only input to the merge). The buggy-case registry is static, so
#: entries never go stale; the key space is bounded by the distinct
#: buggy-app combinations a process actually samples (tiny next to the
#: device count -- this is exactly the device-equivalence-class axis).
_ENV_CACHE = {}


def case_env_json(buggy_apps):
    """Canonical JSON of a buggy-app tuple's merged case environment --
    the table's environment key component.

    Replicates :func:`repro.fleet.shard.build_device_phone`'s merge:
    every case pins its triggering environment, later installs win.
    Memoised per buggy-app tuple (the device-equivalence-class key), so
    table build and replay do the JSON canonicalisation once per class
    instead of once per device.
    """
    buggy_apps = tuple(buggy_apps)
    cached = _ENV_CACHE.get(buggy_apps)
    if cached is None:
        from repro.apps.buggy import resolve_case

        env = {}
        for key in buggy_apps:
            env.update(resolve_case(key).phone_kwargs)
        cached = canonical_json(env)
        _ENV_CACHE[buggy_apps] = cached
    return cached


def probe_day(kind, name, profile, mitigation, minutes, variant,
              env_json="{}"):
    """Run one table probe through the kernel; returns entry scalars.

    Module-level with scalar kwargs so probes dispatch as
    :class:`~repro.experiments.grid.FuncSpec` jobs -- parallel through
    the grid pool and memoised in the content-addressed cache.
    ``env_json`` is the probed device class's merged case environment,
    applied as the final phone overrides.
    """
    from repro.fleet.shard import build_device_phone, user_day
    from repro.sim.summary import day_summary

    device = _probe_device(
        profile,
        normal_apps=(name,) if kind == "normal" else (),
        buggy_apps=(name,) if kind == "buggy" else ())
    phone, buggy_uids, interactive_uids, __ = \
        build_device_phone(device, mitigation,
                           extra_overrides=json.loads(env_json))
    session_uids = interactive_uids or buggy_uids
    if variant in ("awake", "bg_awake"):
        # Pin the phone out of deep sleep below the wakelock/lease
        # layer (a raw suspend veto, invisible to the mitigation): the
        # measurement point for an app on a device some *other* app
        # holds awake all day.
        phone.suspend.add_reason("fastpath.keepawake")
    if variant in ("active", "fg") and session_uids:
        # The kernel path's scripted user day: touches go to the app.
        phone.sim.spawn(user_day(phone, device, session_uids),
                        name="fastpath.user")
    elif variant not in ("idle", "bg_idle"):
        phone.sim.spawn(
            _screen_cycle_day(phone, device.session_count,
                              device.session_s),
            name="fastpath.screen")
    mark = phone.energy_mark()
    crashed = 0
    try:
        phone.run_for(minutes=minutes)
    except Exception:  # noqa: BLE001 -- a crashed probe is data too
        crashed = 1
    summary = day_summary(phone, mark, buggy_uids=buggy_uids,
                          interactive_uids=interactive_uids)
    summary["crashed"] = crashed
    shared = {}
    uids = buggy_uids + interactive_uids
    if uids and minutes > 0:
        for rail in SHARED_RAILS:
            energy = phone.monitor.ledger.app_rail_mj(uids[0], rail)
            if energy > 0:
                shared[rail] = energy / (minutes * 60.0)
    summary["shared_mw"] = shared
    # Fraction of the day the phone was out of deep sleep, recovered
    # exactly from the cpu_base rail's two-level draw (sleep vs
    # awake-idle): deep sleep freezes app execution, so composing a
    # mitigated (deferred) app with apps that keep the phone awake
    # needs this per-probe signal (:func:`fast_summary`).
    prof = phone.profile
    day_s = minutes * 60.0
    span = prof.cpu_awake_idle_mw - prof.cpu_sleep_mw
    awake_frac = 1.0
    if day_s > 0 and span > 0:
        base_mj = phone.monitor.ledger.rail_total_mj("cpu_base")
        awake_frac = (base_mj / day_s - prof.cpu_sleep_mw) / span
        awake_frac = min(max(awake_frac, 0.0), 1.0)
    summary["awake_frac"] = awake_frac
    return {field: summary[field] for field in ENTRY_FIELDS}


# -- the transition/outcome table ----------------------------------------------

class TransitionTable:
    """Per-(equivalence-class, mitigation) kernel outcomes, as data.

    ``entries`` maps ``"kind|name|profile|mitigation|variant|env"``
    (``env`` being the class's merged case environment as canonical
    JSON) to the probe's :data:`ENTRY_FIELDS` dict. The table is plain
    JSON, and its sha256 fingerprint ties checkpoints and reports to
    the exact outcomes they were replayed from. Shard jobs carry only
    that fingerprint: the table reaches them through
    :func:`publish_table`.
    """

    def __init__(self, minutes, entries=None):
        self.minutes = float(minutes)
        self.entries = dict(entries or {})
        # The JSON build_table stored or loaded for this table, so its
        # fingerprint encodes nothing again. A built table is final:
        # edit a copy, ``from_json(to_json())``, never the table.
        self._json = None

    @staticmethod
    def entry_key(kind, name, profile, mitigation, variant,
                  env_json="{}"):
        return "|".join((kind, name, profile, mitigation, variant,
                         env_json))

    def get(self, kind, name, profile, mitigation, variant,
            env_json="{}"):
        return self.entries.get(
            self.entry_key(kind, name, profile, mitigation, variant,
                           env_json))

    def to_json(self):
        if self._json is not None:
            return self._json
        return canonical_json(
            {"schema": PROBE_SCHEMA, "minutes": self.minutes,
             "entries": self.entries})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(data["minutes"], data["entries"])

    def fingerprint(self):
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


#: Tables :func:`publish_table` made replayable in this process, by
#: fingerprint.
_PUBLISHED = {}


def publish_table(table):
    """Make ``table`` replayable by fingerprint; returns the fingerprint.

    Vector shard jobs name their table by this fingerprint
    (:func:`repro.fleet.shard.run_shard`), never by its JSON: an
    in-process shard reads it here, and a supervised worker inherits it
    because the worker is forked after the publish (its ``gc.freeze()``
    at start keeps the inherited table out of its collections).
    """
    fingerprint = table.fingerprint()
    _PUBLISHED[fingerprint] = table
    return fingerprint


def published_table(fingerprint):
    """The table :func:`publish_table` published under ``fingerprint``.

    Raises :class:`LookupError` naming the fingerprint when this
    process has no such table: a shard never replays another one.
    """
    table = _PUBLISHED.get(fingerprint)
    if table is None:
        raise LookupError(
            "transition table {!r} is not published in this process; a "
            "vector shard replays only a table published before its "
            "worker was forked".format(fingerprint))
    return table


def device_probes(device, mitigations):
    """The probe tuples one device's replay will look up."""
    return _class_probes(device.profile, device.normal_apps,
                        device.buggy_apps, mitigations)


def _class_probes(profile, normal_apps, buggy_apps, mitigations):
    """The probe tuples of a device class: the base day, each normal
    app, and each buggy case (at the mixed-device variants beside
    normal apps, ``fg`` without), under every mitigation."""
    env = case_env_json(buggy_apps)
    probes = []
    for mitigation in mitigations:
        for variant in BASE_VARIANTS:
            probes.append(("base", "", profile, mitigation, variant, env))
        for name in normal_apps:
            for variant in NORMAL_VARIANTS:
                probes.append(("normal", name, profile, mitigation,
                               variant, env))
        variants = BUGGY_VARIANTS if normal_apps else ("fg",)
        for key in buggy_apps:
            for variant in variants:
                probes.append(("buggy", key, profile, mitigation,
                               variant, env))
    return probes


def needed_probes(population):
    """The probe set covering the population's sampled device classes,
    as a sorted list of probe tuples.

    Scans the first :data:`PROBE_SCAN_CAP` devices exactly -- a
    4-device test fleet probes a handful of classes, not a cross
    product. Above the cap the prefix misses some classes (see
    :data:`PROBE_SCAN_CAP`), and their devices fall back to the kernel
    at replay. The scan reads ``sample_columns`` in
    :data:`PROBE_SCAN_CHUNK`-device chunks and expands each (profile,
    buggy apps) class once over every normal app seen beside it, and
    once alone if some device carries it without a normal app.
    """
    scanned = min(population.devices, PROBE_SCAN_CAP)
    # (profile, buggy apps, has a normal app) -> normal apps seen there
    classes = {}
    for start in range(0, scanned, PROBE_SCAN_CHUNK):
        columns = population.sample_columns(
            start, min(start + PROBE_SCAN_CHUNK, scanned))
        for profile, normal_apps, buggy_apps in zip(
                columns.profile, columns.normal_apps, columns.buggy_apps):
            classes.setdefault((profile, buggy_apps, bool(normal_apps)),
                               set()).update(normal_apps)
    probes = set()
    for (profile, buggy_apps, __), normal_apps in classes.items():
        # Scenario devices replay on the kernel (see _scenario_guard);
        # probing their classes would simulate days nothing reads.
        if _scenario_guard(buggy_apps) is None:
            probes.update(_class_probes(profile, normal_apps, buggy_apps,
                                       population.mitigations))
    return sorted(probes)


def build_table(population, runner=None, verbose=False):
    """Build (or cache-load) the population's transition table.

    A warm cache holds the assembled table as one entry: its canonical
    JSON, keyed on the population fingerprint (and, like every cache
    key, the code digest, so it is as fresh as the probes). A hit reads
    that one file and runs no scan and no probe. Otherwise
    :func:`needed_probes` scans the population in this process, and the
    probes fan out through ``runner`` -- the same grid pool, result
    cache and supervisor the shards use, in :data:`PROBE_CHUNK`-probe
    chunks. A quarantined probe simply leaves its entry missing (every
    device needing it falls back to the kernel rather than failing the
    run), and the table is then not stored, so the next run retries
    that probe. A corrupt table entry is a miss.
    """
    from repro.experiments.grid import FuncSpec, GridRunner

    if runner is None:
        runner = GridRunner()
    cache = runner.cache
    # A cache key, never executed.
    spec = FuncSpec.make("repro.fleet.fastpath:build_table",
                         population=population.fingerprint())
    text = cache.load(spec) if cache is not None else None
    if text is not None:
        table = TransitionTable.from_json(text)
        table._json = text
        if verbose:
            print("fastpath: loaded transition table ({} entries, {} "
                  "sim-min each) from the cache".format(
                      len(table.entries), population.minutes),
                  file=sys.stderr)
        return table
    probes = needed_probes(population)
    specs = [FuncSpec.make(probe_day, kind=kind, name=name,
                           profile=profile, mitigation=mitigation,
                           minutes=population.minutes, variant=variant,
                           env_json=env_json)
             for kind, name, profile, mitigation, variant, env_json
             in probes]
    labels = ["probe:{}".format(TransitionTable.entry_key(*probe))
              for probe in probes]
    if verbose:
        print("fastpath: building transition table ({} probes, {} "
              "sim-min each)".format(len(specs), population.minutes),
              file=sys.stderr)
    results = runner.run(specs, labels=labels, chunk=PROBE_CHUNK)
    entries = {}
    for probe, result in zip(probes, results):
        if result is not None:
            entries[TransitionTable.entry_key(*probe)] = result
    table = TransitionTable(population.minutes, entries)
    if cache is not None and len(entries) == len(probes):
        table._json = table.to_json()
        cache.store(spec, table._json)
    return table


# -- replay: table lookups + perturbation --------------------------------------

def active_seconds(session_count, session_s, day_s):
    """Seconds of the day spent in active sessions, exactly as the
    kernel's scripted alternation (active ``session_s``, idle
    ``session_s``, truncated at day end) spends them."""
    t = 0.0
    active = 0.0
    for __ in range(session_count):
        if t >= day_s:
            break
        active += min(session_s, day_s - t)
        t += 2.0 * session_s
    return active


_CAPACITY_CACHE = {}


def _capacity_mj(profile):
    if profile not in _CAPACITY_CACHE:
        from repro.device.battery import Battery
        from repro.device.profiles import PROFILES

        _CAPACITY_CACHE[profile] = \
            Battery.for_profile(PROFILES[profile]).capacity_mj
    return _CAPACITY_CACHE[profile]


def _scenario_guard(buggy_apps):
    """Fallback reason when a device hosts generated scenario apps.

    Scenario cases carry per-case environment traces and family
    behaviours the transition-table composition was never validated
    against, so their device-days always run on the event kernel.
    """
    from repro.apps.buggy import is_scenario_key

    for key in buggy_apps:
        if is_scenario_key(key):
            return "scenario-app"
    return None


def _device_guard(device, mitigations, table):
    """Why this device cannot be replayed from the table, or None.

    A non-None reason routes the device to the kernel (per-device
    fallback): armed fault plans perturb the day in ways no canonical
    probe captured, scenario apps are kernel-only by design, and a
    missing or crashed probe means the class was never (successfully)
    characterised.
    """
    if device.fault_plan_json:
        return "fault-plan-armed"
    reason = _scenario_guard(device.buggy_apps)
    if reason is not None:
        return reason
    for probe in device_probes(device, mitigations):
        entry = table.entries.get(TransitionTable.entry_key(*probe))
        if entry is None:
            return "missing-probe:{}".format(
                TransitionTable.entry_key(*probe))
        if entry["crashed"]:
            return "crashed-probe:{}".format(
                TransitionTable.entry_key(*probe))
    return None


def _lerp_shared(lo, hi, t):
    """Interpolate two ``{rail: mW}`` shared-rail maps."""
    out = {}
    for rail in set(lo) | set(hi):
        value = lo.get(rail, 0.0) \
            + (hi.get(rail, 0.0) - lo.get(rail, 0.0)) * t
        if value > 0.0:
            out[rail] = value
    return out


def _piecewise(points, target):
    """Piecewise-linear interpolation along the awake-fraction axis.

    ``points`` are ``(awake_frac, system_add_mw, buggy_mw, shared_mw)``
    sorted by awake fraction; ``target`` is clamped to the measured
    span (never extrapolated). Returns ``(system_add, buggy, shared)``.
    """
    if target <= points[0][0]:
        return points[0][1], points[0][2], dict(points[0][3])
    for (a0, s0, b0, sh0), (a1, s1, b1, sh1) in zip(points, points[1:]):
        if target <= a1:
            span = a1 - a0
            u = (target - a0) / span if span > 1e-9 else 1.0
            return (s0 + (s1 - s0) * u, b0 + (b1 - b0) * u,
                    _lerp_shared(sh0, sh1, u))
    return points[-1][1], points[-1][2], dict(points[-1][3])


def _shared_overlap(normal_shared, buggy_shared):
    """Power double-counted by summing solo probes of shared rails.

    Per rail: every solo probe absorbed its holds whole; co-installed,
    overlapping holds run the rail *once* (its union -- approximated by
    the largest single share, holds being near-nested in practice:
    continuous wakelock/GPS bugs against periodic normal apps). Returns
    ``(system_cut, buggy_cut)``: the total over-count, and the part of
    it that solo ``buggy_power`` measurements over-claimed (the union
    is re-split pro rata, matching the ledger's split attribution).
    """
    system_cut = 0.0
    buggy_cut = 0.0
    rails = set()
    for shared in normal_shared + buggy_shared:
        rails.update(shared)
    # Sorted iteration pins the float accumulation order: set order
    # varies with the process hash seed, and with three or more
    # contributing rails that would make the last few ulps of a report
    # machine-dependent. Sorted order is also what the vector engine
    # uses, so scalar and columnar composition agree bit-for-bit.
    for rail in sorted(rails):
        normal_sum = left_sum(s.get(rail, 0.0) for s in normal_shared)
        buggy_sum = left_sum(s.get(rail, 0.0) for s in buggy_shared)
        total = normal_sum + buggy_sum
        union = max(s.get(rail, 0.0)
                    for s in normal_shared + buggy_shared)
        if total <= union:
            continue
        system_cut += total - union
        if buggy_sum > 0:
            buggy_cut += buggy_sum - union * (buggy_sum / total)
    return system_cut, buggy_cut


def fast_summary(device, mitigation, table, minutes):
    """One device-day from the table: the table's answer to
    :func:`repro.fleet.shard.simulate_device_day`.

    Returns the same flat scalar dict shape, or ``None`` when the
    composition cannot be trusted (caller falls back to the kernel).
    """
    from repro.sim.summary import battery_life_h

    prof = device.profile
    env = case_env_json(device.buggy_apps)
    base_idle = table.get("base", "", prof, mitigation, "idle", env)
    base_active = table.get("base", "", prof, mitigation, "active", env)
    base_awake = table.get("base", "", prof, mitigation, "awake", env)
    if base_idle is None or base_active is None or base_awake is None:
        return None
    day_s = minutes * 60.0
    f_canon = active_seconds(CANONICAL["session_count"],
                             CANONICAL["session_s"], day_s) / day_s
    f_dev = active_seconds(device.session_count, device.session_s,
                           day_s) / day_s
    p_idle = base_idle["system_power_mw"]
    p_active = base_active["system_power_mw"]
    session_scale = (f_dev / f_canon) if f_canon > 0 else 0.0
    system = p_idle + max(p_active - p_idle, 0.0) * session_scale

    touches_canon = (f_canon * day_s) / CANONICAL["touch_interval_s"]
    touches_dev = (f_dev * day_s) / device.touch_interval_s
    touch_ratio = (touches_dev / touches_canon) if touches_canon > 0 \
        else 0.0
    # The user rotates the foreground across the session apps, so each
    # receives ~1/k of the touches a solo probe received.
    rotation = len(device.normal_apps) or len(device.buggy_apps) or 1

    def _lerp(lo, hi):
        return lo + (hi - lo) * session_scale

    # Awake fraction the base day reaches at this device's session
    # schedule, and each app's *excess* awake fraction over its probe's
    # base context (a music player holding a wakelock all day has
    # excess ~1; a periodic syncer ~0). Deep sleep freezes app
    # execution, so a mitigated (deferred) buggy app's power is linear
    # in the phone's awake fraction -- which co-installed apps raise.
    awake_sess = _lerp(base_idle["awake_frac"],
                       base_active["awake_frac"])

    def _excess(lo, hi):
        return _lerp(
            max(lo["awake_frac"] - base_idle["awake_frac"], 0.0),
            max(hi["awake_frac"] - base_active["awake_frac"], 0.0))

    buggy_power = 0.0
    disruptions = renewals = deferrals = revocations = 0
    fp_apps = fn_apps = 0
    normal_shared = []  # per-app {rail: solo-probe attributed mW}
    buggy_shared = []
    awake_excess = []  # per-app excess awake fraction (all apps)
    buggy_pairs = []  # mixed-device buggy (lo, hi) entries, probe order
    for name in device.normal_apps:
        idl = table.get("normal", name, prof, mitigation, "idle", env)
        bgp = table.get("normal", name, prof, mitigation, "bg", env)
        act = table.get("normal", name, prof, mitigation, "active",
                        env)
        if idl is None or bgp is None or act is None:
            return None
        # Background cost at the device's screen exposure: linear
        # between the screen-off (idle) and canonical-cycling (bg)
        # measurement points; the active-bg difference is pure touches.
        bg_idle = max(idl["system_power_mw"] - p_idle, 0.0)
        bg_active = max(bgp["system_power_mw"] - p_active, 0.0)
        background = bg_idle + (bg_active - bg_idle) * session_scale
        touch = max(act["system_power_mw"] - bgp["system_power_mw"], 0.0)
        system += max(background, 0.0) + touch * (touch_ratio / rotation)
        normal_shared.append(_lerp_shared(
            idl["shared_mw"], bgp["shared_mw"], session_scale))
        awake_excess.append(_excess(idl, bgp))
        disruptions += act["disruptions"]
        renewals += act["renewals"]
        deferrals += act["deferrals"]
        revocations += act["revocations"]
        fp_apps += act["fp_apps"]
    for key in device.buggy_apps:
        if device.normal_apps:
            lo = table.get("buggy", key, prof, mitigation, "bg_idle", env)
            hi = table.get("buggy", key, prof, mitigation, "bg", env)
            awk = table.get("buggy", key, prof, mitigation, "bg_awake",
                            env)
            if lo is None or hi is None or awk is None:
                return None
            # Power contribution computed after the loop: the exposure
            # parameter depends on every *other* app's awake excess.
            buggy_pairs.append((lo, hi, awk))
            awake_excess.append(_excess(lo, hi))
            entry = hi
        else:
            entry = table.get("buggy", key, prof, mitigation, "fg", env)
            if entry is None:
                return None
            system += max(entry["system_power_mw"] - p_active, 0.0)
            buggy_power += max(entry["buggy_power_mw"], 0.0)
            buggy_shared.append(dict(entry["shared_mw"]))
        disruptions += entry["disruptions"]
        renewals += entry["renewals"]
        deferrals += entry["deferrals"]
        revocations += entry["revocations"]
        fn_apps += entry["fn_apps"]
    p_awake = base_awake["system_power_mw"]
    for position, (lo, hi, awk) in enumerate(buggy_pairs):
        # The (bg_idle, bg, bg_awake) triple measures the case's power
        # at three *awake fractions* (phone asleep nearly all day,
        # canonical screen cycling, held awake all day). A deferred app
        # freezes only while the phone actually suspends, so its power
        # is interpolated piecewise-linearly along that measured awake
        # axis, at the device's awake fraction: the union of its
        # session awake time and every other app's excess awake
        # fraction (combined as independent overlaps). A case whose own
        # wakelock pins every probe awake spans no axis at all; it
        # falls back to the plain session-scale exposure.
        points = sorted(
            ((lo["awake_frac"],
              max(lo["system_power_mw"] - p_idle, 0.0),
              max(lo["buggy_power_mw"], 0.0), lo["shared_mw"]),
             (hi["awake_frac"],
              max(hi["system_power_mw"] - p_active, 0.0),
              max(hi["buggy_power_mw"], 0.0), hi["shared_mw"]),
             (awk["awake_frac"],
              max(awk["system_power_mw"] - p_awake, 0.0),
              max(awk["buggy_power_mw"], 0.0), awk["shared_mw"])),
            key=lambda point: point[0])
        if points[-1][0] - points[0][0] < 0.05:
            sys_add = _lerp(max(lo["system_power_mw"] - p_idle, 0.0),
                            max(hi["system_power_mw"] - p_active, 0.0))
            bug_add = _lerp(max(lo["buggy_power_mw"], 0.0),
                            max(hi["buggy_power_mw"], 0.0))
            shared = _lerp_shared(lo["shared_mw"], hi["shared_mw"],
                                  session_scale)
        else:
            asleep = 1.0 - min(max(awake_sess, 0.0), 1.0)
            for other, excess in enumerate(awake_excess):
                if other == len(device.normal_apps) + position:
                    continue
                asleep *= 1.0 - min(max(excess, 0.0), 1.0)
            target = 1.0 - asleep
            sys_add, bug_add, shared = _piecewise(points, target)
        system += max(sys_add, 0.0)
        buggy_power += max(bug_add, 0.0)
        buggy_shared.append(dict(shared))
    system_cut, buggy_cut = _shared_overlap(normal_shared, buggy_shared)
    system = max(system - system_cut, 0.0)
    buggy_power = max(buggy_power - buggy_cut, 0.0)

    # Zero-mean, sub-seed-deterministic jitter; one factor per device
    # (not per mitigation) so paired ratios like waste reduction stay
    # consistent with the kernel's paired-baseline design.
    factor = 1.0 + JITTER * (2.0 * jitter_unit(device.sub_seed) - 1.0)
    system *= factor
    buggy_power *= factor
    if not (system > 0.0 and system < float("inf")):
        return None
    return {
        "index": device.index,
        "mitigation": mitigation,
        "system_power_mw": system,
        "buggy_power_mw": buggy_power,
        "battery_life_h": battery_life_h(_capacity_mj(prof), system),
        "disruptions": disruptions,
        "buggy_installed": len(device.buggy_apps),
        "normal_installed": len(device.normal_apps),
        "crashed": 0,
        "crash_error": "",
        "faults_applied": 0,
        "renewals": renewals,
        "deferrals": deferrals,
        "revocations": revocations,
        "fp_apps": fp_apps,
        "fn_apps": fn_apps,
    }


# -- cross-validation ----------------------------------------------------------

def kernel_device_day(population_json, index, mitigation):
    """One kernel device-day as a ``FuncSpec`` target, so
    cross-validation's kernel half fans out and memoises like any other
    grid job."""
    from repro.fleet.shard import simulate_device_day

    population = PopulationSpec.from_json(population_json)
    return simulate_device_day(population.device(index), mitigation,
                               population.minutes)


def validation_population(population, n, seed):
    """An ``n``-device population drawn from the same sampling law as
    ``population`` (same pools, prevalence, minutes, mitigations) but
    an independent seed, no chaos and no scenario catalog -- the
    table's random exam."""
    return dataclasses.replace(
        population, seed=seed, devices=n, chaos_rate=0.0,
        catalog_json="", scenario_prevalence=0.0, family_weights=())


def cross_validate(population, n=50, seed=20190451, runner=None,
                   table=None, tolerances=None):
    """Kernel vs table replay on ``n`` seeded random device-days.

    Returns a plain dict (embedded verbatim in the fleet report's
    provenance block): per-metric worst/mean absolute deltas, the
    tolerance each was judged against, violations (capped detail), and
    an overall ``pass``. Deterministic -- no timestamps, no host facts.
    """
    from repro.experiments.grid import FuncSpec, GridRunner

    if runner is None:
        runner = GridRunner()
    if tolerances is None:
        tolerances = DEFAULT_TOLERANCES
    vpop = validation_population(population, n, seed)
    if table is None:
        table = build_table(vpop, runner=runner)
    population_json = vpop.to_json()
    pairs = [(index, mitigation) for index in range(n)
             for mitigation in vpop.mitigations]
    specs = [FuncSpec.make(kernel_device_day,
                           population_json=population_json,
                           index=index, mitigation=mitigation)
             for index, mitigation in pairs]
    labels = ["xval:{:04d}:{}".format(index, mitigation)
              for index, mitigation in pairs]
    kernel_days = runner.run(specs, labels=labels)

    metrics = {name: {"max_abs_delta": 0.0, "mean_abs_delta": 0.0,
                      "worst": None}
               for name in tolerances}
    violations = []
    compared = fallbacks = crashed = 0
    for (index, mitigation), kernel in zip(pairs, kernel_days):
        if kernel is None or kernel["crashed"]:
            crashed += 1
            continue
        device = vpop.device(index)
        if _device_guard(device, (mitigation,), table) is not None:
            fallbacks += 1
            continue
        fast = fast_summary(device, mitigation, table, vpop.minutes)
        if fast is None:
            fallbacks += 1
            continue
        compared += 1
        for name, tol in tolerances.items():
            delta = abs(fast[name] - kernel[name])
            bound = tol.get("abs", 0.0) + tol.get("rel", 0.0) \
                * abs(kernel[name])
            entry = metrics[name]
            entry["mean_abs_delta"] += delta
            if delta >= entry["max_abs_delta"]:
                entry["max_abs_delta"] = delta
                entry["worst"] = {"device": index,
                                  "mitigation": mitigation,
                                  "kernel": kernel[name],
                                  "fast": fast[name],
                                  "tolerance": bound}
            if delta > bound:
                violations.append(
                    {"device": index, "mitigation": mitigation,
                     "metric": name, "kernel": kernel[name],
                     "fast": fast[name], "delta": delta,
                     "tolerance": bound})
    for entry in metrics.values():
        if compared:
            entry["mean_abs_delta"] /= compared
    return {
        "kind": "fastpath_cross_validation",
        "n": n,
        "seed": seed,
        "minutes": vpop.minutes,
        "mitigations": list(vpop.mitigations),
        "device_days_compared": compared,
        "fallbacks": fallbacks,
        "crashed_skipped": crashed,
        "table_fingerprint": table.fingerprint(),
        "tolerances": tolerances,
        "metrics": metrics,
        "violations": violations[:20],
        "violation_count": len(violations),
        "pass": not violations,
    }
