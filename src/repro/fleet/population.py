"""Seeded population sampling: who the fleet's devices are.

A :class:`PopulationSpec` is pure data -- JSON round-trippable, hashable
by fingerprint -- describing *how to sample* a heterogeneous population
of device-days: device hardware drawn from
:mod:`repro.device.profiles`, an app mix of normal archetypes plus
buggy Table-5 apps at a configurable prevalence, per-device user-trace
and environment parameters, and (optionally) a sampled
:class:`~repro.faults.plan.FaultPlan` arming chaos on a fraction of the
fleet.

Determinism contract:

- ``spec.device(i)`` depends only on ``(spec, i)``: the per-device
  sub-seed is ``sha256("{population_seed}:{i}")``, so any worker can
  materialise any device independently, in any order, on any Python
  version (no reliance on process-global RNG state or hash seeds).
- different device indices get independent streams: each device builds
  its own ``random.Random(sub_seed)`` and nothing else reads it.
- ``spec.fingerprint()`` hashes the canonical JSON of every sampling
  parameter, so checkpoints and caches can refuse populations that
  drifted.
"""

import hashlib
import json
import random

from dataclasses import asdict, dataclass

from repro.io import canonical_json

#: Normal-app archetypes a device can sample, name -> factory path
#: semantics. Factories resolve lazily so importing this module stays
#: cheap and specs never capture live objects.
NORMAL_ARCHETYPES = (
    "runkeeper", "spotify", "haven", "nextcloud", "k9-fixed",
    "podcast", "messenger", "browser", "maps",
)

#: Buggy-app pool: by default every Table 5 case is in play.
from repro.apps.buggy import CASES_BY_KEY  # noqa: E402  (registry is data)

BUGGY_POOL = tuple(sorted(CASES_BY_KEY))

#: Per-catalog scenario pool memo: catalog canonical JSON + family
#: weights -> (entry keys, cumulative weights, total). Instantiating a
#: catalog registers its cases process-wide, so workers that receive a
#: spec with ``catalog_json`` can resolve scenario keys like any other
#: case key.
_SCENARIO_POOLS = {}


def scenario_pool(catalog_json, family_weights=()):
    """(keys, cumulative_weights, total) for weighted scenario draws.

    Families absent from ``family_weights`` keep weight 1.0, so an
    empty mapping is a uniform draw over catalog entries. Instantiates
    (and registers) the catalog on first use per process.
    """
    memo_key = (catalog_json, tuple(family_weights))
    pool = _SCENARIO_POOLS.get(memo_key)
    if pool is None:
        from repro.scenarios.catalog import ScenarioCatalog

        catalog = ScenarioCatalog.from_json(catalog_json)
        catalog.instantiate()
        weights = dict(family_weights)
        keys, cumulative = [], []
        total = 0.0
        for index, entry in enumerate(catalog.entries):
            weight = float(weights.get(entry["family"], 1.0))
            if weight < 0:
                raise ValueError("negative weight for family {!r}".format(
                    entry["family"]))
            total += weight
            keys.append(catalog.entry_key(index))
            cumulative.append(total)
        if total <= 0:
            raise ValueError("scenario family weights sum to zero")
        pool = (tuple(keys), tuple(cumulative), total)
        _SCENARIO_POOLS[memo_key] = pool
    return pool


def _draw_scenario(u, pool):
    """Map one uniform draw ``u`` in [0, 1) to a scenario key."""
    keys, cumulative, total = pool
    target = u * total
    for key, bound in zip(keys, cumulative):
        if target < bound:
            return key
    return keys[-1]


def normal_app_factory(name):
    """Materialise one normal archetype by name (worker-side)."""
    from repro.apps.normal.archetypes import K9MailFixed, PodcastPlayer
    from repro.apps.normal.background import (
        Haven,
        NextcloudSync,
        RunKeeper,
        Spotify,
    )
    from repro.apps.normal.interactive import InteractiveApp

    factories = {
        "runkeeper": RunKeeper,
        "spotify": Spotify,
        "haven": Haven,
        "nextcloud": NextcloudSync,
        "k9-fixed": K9MailFixed,
        "podcast": PodcastPlayer,
        "messenger": lambda: InteractiveApp(
            "Messenger", touch_compute_s=0.15, touch_payload_s=0.3,
            sync_interval_s=90.0),
        "browser": lambda: InteractiveApp(
            "Browser", touch_compute_s=0.5, touch_payload_s=0.8,
            sync_interval_s=None),
        "maps": lambda: InteractiveApp(
            "Maps", touch_compute_s=0.35, touch_payload_s=0.6,
            sync_interval_s=300.0),
    }
    return factories[name]()


@dataclass(frozen=True)
class DeviceSpec:
    """One sampled device-day, fully declarative.

    Everything is a JSON scalar or a tuple of scalars, so a DeviceSpec
    crosses process boundaries inside a shard job without pickling any
    live object.
    """

    index: int
    sub_seed: int
    profile: str
    normal_apps: tuple  # archetype names, install order
    buggy_apps: tuple  # Table 5 case keys, install order
    gps_quality: float
    movement_mps: float
    network_kind: str
    battery_level: float
    session_count: int
    session_s: float
    touch_interval_s: float
    fault_plan_json: str = ""

    def as_dict(self):
        data = asdict(self)
        data["normal_apps"] = list(self.normal_apps)
        data["buggy_apps"] = list(self.buggy_apps)
        return data


@dataclass(frozen=True)
class PopulationSpec:
    """The sampling law for a whole fleet of device-days."""

    seed: int = 2019
    devices: int = 1000
    #: Mitigations compared; "vanilla" is always run first (it is the
    #: paired per-device baseline for waste-reduction quantiles), then
    #: the rest in first-seen order without repeats.
    mitigations: tuple = ("vanilla", "leaseos")
    #: Simulated minutes per device-day.
    minutes: float = 30.0
    #: Devices per shard -- part of the spec because shard boundaries
    #: determine the float merge tree and therefore the exact report
    #: bytes (see docs/fleet.md).
    shard_size: int = 50
    #: Probability that each app slot on a device hosts a buggy app.
    buggy_prevalence: float = 0.25
    #: Inclusive bounds on the number of app slots per device.
    min_apps: int = 3
    max_apps: int = 7
    #: Device profiles sampled uniformly from this pool.
    profiles: tuple = ()
    #: Buggy cases sampled uniformly from this pool.
    buggy_pool: tuple = BUGGY_POOL
    #: Fraction of devices that get a sampled FaultPlan armed.
    chaos_rate: float = 0.0
    #: FaultPlan.sample events-per-hour when chaos is armed.
    chaos_events_per_hour: float = 6.0
    #: Canonical JSON of a :class:`~repro.scenarios.catalog.
    #: ScenarioCatalog` whose generated cases join the sampling pool
    #: ("" = none). Kept as the canonical string so the spec stays pure
    #: data and the catalog fingerprint is part of the population
    #: fingerprint.
    catalog_json: str = ""
    #: Probability that each app slot hosts a generated scenario app
    #: (drawn before the buggy-pool draw; requires ``catalog_json``).
    scenario_prevalence: float = 0.0
    #: Per-family draw weights, ``(("family", weight), ...)``; families
    #: not listed keep weight 1.0, so () draws entries uniformly.
    family_weights: tuple = ()

    def __post_init__(self):
        if not self.profiles:
            from repro.device.profiles import PROFILES

            object.__setattr__(self, "profiles", tuple(sorted(PROFILES)))
        object.__setattr__(self, "mitigations", ("vanilla",) + tuple(
            name for name in dict.fromkeys(self.mitigations)
            if name != "vanilla"))
        if self.devices < 1:
            raise ValueError("population needs at least one device")
        if not 1 <= self.min_apps <= self.max_apps:
            raise ValueError("need 1 <= min_apps <= max_apps")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.scenario_prevalence and not self.catalog_json:
            raise ValueError(
                "scenario_prevalence requires a catalog_json")
        if self.family_weights:
            object.__setattr__(self, "family_weights", tuple(
                (str(name), float(weight))
                for name, weight in self.family_weights))
        if self.catalog_json:
            # Validates the catalog and registers its cases eagerly so
            # sampling never races imports inside worker threads.
            scenario_pool(self.catalog_json, self.family_weights)

    # -- serialisation -----------------------------------------------------

    def to_json(self):
        """Canonical JSON: key-sorted, compact -- the fingerprint input.

        Catalog-free specs omit the scenario fields entirely, so their
        canonical bytes (and therefore fingerprints, checkpoint
        directories and cache keys) are identical to those of builds
        that predate scenario support.
        """
        data = asdict(self)
        for name in ("mitigations", "profiles", "buggy_pool"):
            data[name] = list(data[name])
        if self.catalog_json:
            data["family_weights"] = [
                list(pair) for pair in self.family_weights]
        else:
            del data["catalog_json"]
            del data["scenario_prevalence"]
            del data["family_weights"]
        return canonical_json(data)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        for name in ("mitigations", "profiles", "buggy_pool"):
            data[name] = tuple(data[name])
        if "family_weights" in data:
            data["family_weights"] = tuple(
                tuple(pair) for pair in data["family_weights"])
        return cls(**data)

    def fingerprint(self):
        """sha256 of the canonical JSON -- the population's identity."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    # -- sharding ----------------------------------------------------------

    @property
    def shard_count(self):
        return (self.devices + self.shard_size - 1) // self.shard_size

    def shard_range(self, shard_index):
        """The [start, stop) device range of one shard."""
        if not 0 <= shard_index < self.shard_count:
            raise IndexError("shard {} out of range (0..{})".format(
                shard_index, self.shard_count - 1))
        start = shard_index * self.shard_size
        return start, min(start + self.shard_size, self.devices)

    # -- sampling ----------------------------------------------------------

    def sub_seed(self, index):
        """Deterministic, platform-independent per-device sub-seed."""
        token = "{}:{}".format(self.seed, index).encode("utf-8")
        return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")

    def device(self, index):
        """Materialise device ``index``'s :class:`DeviceSpec`."""
        if not 0 <= index < self.devices:
            raise IndexError("device {} out of range".format(index))
        sub_seed = self.sub_seed(index)
        rng = random.Random(sub_seed)
        profile = rng.choice(list(self.profiles))
        slots = rng.randint(self.min_apps, self.max_apps)
        # Catalog-free specs take zero scenario draws, keeping their
        # device streams byte-identical to pre-scenario builds.
        pool = scenario_pool(self.catalog_json, self.family_weights) \
            if self.catalog_json else None
        normal, buggy = [], []
        for __ in range(slots):
            if pool is not None \
                    and rng.random() < self.scenario_prevalence:
                buggy.append(_draw_scenario(rng.random(), pool))
            elif self.buggy_pool and rng.random() < self.buggy_prevalence:
                buggy.append(rng.choice(list(self.buggy_pool)))
            else:
                normal.append(rng.choice(list(NORMAL_ARCHETYPES)))
        # Duplicate installs are illegal (one uid per app name); keep
        # first occurrences, preserving sampled order.
        normal = tuple(dict.fromkeys(normal))
        buggy = tuple(dict.fromkeys(buggy))
        fault_plan_json = ""
        if self.chaos_rate > 0 and rng.random() < self.chaos_rate:
            from repro.faults.plan import FaultPlan

            plan = FaultPlan.sample(
                sub_seed % (2 ** 31), horizon_s=self.minutes * 60.0,
                events_per_hour=self.chaos_events_per_hour)
            fault_plan_json = plan.to_json()
        return DeviceSpec(
            index=index,
            sub_seed=sub_seed,
            profile=profile,
            normal_apps=normal,
            buggy_apps=buggy,
            gps_quality=round(rng.uniform(0.55, 0.98), 3),
            movement_mps=round(rng.choice((0.0, 0.0, 0.8, 1.4)), 3),
            network_kind=rng.choice(("wifi", "wifi", "cellular")),
            battery_level=round(rng.uniform(0.5, 1.0), 3),
            session_count=rng.randint(1, 3),
            session_s=round(rng.uniform(120.0, 600.0), 1),
            touch_interval_s=round(rng.uniform(6.0, 45.0), 1),
            fault_plan_json=fault_plan_json,
        )

    def sample_columns(self, start, stop):
        """Batch-sample ``[start, stop)`` into :class:`DeviceColumns`.

        Draw-for-draw identical to :meth:`device` -- same sub-seed
        derivation, same ``random.Random`` call sequence -- but emits
        struct-of-arrays columns instead of one frozen dataclass per
        device, and records chaos arming as a boolean instead of
        sampling the (expensive) fault-plan JSON.  Devices whose
        ``has_fault`` flag is set must be materialised through
        :meth:`device` when the plan itself is needed; the vector
        engine only needs to know they exist so it can route them to
        the scalar fallback.
        """
        if not 0 <= start <= stop <= self.devices:
            raise IndexError("range [{}, {}) out of population".format(
                start, stop))
        columns = DeviceColumns()
        # The loop below is the vector engine's per-device floor, so
        # every draw is inlined: ``choice``/``randint`` reduce to
        # ``_randbelow`` (rejection-sampled ``getrandbits``, the
        # documented CPython algorithm ``device()`` already relies on
        # for cross-version stability) and ``uniform(a, b)`` is
        # literally ``a + (b - a) * random()``. The column parity test
        # (sample_columns == device, thousands of devices) pins the
        # draw-for-draw equivalence.
        profiles = list(self.profiles)
        buggy_pool = list(self.buggy_pool)
        normal_pool = list(NORMAL_ARCHETYPES)
        n_prof, k_prof = len(profiles), len(profiles).bit_length()
        n_bug, k_bug = len(buggy_pool), len(buggy_pool).bit_length()
        n_norm, k_norm = len(normal_pool), len(normal_pool).bit_length()
        # uniform(a, b) is a + (b - a) * random(); the spans are
        # precomputed with the same subtraction so the products are
        # bit-identical (0.98 - 0.55 is not the literal 0.43).
        gps_span = 0.98 - 0.55
        batt_span = 1.0 - 0.5
        sess_span = 600.0 - 120.0
        touch_span = 45.0 - 6.0
        prevalence = self.buggy_prevalence
        chaos = self.chaos_rate
        scen_pool = scenario_pool(self.catalog_json, self.family_weights) \
            if self.catalog_json else None
        scen_prevalence = self.scenario_prevalence
        seed = self.seed
        min_apps = self.min_apps
        app_width = self.max_apps - self.min_apps + 1
        k_apps = app_width.bit_length()
        movement_pool = (0.0, 0.0, 0.8, 1.4)
        network_pool = ("wifi", "wifi", "cellular")
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        fromkeys = dict.fromkeys
        rng = random.Random()
        # ``Random.seed`` hands an int straight to the C seeder; calling
        # that directly skips the wrapper's type checks, not a draw.
        reseed = super(random.Random, rng).seed
        grb = rng.getrandbits
        uniform = rng.random
        ap_index = columns.index.append
        ap_sub_seed = columns.sub_seed.append
        ap_profile = columns.profile.append
        ap_normal = columns.normal_apps.append
        ap_buggy = columns.buggy_apps.append
        ap_gps = columns.gps_quality.append
        ap_move = columns.movement_mps.append
        ap_net = columns.network_kind.append
        ap_batt = columns.battery_level.append
        ap_sess_n = columns.session_count.append
        ap_sess_s = columns.session_s.append
        ap_touch = columns.touch_interval_s.append
        ap_fault = columns.has_fault.append
        for index in range(start, stop):
            sub_seed = from_bytes(
                sha256(b"%d:%d" % (seed, index)).digest()[:8], "big")
            reseed(sub_seed)
            r = grb(k_prof)
            while r >= n_prof:
                r = grb(k_prof)
            profile = profiles[r]
            r = grb(k_apps)
            while r >= app_width:
                r = grb(k_apps)
            slots = min_apps + r
            normal, buggy = [], []
            for __ in range(slots):
                if scen_pool is not None and uniform() < scen_prevalence:
                    buggy.append(_draw_scenario(uniform(), scen_pool))
                elif n_bug and uniform() < prevalence:
                    r = grb(k_bug)
                    while r >= n_bug:
                        r = grb(k_bug)
                    buggy.append(buggy_pool[r])
                else:
                    r = grb(k_norm)
                    while r >= n_norm:
                        r = grb(k_norm)
                    normal.append(normal_pool[r])
            has_fault = bool(chaos > 0 and uniform() < chaos)
            ap_index(index)
            ap_sub_seed(sub_seed)
            ap_profile(profile)
            ap_normal(tuple(fromkeys(normal)))
            ap_buggy(tuple(fromkeys(buggy)))
            # gps/battery never feed the columnar composition, so
            # device()'s rounding is applied lazily in spec().
            ap_gps(0.55 + gps_span * uniform())
            r = grb(3)
            while r >= 4:
                r = grb(3)
            ap_move(movement_pool[r])
            r = grb(2)
            while r >= 3:
                r = grb(2)
            ap_net(network_pool[r])
            ap_batt(0.5 + batt_span * uniform())
            r = grb(2)
            while r >= 3:
                r = grb(2)
            ap_sess_n(1 + r)
            ap_sess_s(round(120.0 + sess_span * uniform(), 1))
            ap_touch(round(6.0 + touch_span * uniform(), 1))
            ap_fault(has_fault)
        return columns


class DeviceColumns:
    """Struct-of-arrays view of a sampled device range.

    Parallel lists, one row per device, in device-index order.  This is
    the input format of the vector engine (:mod:`repro.fleet.vector`):
    scalar columns become numpy arrays, app tuples key equivalence
    classes.  ``has_fault`` stands in for ``fault_plan_json`` -- the
    plan is only sampled when a device actually falls back to the
    kernel path.
    """

    __slots__ = (
        "index", "sub_seed", "profile", "normal_apps", "buggy_apps",
        "gps_quality", "movement_mps", "network_kind", "battery_level",
        "session_count", "session_s", "touch_interval_s", "has_fault",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])

    def __len__(self):
        return len(self.index)

    def spec(self, row, population):
        """Materialise row ``row`` as a :class:`DeviceSpec`.

        Fault-armed rows delegate to :meth:`PopulationSpec.device` (the
        plan JSON must come from the canonical sampler); everything
        else is rebuilt directly from the columns, which hold exactly
        the values ``device()`` would have drawn.
        """
        if self.has_fault[row]:
            return population.device(self.index[row])
        return DeviceSpec(
            index=self.index[row],
            sub_seed=self.sub_seed[row],
            profile=self.profile[row],
            normal_apps=self.normal_apps[row],
            buggy_apps=self.buggy_apps[row],
            gps_quality=round(self.gps_quality[row], 3),
            movement_mps=self.movement_mps[row],
            network_kind=self.network_kind[row],
            battery_level=round(self.battery_level[row], 3),
            session_count=self.session_count[row],
            session_s=self.session_s[row],
            touch_interval_s=self.touch_interval_s[row],
            fault_plan_json="",
        )
