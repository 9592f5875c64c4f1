"""Columnar vectorized fleet engine: whole-shard device-day composition.

The table-replay executor. :mod:`repro.fleet.fastpath` replaced the
event kernel with transition-table arithmetic (:func:`~repro.fleet.
fastpath.fast_summary`, one device at a time: sample a ``DeviceSpec``,
look up ~20 table entries, run ~100 float ops). At 10^6+ devices that
per-device Python walk *is* the runtime, so this module turns the same
arithmetic into struct-of-arrays numpy expressions over a whole shard
at once:

- **Batched sampling** --
  :meth:`~repro.fleet.population.PopulationSpec.sample_columns` draws
  every device's attributes with the exact ``random.Random`` call
  sequence of ``device()``, but into parallel columns and without
  materialising per-device dataclasses or fault-plan JSON.
- **Equivalence-class resolution** -- devices are grouped by
  ``(profile, app mix, merged case env)``; each class resolves its
  probe entries once per table per process (:class:`_ShardClasses`,
  shared by every shard the process replays), precomputing every
  per-entry constant the composition needs (baseline deltas, sorted
  awake-axis points, shared-rail lerp endpoints, lease-traffic ints).
  The resolved constants live in append-only *banks* that finalise to
  numpy arrays, so per-device work is pure fancy-indexed gathering.
- **Columnar composition** -- the ``fast_summary`` arithmetic (session
  -exposure lerp, touch rescaling, awake-axis piecewise interpolation,
  shared-rail union correction, seeded jitter) runs as elementwise
  array ops over devices, looping only over app *slots* (<= max_apps)
  and shared rails. Slot padding multiplies/adds exact identities
  (``*1.0``, ``+0.0``), and every expression mirrors the scalar
  operation order, so columnar results are **bit-identical** to
  ``fast_summary`` (IEEE-754 elementwise ops are the same ops).
- **Batched folding** -- metric columns feed the shard fold shared
  with the kernel path (:func:`repro.fleet.shard.fold_shard`), one
  :meth:`~repro.fleet.stats.FleetStats.observe_many` batch per metric
  per shard, in device-index order.

Fallback tiering: a device with an armed fault plan, a scenario app, a
missing/crashed probe, or a non-finite composition is routed -- alone
-- through the kernel shard's own loop
(:func:`repro.fleet.shard.simulate_rows`), which records its days as
a kernel shard records them and warns once per run about each reason
:func:`~repro.fleet.fastpath._device_guard` gives; the
``fastpath_fallbacks`` counter counts such devices, and
columnar-composed devices are counted in ``vector_devices``. When
numpy is absent (or
``REPRO_FASTPATH_NUMPY=0``), the engine degrades to per-device
:func:`~repro.fleet.fastpath.fast_summary` calls over the same
class-resolution cache -- same numbers, scalar speed -- mirroring the
``_numpy()`` pattern in :mod:`repro.fleet.stats`.

The contract is that columnar output equals per-device
``fast_summary``, exactly, on both backends; the tests enforce it. The
accuracy anchor is the kernel: ``fastpath.cross_validate`` measures
table-vs-kernel under its own tolerances, and ``repro fleet --mode
vector --cross-validate N`` runs it.
"""

import weakref

from repro.fleet.fastpath import (
    CANONICAL,
    JITTER,
    SHARED_RAILS,
    _capacity_mj,
    _device_guard,
    _JITTER_SALT,
    _scenario_guard,
    active_seconds,
    case_env_json,
    fast_summary,
    jitter_unit,
)
from repro.fleet.shard import FOLD_COLUMNS, fold_shard, simulate_rows
from repro.fleet.stats import FleetStats, _numpy
from repro.sim.summary import MAX_BATTERY_LIFE_H

#: Shared rails in the fixed order both engines accumulate them
#: (:func:`fastpath._shared_overlap` iterates ``sorted(rails)``).
RAIL_ORDER = tuple(sorted(SHARED_RAILS))

#: Integer outcome fields read from a normal app's ``active`` probe.
_NORMAL_INTS = ("disruptions", "renewals", "deferrals", "revocations",
                "fp_apps")

#: Integer outcome fields read from a buggy app's ``bg``/``fg`` probe.
_BUGGY_INTS = ("disruptions", "renewals", "deferrals", "revocations",
               "fn_apps")

#: All integer metrics a composition produces.
_INT_METRICS = ("disruptions", "renewals", "deferrals", "revocations",
                "fp_apps", "fn_apps")

#: Float metrics a composition produces.
_FLOAT_METRICS = ("system_power_mw", "buggy_power_mw", "battery_life_h")


# -- per-probe constant banks --------------------------------------------------

class _Bank:
    """Append-only column store that finalises to numpy arrays.

    ``floats``/``ints`` name scalar columns; ``rails`` names columns
    that hold one value per :data:`RAIL_ORDER` rail (stored as a list
    of per-rail columns). Rows are interned by the caller; ``arrays``
    snapshots everything as dtype-stable numpy arrays for gathering.
    A bank outlives its shard (:func:`_shard_classes`), so ``arrays``
    converts only the rows added since its last snapshot.
    """

    def __init__(self, floats=(), ints=(), rails=()):
        self.floats = {name: [] for name in floats}
        self.ints = {name: [] for name in ints}
        self.rails = {name: [[] for __ in RAIL_ORDER] for name in rails}
        self.size = 0
        self._arrays = None
        self._converted = 0

    def add(self, floats, ints, rails):
        for name, value in floats.items():
            self.floats[name].append(value)
        for name, value in ints.items():
            self.ints[name].append(value)
        for name, per_rail in rails.items():
            cols = self.rails[name]
            for r, value in enumerate(per_rail):
                cols[r].append(value)
        self.size += 1
        return self.size - 1

    def arrays(self, np):
        done = self._converted
        if self._arrays is not None and done == self.size:
            return self._arrays
        old = self._arrays or {}

        def grown(before, col, dtype):
            tail = np.asarray(col[done:], dtype=dtype)
            return tail if before is None \
                else np.concatenate((before, tail))

        out = {}
        for name, col in self.floats.items():
            out[name] = grown(old.get(name), col, np.float64)
        for name, col in self.ints.items():
            out[name] = grown(old.get(name), col, np.int64)
        for name, cols in self.rails.items():
            before = old.get(name, [None] * len(cols))
            out[name] = [grown(prev, col, np.float64)
                         for prev, col in zip(before, cols)]
        self._arrays, self._converted = out, self.size
        return out


class _ShardClasses:
    """Equivalence-class resolver + probe-constant interner.

    :meth:`resolve_rows` maps a device's ``(profile, normal_apps,
    buggy_apps)`` to bank row ids, or to None when the table cannot
    compose it. Interning happens at the *slot* level: one context per
    (profile, merged-env) holds the per-mitigation base row ids and
    app-name -> row-id maps, so a device's resolve is a handful of
    string-keyed dict hits however unique its full app mix is (full
    (profile, mix, env) classes are near-unique at fleet scale, so
    memoising them would cost more in tuple hashing than it saves).

    A resolver holds its table weakly: :func:`_shard_classes` keeps one
    per table, keyed by the table, for as long as the table lives.
    """

    def __init__(self, table, mitigations):
        self._table = weakref.ref(table)
        self.mitigations = tuple(mitigations)
        # One context row per (profile, env): per-mitigation base row
        # ids plus app-name -> per-mitigation id *tuples*, so the hot
        # path resolves a device with two comprehensions total instead
        # of two per mitigation (:meth:`resolve_rows`).
        self._rows = {}
        # buggy-app tuple -> merged case env, or None for a tuple
        # holding a scenario app (the table never composes it).
        self._envs = {}
        self.base = _Bank(
            floats=("p_idle", "p_active", "p_awake", "aw_idle",
                    "aw_active", "capacity"))
        self.normal = _Bank(
            floats=("bg_idle", "bg_active", "touch", "ex_lo", "ex_hi"),
            ints=_NORMAL_INTS,
            rails=("sh_lo", "sh_d"))
        self.mixed = _Bank(
            floats=("a0", "a1", "a2", "s0", "s1", "s2", "b0", "b1",
                    "b2", "f_s_lo", "f_s_hi", "f_b_lo", "f_b_hi",
                    "ex_lo", "ex_hi"),
            ints=_BUGGY_INTS + ("flat",),
            rails=("p0", "p1", "p2", "f_sh_lo", "f_sh_d"))
        self.fg = _Bank(
            floats=("sys_add", "bug"),
            ints=_BUGGY_INTS,
            rails=("sh",))

    @property
    def table(self):
        return self._table()

    def _entry(self, kind, name, profile, mitigation, variant, env):
        """A live table entry, or None if it is missing or crashed."""
        entry = self.table.get(kind, name, profile, mitigation, variant,
                               env)
        if entry is None or entry["crashed"]:
            return None
        return entry

    def _base_id(self, profile, env, mitigation):
        entries = []
        for variant in ("idle", "active", "awake"):
            entry = self._entry("base", "", profile, mitigation,
                                variant, env)
            if entry is None:
                return None
            entries.append(entry)
        idle, active, awake = entries
        return self.base.add(
            {"p_idle": idle["system_power_mw"],
             "p_active": active["system_power_mw"],
             "p_awake": awake["system_power_mw"],
             "aw_idle": idle["awake_frac"],
             "aw_active": active["awake_frac"],
             "capacity": _capacity_mj(profile)}, {}, {})

    def _normal_id(self, name, profile, env, mitigation, base_id):
        entries = []
        for variant in ("idle", "bg", "active"):
            entry = self._entry("normal", name, profile, mitigation,
                                variant, env)
            if entry is None:
                return None
            entries.append(entry)
        idl, bgp, act = entries
        b = self.base
        p_idle = b.floats["p_idle"][base_id]
        p_active = b.floats["p_active"][base_id]
        aw_idle = b.floats["aw_idle"][base_id]
        aw_active = b.floats["aw_active"][base_id]
        sh_lo = [idl["shared_mw"].get(rail, 0.0)
                 for rail in RAIL_ORDER]
        sh_hi = [bgp["shared_mw"].get(rail, 0.0)
                 for rail in RAIL_ORDER]
        return self.normal.add(
            {"bg_idle": max(
                idl["system_power_mw"] - p_idle, 0.0),
             "bg_active": max(
                bgp["system_power_mw"] - p_active, 0.0),
             "touch": max(act["system_power_mw"]
                          - bgp["system_power_mw"], 0.0),
             "ex_lo": max(idl["awake_frac"] - aw_idle, 0.0),
             "ex_hi": max(bgp["awake_frac"] - aw_active, 0.0)},
            {field: act[field] for field in _NORMAL_INTS},
            {"sh_lo": sh_lo,
             "sh_d": [hi - lo
                      for lo, hi in zip(sh_lo, sh_hi)]})

    def _mixed_id(self, case, profile, env, mitigation, base_id):
        entries = []
        for variant in ("bg_idle", "bg", "bg_awake"):
            entry = self._entry("buggy", case, profile, mitigation,
                                variant, env)
            if entry is None:
                return None
            entries.append(entry)
        lo, hi, awk = entries
        b = self.base
        p_idle = b.floats["p_idle"][base_id]
        p_active = b.floats["p_active"][base_id]
        p_awake = b.floats["p_awake"][base_id]
        aw_idle = b.floats["aw_idle"][base_id]
        aw_active = b.floats["aw_active"][base_id]
        # Same tuple order and sort key as fast_summary: the
        # stable sort's tie behaviour is part of the contract.
        points = sorted(
            ((lo["awake_frac"],
              max(lo["system_power_mw"] - p_idle, 0.0),
              max(lo["buggy_power_mw"], 0.0), lo["shared_mw"]),
             (hi["awake_frac"],
              max(hi["system_power_mw"] - p_active, 0.0),
              max(hi["buggy_power_mw"], 0.0), hi["shared_mw"]),
             (awk["awake_frac"],
              max(awk["system_power_mw"] - p_awake, 0.0),
              max(awk["buggy_power_mw"], 0.0),
              awk["shared_mw"])),
            key=lambda point: point[0])
        flat = points[-1][0] - points[0][0] < 0.05
        f_sh_lo = [lo["shared_mw"].get(rail, 0.0)
                   for rail in RAIL_ORDER]
        f_sh_hi = [hi["shared_mw"].get(rail, 0.0)
                   for rail in RAIL_ORDER]
        ints = {field: hi[field] for field in _BUGGY_INTS}
        ints["flat"] = 1 if flat else 0
        return self.mixed.add(
            {"a0": points[0][0], "a1": points[1][0],
             "a2": points[2][0],
             "s0": points[0][1], "s1": points[1][1],
             "s2": points[2][1],
             "b0": points[0][2], "b1": points[1][2],
             "b2": points[2][2],
             "f_s_lo": max(
                lo["system_power_mw"] - p_idle, 0.0),
             "f_s_hi": max(
                hi["system_power_mw"] - p_active, 0.0),
             "f_b_lo": max(lo["buggy_power_mw"], 0.0),
             "f_b_hi": max(hi["buggy_power_mw"], 0.0),
             "ex_lo": max(lo["awake_frac"] - aw_idle, 0.0),
             "ex_hi": max(hi["awake_frac"] - aw_active, 0.0)},
            ints,
            {"p0": [points[0][3].get(rail, 0.0)
                    for rail in RAIL_ORDER],
             "p1": [points[1][3].get(rail, 0.0)
                    for rail in RAIL_ORDER],
             "p2": [points[2][3].get(rail, 0.0)
                    for rail in RAIL_ORDER],
             "f_sh_lo": f_sh_lo,
             "f_sh_d": [hi_v - lo_v for lo_v, hi_v
                        in zip(f_sh_lo, f_sh_hi)]})

    def _fg_id(self, case, profile, env, mitigation, base_id):
        entry = self._entry("buggy", case, profile, mitigation,
                            "fg", env)
        if entry is None:
            return None
        p_active = self.base.floats["p_active"][base_id]
        return self.fg.add(
            {"sys_add": max(
                entry["system_power_mw"] - p_active, 0.0),
             "bug": max(entry["buggy_power_mw"], 0.0)},
            {field: entry[field] for field in _BUGGY_INTS},
            {"sh": [entry["shared_mw"].get(rail, 0.0)
                    for rail in RAIL_ORDER]})

    def resolve_rows(self, profile, normal_apps, buggy_apps):
        """Device-major resolve: ``(base_ids, normal_rows,
        buggy_rows)`` -- each element a per-mitigation id tuple -- or
        None when the device cannot be composed from the table (a
        scenario app, or a missing or crashed probe under any
        mitigation; :func:`fastpath._device_guard` names the reason).

        The maps cache only names that resolved for *every*
        mitigation, so the hot path is two bare-lookup comprehensions
        per device regardless of the mitigation count.
        """
        try:
            env = self._envs[buggy_apps]
        except KeyError:
            env = self._envs[buggy_apps] = None \
                if _scenario_guard(buggy_apps) is not None \
                else case_env_json(buggy_apps)
        if env is None:
            return None
        key = (profile, env)
        row = self._rows.get(key)
        if row is None:
            base = []
            for mitigation in self.mitigations:
                bid = self._base_id(profile, env, mitigation)
                if bid is None:
                    base = None
                    break
                base.append(bid)
            row = [tuple(base) if base is not None else None,
                   {}, {}, {}]
            self._rows[key] = row
        base_ids = row[0]
        if base_ids is None:
            return None
        nmap = row[1]
        bmap = row[2] if normal_apps else row[3]
        try:
            return (base_ids,
                    [nmap[name] for name in normal_apps],
                    [bmap[case] for case in buggy_apps])
        except KeyError:
            return self._resolve_rows_slow(profile, env, row,
                                           normal_apps, buggy_apps)

    def _resolve_rows_slow(self, profile, env, row, normal_apps,
                           buggy_apps):
        """Warm unseen names across every mitigation, then retry."""
        base_ids, nmap = row[0], row[1]
        mixed = bool(normal_apps)
        bmap = row[2] if mixed else row[3]
        build = self._mixed_id if mixed else self._fg_id
        clean = True
        for name in normal_apps:
            if name not in nmap:
                ids = []
                for mi, mitigation in enumerate(self.mitigations):
                    nid = self._normal_id(name, profile, env,
                                          mitigation, base_ids[mi])
                    if nid is None:
                        ids = None
                        break
                    ids.append(nid)
                if ids is None:
                    clean = False
                else:
                    nmap[name] = tuple(ids)
        for case in buggy_apps:
            if case not in bmap:
                ids = []
                for mi, mitigation in enumerate(self.mitigations):
                    bid = build(case, profile, env, mitigation,
                                base_ids[mi])
                    if bid is None:
                        ids = None
                        break
                    ids.append(bid)
                if ids is None:
                    clean = False
                else:
                    bmap[case] = tuple(ids)
        if not clean:
            return None
        return (base_ids,
                [nmap[name] for name in normal_apps],
                [bmap[case] for case in buggy_apps])


# -- whole-shard composition ---------------------------------------------------

class _Composition:
    """Per-device metric columns for one composed shard range.

    ``data[mitigation][metric]`` is a length-``n`` column (numpy array
    or plain list) in device-index order, one per
    :data:`~repro.fleet.shard.FOLD_COLUMNS` name; ``vector_rows`` were
    composed columnar, ``fallback`` maps the rest to their guard
    reason. Rows in ``fallback`` hold zeros until the caller fills
    them from the kernel.
    """

    __slots__ = ("n", "data", "vector_rows", "fallback")

    def __init__(self, n, data, vector_rows, fallback):
        self.n = n
        self.data = data
        self.vector_rows = vector_rows
        self.fallback = fallback


def _zero_columns(n, mitigations, np=None):
    """Zero-filled :data:`~repro.fleet.shard.FOLD_COLUMNS` per
    mitigation: float64/int64 arrays, or plain lists without numpy."""
    def zeros(metric):
        floating = metric in _FLOAT_METRICS
        if np is None:
            return [0.0 if floating else 0] * n
        return np.zeros(n, dtype=np.float64 if floating else np.int64)

    return {m: {metric: zeros(metric) for metric in FOLD_COLUMNS}
            for m in mitigations}


def _jitter_factors(columns, rows, np=None):
    """The per-device zero-mean jitter factor, sub-seed-derived.

    One factor per device, shared by every mitigation -- the same
    splitmix64 draw :func:`fastpath.jitter_unit` makes, computed as
    elementwise ``uint64`` ops over the whole shard when numpy is
    present (bit-identical: wrapping 64-bit arithmetic and the exact
    ``(z >> 11) * 2**-53`` conversion are the same either way).
    """
    sub_seeds = columns.sub_seed
    if np is None:
        return [1.0 + JITTER * (2.0 * jitter_unit(sub_seeds[row]) - 1.0)
                for row in rows]
    z = np.asarray([sub_seeds[row] for row in rows], dtype=np.uint64)
    z = z ^ np.uint64(_JITTER_SALT)
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    unit = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return 1.0 + JITTER * (2.0 * unit - 1.0)


def _slot_geometry(np, id_lists):
    """Shared scatter geometry for ragged slot-id lists.

    Slot counts are identical across mitigations (only the bank ids
    differ), so the (width, row-indices, column-indices) triple is
    computed once per device group and reused for every mitigation's
    :func:`_fill_matrix` call.
    """
    widths = np.asarray([len(ids) for ids in id_lists],
                        dtype=np.intp)
    width = int(widths.max()) if widths.shape[0] else 0
    rows = np.repeat(np.arange(widths.shape[0], dtype=np.intp),
                     widths)
    starts = np.cumsum(widths) - widths
    cols = np.arange(int(widths.sum()), dtype=np.intp) \
        - np.repeat(starts, widths)
    return width, rows, cols


def _fill_matrix(np, flat_ids, n_rows, geometry):
    """Rows x width int matrix of bank ids, -1 padded, one scatter.

    ``flat_ids`` is the row-major concatenation of every device's
    slot ids, aligned with the ``geometry`` index arrays.
    """
    width, rows, cols = geometry
    mat = np.full((n_rows, max(width, 1)), -1, dtype=np.int64)
    if rows.shape[0]:
        mat[rows, cols] = flat_ids
    return mat


def compose_shard(population, columns, classes, np=None):
    """Compose every vector-eligible device in ``columns`` columnar.

    Returns a :class:`_Composition`. With ``np`` absent the
    composition degrades to per-device :func:`fast_summary` calls over
    the shared class-resolution cache -- identical numbers (the
    columnar path mirrors ``fast_summary`` op for op), scalar speed.
    """
    n = len(columns)
    mitigations = classes.mitigations
    fallback = {}
    # One pass: resolve each device and land it straight in its
    # composition group (mixed vs all-buggy). Each device contributes
    # one base-id tuple and per-slot id tuples (mitigation-major
    # inside the tuple), split per mitigation only at gather time.
    mix_rows, fg_rows = [], []
    mix_base, mix_norm, mix_bug = [], [], []
    fg_base, fg_bug = [], []
    mix_nnorm = []
    has_fault = columns.has_fault
    profiles = columns.profile
    normal_apps = columns.normal_apps
    buggy_apps = columns.buggy_apps
    resolve_rows = classes.resolve_rows
    for row in range(n):
        if has_fault[row]:
            fallback[row] = "fault-plan-armed"
            continue
        got = resolve_rows(profiles[row], normal_apps[row],
                           buggy_apps[row])
        if got is None:
            # The guard's own probe walk names the first failure.
            fallback[row] = _device_guard(columns.spec(row, population),
                                          mitigations, classes.table)
            continue
        nrows = got[1]
        if nrows:
            mix_rows.append(row)
            mix_nnorm.append(len(nrows))
            mix_base.append(got[0])
            mix_norm.append(nrows)
            mix_bug.append(got[2])
        else:
            fg_rows.append(row)
            fg_base.append(got[0])
            fg_bug.append(got[2])
    if np is None:
        rows = [row for row in range(n) if row not in fallback]
        return _compose_pure(population, columns, classes, rows,
                             fallback)

    data = _zero_columns(n, mitigations, np=np)
    rows = mix_rows + fg_rows
    if not rows:
        return _Composition(n, data, [], fallback)

    n_mix = len(mix_rows)
    idx = np.asarray(rows, dtype=np.intp)
    day_s = population.minutes * 60.0
    f_canon = active_seconds(CANONICAL["session_count"],
                             CANONICAL["session_s"], day_s) / day_s
    touches_canon = (f_canon * day_s) / CANONICAL["touch_interval_s"]

    sess_n = np.asarray(columns.session_count, dtype=np.int64)[idx]
    sess_s = np.asarray(columns.session_s, dtype=np.float64)[idx]
    touch_s = np.asarray(columns.touch_interval_s,
                         dtype=np.float64)[idx]
    # active_seconds, vectorised with the scalar loop's exact masked
    # step updates (the early-break becomes a dead lane).
    t = np.zeros(len(rows))
    active = np.zeros(len(rows))
    for step in range(int(sess_n.max())):
        live = (step < sess_n) & (t < day_s)
        active = np.where(live,
                          active + np.minimum(sess_s, day_s - t),
                          active)
        t = np.where(live, t + 2.0 * sess_s, t)
    f_dev = active / day_s
    scale = (f_dev / f_canon) if f_canon > 0 \
        else np.zeros(len(rows))
    touches_dev = (f_dev * day_s) / touch_s
    touch_ratio = (touches_dev / touches_canon) if touches_canon > 0 \
        else np.zeros(len(rows))
    jitter = _jitter_factors(columns, rows, np=np)

    banks = {"base": classes.base.arrays(np),
             "normal": classes.normal.arrays(np),
             "mixed": classes.mixed.arrays(np),
             "fg": classes.fg.arrays(np)}
    # Mixed rows come first in ``rows``, so per-group views are plain
    # contiguous slices; the touch rotation split is shared by every
    # mitigation.
    groups = []
    if mix_rows:
        rotation = np.asarray(mix_nnorm, dtype=np.float64)
        geoms = (_slot_geometry(np, mix_norm),
                 _slot_geometry(np, mix_bug))
        groups.append((True, mix_base, mix_norm, mix_bug,
                       slice(0, n_mix),
                       np.asarray(mix_rows, dtype=np.intp),
                       touch_ratio[:n_mix] / rotation, geoms))
    if fg_rows:
        geoms = (None, _slot_geometry(np, fg_bug))
        groups.append((False, fg_base, None, fg_bug,
                       slice(n_mix, None),
                       np.asarray(fg_rows, dtype=np.intp), None,
                       geoms))
    nonfinite = set()
    for mi, m in enumerate(mitigations):
        for (is_mixed, g_base, g_norm, g_bug, sl, dest, tr,
             geoms) in groups:
            base_idx = np.asarray([ids[mi] for ids in g_base],
                                  dtype=np.intp)
            nmat = None
            if is_mixed:
                nmat = _fill_matrix(
                    np, [t[mi] for dev in g_norm for t in dev],
                    len(g_base), geoms[0])
            bmat = _fill_matrix(
                np, [t[mi] for dev in g_bug for t in dev],
                len(g_base), geoms[1])
            out = _eval_group(
                np, banks, is_mixed, base_idx, nmat, bmat,
                scale=scale[sl], tr=tr, jitter=jitter[sl],
                geoms=geoms)
            bad = ~((out["system_power_mw"] > 0.0)
                    & (out["system_power_mw"] < np.inf))
            if bad.any():
                nonfinite.update(
                    int(r) for r in dest[np.nonzero(bad)[0]])
            for metric, values in out.items():
                data[m][metric][dest] = values
    for row in sorted(nonfinite):
        fallback[row] = "non-finite-composition"
    vector_rows = sorted(row for row in rows if row not in nonfinite)
    return _Composition(n, data, vector_rows, fallback)


def _eval_group(np, banks, is_mixed, base_idx, nmat, bmat, scale, tr,
                jitter, geoms):
    """One device group under one mitigation, fully columnar.

    ``base_idx``/``nmat``/``bmat`` are this mitigation's base-id
    vector and -1-padded slot-id matrices (built by the caller from
    the shared :func:`_slot_geometry` pair in ``geoms``); ``tr`` is
    the rotation-divided touch ratio (mixed groups only); returns
    ``{metric: array}``. Every expression mirrors the corresponding
    ``fast_summary`` line -- see the inline references. Padded slot
    lanes multiply by a zero/one mask instead of ``np.where``: every
    padded operand is finite and the running sums start at +0.0, so
    the masked contribution is exactly +0.0 either way.
    """
    base = banks["base"]
    m = base_idx.shape[0]
    p_idle = base["p_idle"][base_idx]
    p_active = base["p_active"][base_idx]
    capacity = base["capacity"][base_idx]

    # system = p_idle + max(p_active - p_idle, 0) * session_scale
    system = p_idle + np.maximum(p_active - p_idle, 0.0) * scale
    buggy_power = np.zeros(m)
    ints = {name: np.zeros(m, dtype=np.int64)
            for name in _INT_METRICS}
    nsum = [np.zeros(m) for __ in RAIL_ORDER]
    bsum = [np.zeros(m) for __ in RAIL_ORDER]
    umax = [np.zeros(m) for __ in RAIL_ORDER]

    if is_mixed:
        NB = banks["normal"]
        MB = banks["mixed"]
        awake_sess = base["aw_idle"][base_idx] \
            + (base["aw_active"][base_idx]
               - base["aw_idle"][base_idx]) * scale
        nwidth = geoms[0][0]
        bwidth = geoms[1][0]
        # Normal slots evaluate as one (devices x slots) block: a
        # single fancy-indexed gather per table constant, elementwise
        # 2-D arithmetic (the same per-element op sequence as the
        # per-column version -- broadcasting does not reorder ops),
        # then sequential column accumulation so the running sums add
        # slots in exactly the scalar app order.
        nvalid = nmat >= 0
        ngi = np.maximum(nmat, 0)
        scale_c = scale[:, None]
        bg_idle = NB["bg_idle"][ngi]
        background = bg_idle \
            + (NB["bg_active"][ngi] - bg_idle) * scale_c
        contrib = (np.maximum(background, 0.0)
                   + NB["touch"][ngi] * tr[:, None]) * nvalid
        ex_lo = NB["ex_lo"][ngi]
        ex = ex_lo + (NB["ex_hi"][ngi] - ex_lo) * scale_c
        exm = np.where(nvalid, ex, 0.0)
        excess_cols = [exm[:, s] for s in range(nwidth)]
        for s in range(nwidth):
            system = system + contrib[:, s]
        for r in range(len(RAIL_ORDER)):
            v = (NB["sh_lo"][r][ngi]
                 + NB["sh_d"][r][ngi] * scale_c)
            v = np.where(v > 0.0, v, 0.0) * nvalid
            for s in range(nwidth):
                nsum[r] = nsum[r] + v[:, s]
                umax[r] = np.maximum(umax[r], v[:, s])
        for name in _NORMAL_INTS:
            block = NB[name][ngi] * nvalid
            for s in range(nwidth):
                ints[name] = ints[name] + block[:, s]
        if bwidth:
            bvalid = bmat >= 0
            bgi = np.maximum(bmat, 0)
            ex_lo = MB["ex_lo"][bgi]
            ex = ex_lo + (MB["ex_hi"][bgi] - ex_lo) * scale_c
            exm = np.where(bvalid, ex, 0.0)
            excess_cols.extend(exm[:, s] for s in range(bwidth))
            for name in _BUGGY_INTS:
                block = MB[name][bgi] * bvalid
                for s in range(bwidth):
                    ints[name] = ints[name] + block[:, s]
        # asleep = (1 - clamp(awake_sess)) * prod(1 - clamp(excess of
        # every *other* app); padded columns multiply by exactly 1.0.
        # The clamped factors are loop-invariant, so they are built
        # once and reused by every buggy slot's product.
        asleep_base = 1.0 - np.minimum(np.maximum(awake_sess, 0.0),
                                       1.0)
        factors = [1.0 - np.minimum(np.maximum(ex, 0.0), 1.0)
                   for ex in excess_cols]
        for s in range(bwidth):
            col = bmat[:, s]
            valid = col >= 0
            gi = np.maximum(col, 0)
            asleep = asleep_base
            for c, factor in enumerate(factors):
                if c == nwidth + s:
                    continue
                asleep = asleep * factor
            target = 1.0 - asleep
            a0 = MB["a0"][gi]
            a1 = MB["a1"][gi]
            a2 = MB["a2"][gi]
            span1 = a1 - a0
            span2 = a2 - a1
            u1 = np.where(span1 > 1e-9,
                          (target - a0)
                          / np.where(span1 > 1e-9, span1, 1.0), 1.0)
            u2 = np.where(span2 > 1e-9,
                          (target - a1)
                          / np.where(span2 > 1e-9, span2, 1.0), 1.0)
            s0 = MB["s0"][gi]
            s1 = MB["s1"][gi]
            s2 = MB["s2"][gi]
            pw_sys = np.where(
                target <= a0, s0,
                np.where(target <= a1, s0 + (s1 - s0) * u1,
                         np.where(target <= a2, s1 + (s2 - s1) * u2,
                                  s2)))
            b0 = MB["b0"][gi]
            b1 = MB["b1"][gi]
            b2 = MB["b2"][gi]
            pw_bug = np.where(
                target <= a0, b0,
                np.where(target <= a1, b0 + (b1 - b0) * u1,
                         np.where(target <= a2, b1 + (b2 - b1) * u2,
                                  b2)))
            flat = MB["flat"][gi] != 0
            f_s_lo = MB["f_s_lo"][gi]
            f_sys = f_s_lo + (MB["f_s_hi"][gi] - f_s_lo) * scale
            f_b_lo = MB["f_b_lo"][gi]
            f_bug = f_b_lo + (MB["f_b_hi"][gi] - f_b_lo) * scale
            sys_add = np.where(flat, f_sys, pw_sys)
            bug_add = np.where(flat, f_bug, pw_bug)
            system = system + np.maximum(sys_add, 0.0) * valid
            buggy_power = buggy_power \
                + np.maximum(bug_add, 0.0) * valid
            for r in range(len(RAIL_ORDER)):
                p0 = MB["p0"][r][gi]
                p1 = MB["p1"][r][gi]
                p2 = MB["p2"][r][gi]
                v01 = p0 + (p1 - p0) * u1
                v01 = np.where(v01 > 0.0, v01, 0.0)
                v12 = p1 + (p2 - p1) * u2
                v12 = np.where(v12 > 0.0, v12, 0.0)
                pw_sh = np.where(
                    target <= a0, p0,
                    np.where(target <= a1, v01,
                             np.where(target <= a2, v12, p2)))
                f_sh = MB["f_sh_lo"][r][gi] \
                    + MB["f_sh_d"][r][gi] * scale
                f_sh = np.where(f_sh > 0.0, f_sh, 0.0)
                sh = np.where(flat, f_sh, pw_sh) * valid
                bsum[r] = bsum[r] + sh
                umax[r] = np.maximum(umax[r], sh)
    else:
        FB = banks["fg"]
        bwidth = geoms[1][0]
        for s in range(bwidth):
            col = bmat[:, s]
            valid = col >= 0
            gi = np.maximum(col, 0)
            system = system + FB["sys_add"][gi] * valid
            buggy_power = buggy_power + FB["bug"][gi] * valid
            for r in range(len(RAIL_ORDER)):
                v = FB["sh"][r][gi] * valid
                bsum[r] = bsum[r] + v
                umax[r] = np.maximum(umax[r], v)
            for name in _BUGGY_INTS:
                ints[name] = ints[name] + FB[name][gi] * valid

    # Shared-rail union correction, sorted rail order (the same order
    # _shared_overlap accumulates in).
    system_cut = np.zeros(m)
    buggy_cut = np.zeros(m)
    for r in range(len(RAIL_ORDER)):
        total = nsum[r] + bsum[r]
        over = total > umax[r]
        system_cut = system_cut \
            + np.where(over, total - umax[r], 0.0)
        denom = np.where(over, total, 1.0)
        cut = bsum[r] - umax[r] * (bsum[r] / denom)
        buggy_cut = buggy_cut \
            + np.where(over & (bsum[r] > 0.0), cut, 0.0)
    system = np.maximum(system - system_cut, 0.0)
    buggy_power = np.maximum(buggy_power - buggy_cut, 0.0)
    system = system * jitter
    buggy_power = buggy_power * jitter
    safe = np.where(system > 0.0, system, 1.0)
    battery = np.where(
        system <= 0.0, MAX_BATTERY_LIFE_H,
        np.minimum((capacity / safe) / 3600.0, MAX_BATTERY_LIFE_H))
    out = {"system_power_mw": system, "buggy_power_mw": buggy_power,
           "battery_life_h": battery}
    out.update(ints)
    return out


def _compose_pure(population, columns, classes, rows, fallback):
    """Numpy-absent composition: per-device ``fast_summary`` over the
    shared class cache. Bitwise-identical numbers, scalar speed."""
    n = len(columns)
    mitigations = classes.mitigations
    data = _zero_columns(n, mitigations)
    table = classes.table
    vector_rows = []
    for row in rows:
        device = columns.spec(row, population)
        summaries = {}
        for m in mitigations:
            summary = fast_summary(device, m, table,
                                   population.minutes)
            if summary is None:
                summaries = None
                break
            summaries[m] = summary
        if summaries is None:
            fallback[row] = "non-finite-composition"
            continue
        vector_rows.append(row)
        for m, summary in summaries.items():
            for metric in _FLOAT_METRICS + _INT_METRICS:
                data[m][metric][row] = summary[metric]
    return _Composition(n, data, vector_rows, fallback)


# -- shard replay --------------------------------------------------------------

#: ``{table: {mitigations: _ShardClasses}}``: a process that replays
#: many shards of one table resolves each class once. Weak, so the
#: resolvers live as long as their table.
_CLASSES = weakref.WeakKeyDictionary()


def _shard_classes(table, mitigations):
    """The resolver this process keeps for ``table`` and
    ``mitigations``. Bank ids then depend on which shards came first,
    but composition gathers values by id, so no number does."""
    resolvers = _CLASSES.setdefault(table, {})
    classes = resolvers.get(mitigations)
    if classes is None:
        classes = resolvers[mitigations] = _ShardClasses(table,
                                                         mitigations)
    return classes


def replay_shard_vector(population, start, stop, table, telemetry=None):
    """Columnar replay of devices [start, stop); kernel fallback per
    device. Returns ``({mitigation: FleetStats}, crashes)``.

    Rows the table cannot compose run on the kernel through
    :func:`repro.fleet.shard.simulate_rows`, the kernel shard's own
    loop, which overwrites their zero-filled columns and returns the
    crash records and invariant violations (composed rows have
    neither). The shard folds through
    :func:`repro.fleet.shard.fold_shard`, the kernel path's fold, one
    batch per metric, plus three engine counters per mitigation:
    ``fastpath_devices`` (every device), ``fastpath_fallbacks``
    (devices rerouted to the kernel) and ``vector_devices`` (devices
    composed from the table). ``telemetry`` is the shard's
    :class:`~repro.telemetry.emit.ShardTelemetry` (or None): the
    kernel loop observes each rerouted device as it finishes, and the
    composed rows follow in one batch per mitigation.
    """
    np = _numpy()
    mitigations = population.mitigations
    columns = population.sample_columns(start, stop)
    classes = _shard_classes(table, mitigations)
    comp = compose_shard(population, columns, classes, np=np)
    crashes, invariants = simulate_rows(population, columns, comp.fallback,
                                        comp.data, telemetry)

    n_fallback = len(comp.fallback)
    n_vector = len(comp.vector_rows)
    stats = {m: FleetStats() for m in mitigations}
    fold_shard(stats, comp.data, columns.normal_apps, columns.buggy_apps,
               invariants)
    for m in mitigations:
        fold = stats[m]
        fold.count("fastpath_devices", comp.n)
        if n_fallback:
            fold.count("fastpath_fallbacks", n_fallback)
        fold.count("vector_devices", n_vector)
    if telemetry is not None and n_vector:
        for m in mitigations:
            power = comp.data[m]["system_power_mw"]
            telemetry.observe_batch(
                [power[row] for row in comp.vector_rows]
                if n_fallback else power)
        telemetry.device_done(n_vector)
    return stats, crashes
