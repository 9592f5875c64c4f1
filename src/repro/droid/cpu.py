"""CPU power and time accounting.

The CPU has a base rail (deep sleep vs awake-idle; awake power is
attributed to the wakelock holders keeping it awake, or to the system
when the user keeps the screen on) and one ``cpu_active:<uid>`` rail per
app currently computing. Per-uid CPU seconds are accumulated so the
utilization metric (CPU usage / wakelock hold time, Section 2.3) can be
computed per lease term.
"""

from collections import defaultdict

from repro.io import left_sum


class CpuPowerModel:
    """Asserts the CPU rails from suspend state, wakelocks and compute load.

    A state change re-asserts only the rails it can change. Awake, a
    change of awake owners moves only the base rail and, without DVFS,
    a change of one uid's load only that uid's ``cpu_active`` rail.
    Every other rail already holds the draw a full :meth:`_recompute`
    would assert, so the applied ``set_rail`` calls (and with them the
    settle points and listener calls) are exactly the full recompute's.
    Asleep, and under DVFS (whose scale follows the total load), a load
    change recomputes every rail.
    """

    BASE_RAIL = "cpu_base"

    def __init__(self, sim, monitor, profile, dvfs=None):
        self.sim = sim
        self.monitor = monitor
        self.profile = profile
        #: Optional DvfsGovernor (paper §8): when set, active-CPU power
        #: scales with the operating point the current load selects.
        self.dvfs = dvfs
        self.suspended = False
        self._awake_owner_uids = ()
        self._computing = defaultdict(float)  # uid -> cores in use
        #: The uids computing now (cores > 0) -> min(cores, cpu_cores),
        #: the cores their CPU time accrues at.
        self._running = {}
        self._cpu_time = defaultdict(float)  # uid -> accumulated active s
        self._active_rails = {}  # uid -> ("cpu_active:<uid>", (uid,))
        self._last_settle = sim.now
        self._recompute()

    # -- time accounting -----------------------------------------------------

    def _settle_times(self):
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed > 0 and not self.suspended:
            cpu_time = self._cpu_time
            for uid, effective in self._running.items():
                cpu_time[uid] += elapsed * effective
        self._last_settle = now

    def cpu_time(self, uid):
        """Accumulated busy CPU seconds for ``uid`` (core-seconds)."""
        self._settle_times()
        return self._cpu_time.get(uid, 0.0)

    def cpu_energy_mj(self, uid):
        """Accumulated active-CPU energy attributed to ``uid`` in mJ.

        Under DVFS this diverges from ``cpu_time * cpu_active_mw``; the
        DVFS-aware utilization metric (§8) is built on this.
        """
        self.monitor.settle()
        return self.monitor.ledger.app_rail_mj(
            uid, "cpu_active:{}".format(uid)
        )

    def current_power_scale(self):
        """The active-power multiplier at the current load (1.0 w/o DVFS)."""
        if self.dvfs is None:
            return 1.0
        load = min(1.0, left_sum(self._computing.values())
                   / self.profile.cpu_cores)
        return self.dvfs.power_scale_for_load(load)

    # -- state changes ---------------------------------------------------------

    def set_suspended(self, suspended):
        if suspended == self.suspended:
            return
        self._settle_times()
        self.suspended = suspended
        self._recompute()

    def set_awake_owners(self, uids):
        """Attribute awake-idle power to these uids (wakelock holders)."""
        self._awake_owner_uids = tuple(uids)
        if self.suspended:
            self._recompute()
        else:
            self._set_base_rail()

    def begin_compute(self, uid, cores=1.0):
        self._settle_times()
        self._set_load(uid, self._computing[uid] + cores)

    def end_compute(self, uid, cores=1.0):
        self._settle_times()
        self._set_load(uid, max(0.0, self._computing[uid] - cores))

    # -- rails --------------------------------------------------------------

    def _set_load(self, uid, cores):
        self._computing[uid] = cores
        effective = min(cores, self.profile.cpu_cores)
        if cores > 0:
            self._running[uid] = effective
        else:
            self._running.pop(uid, None)
        if self.suspended or self.dvfs is not None:
            self._recompute()
        else:
            # Awake without DVFS only this uid's rail moves, at scale 1.
            rail, owners = self._active_rails.get(uid) \
                or self._active_rail(uid)
            self.monitor.set_rail(
                rail, self.profile.cpu_active_mw * effective, owners)

    def _recompute(self):
        """Re-assert every CPU rail."""
        if self.suspended:
            self.monitor.set_rail(self.BASE_RAIL, self.profile.cpu_sleep_mw, ())
            for uid in self._computing:
                self.monitor.set_rail(self._active_rail(uid)[0], 0.0, ())
            return
        self._set_base_rail()
        scale = self.current_power_scale()
        for uid in self._computing:
            self._set_active_rail(uid, scale)

    def _set_base_rail(self):
        self.monitor.set_rail(self.BASE_RAIL, self.profile.cpu_awake_idle_mw,
                              self._awake_owner_uids)

    def _set_active_rail(self, uid, scale):
        rail, owners = self._active_rail(uid)
        effective = min(self._computing[uid], self.profile.cpu_cores)
        self.monitor.set_rail(
            rail, self.profile.cpu_active_mw * effective * scale, owners)

    def _active_rail(self, uid):
        """``uid``'s active rail name and owner tuple, built once."""
        entry = self._active_rails.get(uid)
        if entry is None:
            entry = self._active_rails[uid] = (
                "cpu_active:{}".format(uid), (uid,))
        return entry
