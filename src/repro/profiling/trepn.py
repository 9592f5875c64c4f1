"""Trepn-like per-app profiler: samples a metric vector every interval.

Reproduces the §2.1 methodology: "a profiling tool that samples a vector
of per-app metrics every 60s, e.g., wakelock time, CPU usage". Each
sample row holds the *delta* over the past interval, which is what the
Figs. 1-4 plots show per one-minute measurement interval.

Snapshot cost is kept off the record population: the sampler maintains
per-uid record indices (fed by the services' ``on_*_created``
notifications, preserving creation order so float summation order -- and
therefore every golden figure -- is unchanged) and settles only the
records it actually reads, instead of walking and settling every record
of every app on each sample.
"""

from dataclasses import dataclass

from repro.droid.resources import ResourceType


@dataclass
class AppSample:
    """One per-app sample: deltas over the past interval."""

    time: float
    uid: int
    wakelock_time: float  # honoured partial-wakelock seconds
    screen_time: float  # honoured screen-lock seconds
    cpu_time: float  # busy core-seconds
    gps_search_time: float  # "GPS try duration" (Fig. 1's metric)
    gps_locked_time: float
    gps_fixes: int
    sensor_events: int
    power_mw: float  # average attributed draw over the interval

    @property
    def cpu_over_wakelock(self):
        """The Fig. 3/4 ratio; can exceed 1 with multi-core spinning."""
        if self.wakelock_time <= 0:
            return 0.0
        return self.cpu_time / self.wakelock_time


class TrepnSampler:
    """Samples one or more apps every ``interval_s`` simulated seconds."""

    def __init__(self, phone, uids, interval_s=60.0):
        self.phone = phone
        self.uids = list(uids)
        self.interval_s = interval_s
        self.samples = {uid: [] for uid in self.uids}
        self._previous = {}
        self._timer = None
        self._tracked = set(self.uids)
        # Per-uid record indices, in creation order (matches the append
        # order of the services' ``records`` lists, so per-uid float sums
        # are bit-identical to a filtered full walk).
        self._power_records = {uid: [] for uid in self.uids}
        self._location_records = {uid: [] for uid in self.uids}
        self._sensor_records = {uid: [] for uid in self.uids}

    def start(self):
        phone = self.phone
        for record in phone.power.records:
            self.on_wakelock_created(record)
        for record in phone.location.records:
            self.on_location_created(record)
        for record in phone.sensors.records:
            self.on_sensor_created(record)
        phone.power.listeners.append(self)
        phone.location.listeners.append(self)
        phone.sensors.listeners.append(self)
        for uid in self.uids:
            self._previous[uid] = self._snapshot(uid)
        self._timer = phone.sim.every(self.interval_s, self._sample)
        return self

    def stop(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for service in (self.phone.power, self.phone.location,
                        self.phone.sensors):
            if self in service.listeners:
                service.listeners.remove(self)

    def rows(self, uid):
        return list(self.samples[uid])

    # -- service notifications (index maintenance) ------------------------------

    def on_wakelock_created(self, record):
        if record.uid in self._tracked:
            self._power_records[record.uid].append(record)

    def on_location_created(self, record):
        if record.uid in self._tracked:
            self._location_records[record.uid].append(record)

    def on_sensor_created(self, record):
        if record.uid in self._tracked:
            self._sensor_records[record.uid].append(record)

    # -- internals -------------------------------------------------------------

    def _snapshot(self, uid):
        phone = self.phone
        # Location settle has service-level side effects (distance
        # integration, rail-owner refresh) the metrics depend on; power
        # records only need their own counters folded, and sensor event
        # counts are maintained eagerly on delivery -- no settle at all.
        phone.location.settle_stats()
        phone.monitor.settle()
        wakelock = screen = 0.0
        for record in self._power_records[uid]:
            record.settle()
            if record.rtype is ResourceType.SCREEN:
                screen += record.active_time
            else:
                wakelock += record.active_time
        search = locked = 0.0
        fixes = 0
        for record in self._location_records[uid]:
            search += record.search_time
            locked += record.locked_time
            fixes += record.delivered
        events = sum(r.delivered for r in self._sensor_records[uid])
        return {
            "wakelock": wakelock,
            "screen": screen,
            "cpu": phone.cpu.cpu_time(uid),
            "search": search,
            "locked": locked,
            "fixes": fixes,
            "events": events,
            "energy": phone.monitor.ledger.app_total_mj(uid),
        }

    def _sample(self):
        now = self.phone.sim.now
        for uid in self.uids:
            current = self._snapshot(uid)
            previous = self._previous[uid]
            self._previous[uid] = current
            self.samples[uid].append(AppSample(
                time=now,
                uid=uid,
                wakelock_time=current["wakelock"] - previous["wakelock"],
                screen_time=current["screen"] - previous["screen"],
                cpu_time=current["cpu"] - previous["cpu"],
                gps_search_time=current["search"] - previous["search"],
                gps_locked_time=current["locked"] - previous["locked"],
                gps_fixes=current["fixes"] - previous["fixes"],
                sensor_events=current["events"] - previous["events"],
                power_mw=(current["energy"] - previous["energy"])
                / self.interval_s,
            ))
