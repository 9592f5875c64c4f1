"""LocationManagerService: GPS requests, the fix state machine, delivery.

GPS is the one resource where *asking* itself burns power (Table 1: only
GPS can exhibit Frequent-Ask behaviour): while any honoured registration
exists and no fix is held, the receiver is SEARCHING at the highest draw.
Weak signal (``GpsEnvironment.lock_possible == False``) means the search
never succeeds -- the BetterWeather trigger (Fig. 1).

Listener callbacks are interrupt-driven: they fire even when the device
is otherwise suspended (the GPS chip wakes the app briefly), matching how
background location apps keep collecting without an explicit wakelock.
"""

import enum

from repro.droid.resources import (
    ListenerHandle,
    ListenerRecord,
    ListenerService,
    ResourceType,
)


class GpsState(enum.Enum):
    OFF = "off"
    SEARCHING = "searching"
    LOCKED = "locked"


class Location:
    """One delivered fix."""

    __slots__ = ("time", "distance_from_start")

    def __init__(self, time, distance_from_start):
        self.time = time
        self.distance_from_start = distance_from_start

    def __repr__(self):
        return "Location(t={:.1f}, d={:.1f}m)".format(
            self.time, self.distance_from_start
        )


class LocationRecord(ListenerRecord):
    """Kernel-side record of one location-updates registration."""

    def __init__(self, sim, uid, listener, interval):
        super().__init__(sim, uid, ResourceType.GPS, "location-updates",
                         listener, interval)
        # GPS-specific cumulative stats
        self.search_time = 0.0  # active time spent without a fix
        self.locked_time = 0.0  # active time with a fix held
        self.distance_moved = 0.0
        self._last_delivery_distance = None

    def counters(self):
        counters = super().counters()
        counters.update(
            search_time=self.search_time,
            locked_time=self.locked_time,
            distance_moved=self.distance_moved,
        )
        return counters


class LocationRegistration(ListenerHandle):
    """App-side descriptor for a registration."""

    def remove(self):
        self._service.remove_updates(self)


class LocationManagerService(ListenerService):
    name = "location"
    kind = "location"
    release_event = "on_location_removed"

    RAIL = "gps"
    #: While searching without lock possibility, retry cadence for
    #: counting failed fix attempts.
    SEARCH_RETRY_S = 10.0
    #: A receiver that held a fix this recently re-locks hot (ephemeris
    #: still valid), like real GPS hardware.
    WARM_FIX_WINDOW_S = 60.0
    WARM_TTFF_S = 0.8

    def __init__(self, sim, monitor, profile, env, rng):
        super().__init__(sim)
        self.monitor = monitor
        self.profile = profile
        self.env = env
        self.rng = rng
        self.state = GpsState.OFF
        self._fix_timer = None
        self._total_distance = 0.0
        self._distance_since = None
        self._last_locked_at = None

    # -- app-facing API -----------------------------------------------------

    def request_location_updates(self, app, listener, interval):
        app.ipc("location", "requestLocationUpdates")
        record = self._register(
            LocationRecord(self.sim, app.uid, listener, interval))
        self._admit(record, "on_location_request")
        return LocationRegistration(self, record)

    def remove_updates(self, registration):
        self._release(registration.record, self.release_event)

    # -- GPS state machine -------------------------------------------------------

    def _activate(self, record):
        if record.os_active:
            return
        self._settle_all()
        self._mark_honoured(record, True)
        record._seg_since = self.sim.now
        self._refresh_rail(record)
        if self.state is GpsState.LOCKED:
            record._last_delivery_distance = self._current_distance()
            self._schedule_delivery(record)

    def _deactivate(self, record):
        if not record.os_active:
            return
        self._settle_all()
        self._mark_honoured(record, False)
        record._seg_since = None
        self._cancel_delivery(record)
        self._refresh_rail(record)

    def _refresh_rail(self, record):
        """The engine and the rail's owners follow the honoured set."""
        self._update_engine()
        self._refresh_rail_owners()

    def _update_engine(self):
        if not self._honoured:
            self._set_state(GpsState.OFF)
            return
        if self.state is GpsState.OFF:
            self._set_state(GpsState.SEARCHING)
            self._begin_search()

    def _begin_search(self):
        if self._fix_timer is not None:
            self._fix_timer.cancel()
            self._fix_timer = None
        ttf = self.env.gps.time_to_fix(self.rng)
        if ttf is not None and self._last_locked_at is not None \
                and self.sim.now - self._last_locked_at \
                <= self.WARM_FIX_WINDOW_S:
            ttf = min(ttf, self.WARM_TTFF_S * (0.75 + 0.5 * self.rng.random()))
        if ttf is None:
            # No lock achievable; retry later (keeps burning search power).
            self._fix_timer = self.sim.schedule(
                self.SEARCH_RETRY_S, self._search_tick
            )
        else:
            self._fix_timer = self.sim.schedule(ttf, self._acquire_fix)

    def _search_tick(self):
        if self.state is not GpsState.SEARCHING:
            return
        self._begin_search()

    def _acquire_fix(self):
        if self.state is not GpsState.SEARCHING:
            return
        self._settle_all()
        self._set_state(GpsState.LOCKED)
        distance = self._current_distance()
        for record in self._honoured:
            record._last_delivery_distance = distance
            self._schedule_delivery(record)

    def _lose_fix(self):
        if self.state is not GpsState.LOCKED:
            return
        self._settle_all()
        for record in self._honoured:
            self._cancel_delivery(record)
        self._set_state(GpsState.SEARCHING)
        self._begin_search()

    def _deliver(self, record):
        if self.state is not GpsState.LOCKED:
            return False
        if not self.env.gps.lock_possible:
            self._lose_fix()
            return False
        # _settle_all without its owner refresh: the honoured set, and
        # with it the rail's owners, only change in _activate and
        # _deactivate, which refresh them.
        self._settle_records()
        distance = self._current_distance()
        moved = distance - (record._last_delivery_distance or 0.0)
        record._last_delivery_distance = distance
        record.delivered += 1
        record.distance_moved += max(0.0, moved)
        record.listener(Location(self.sim.now, distance))
        return True

    # -- accounting -----------------------------------------------------------

    def _set_state(self, state):
        if state == self.state:
            return
        self._settle_all()
        if self.state is GpsState.LOCKED:
            self._last_locked_at = self.sim.now
        self.state = state
        owners = tuple(sorted({r.uid for r in self._honoured}))
        if state is GpsState.OFF:
            self.monitor.set_rail(self.RAIL, 0.0, ())
        elif state is GpsState.SEARCHING:
            self.monitor.set_rail(self.RAIL, self.profile.gps_search_mw, owners)
            self._distance_since = None
        else:
            self.monitor.set_rail(self.RAIL, self.profile.gps_locked_mw, owners)
            self._distance_since = self.sim.now

    def _refresh_rail_owners(self):
        owners = tuple(sorted({r.uid for r in self._honoured}))
        power = self.monitor.rail_power(self.RAIL)
        self.monitor.set_rail(self.RAIL, power, owners)

    def _current_distance(self):
        self._settle_distance()
        return self._total_distance

    def _settle_distance(self):
        if self._distance_since is not None:
            elapsed = self.sim.now - self._distance_since
            self._total_distance += self.env.gps.distance_moved(elapsed)
            self._distance_since = self.sim.now

    def _settle(self, record):
        # The search/locked split of the honoured time, then the
        # consumer clock.
        since = record._seg_since
        if since is not None and self.sim.now > since:
            if self.state is GpsState.SEARCHING:
                record.search_time += self.sim.now - since
            elif self.state is GpsState.LOCKED:
                record.locked_time += self.sim.now - since
        super()._settle(record)

    def _settle_all(self):
        self._settle_records()
        self._refresh_rail_owners()

    def _settle_records(self):
        self._settle_distance()
        for record in self._honoured:
            self._settle(record)
