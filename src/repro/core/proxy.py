"""Lease proxies: light-weight delegates inside each OS subsystem (§4.4).

A proxy lives in the same address space as its host service, maintains
the kernel-object <-> lease mapping, interposes on acquires through the
service's gate hook, reports events to the lease manager, and executes
the manager's ``onExpire`` / ``onRenew`` callbacks by directly mutating
the kernel objects (revoke/restore) -- never the app-side descriptors.

The common logic lives in :class:`LeaseProxy`; enabling leases for a new
resource type is a small subclass that states the seconds its resource
was used and the events it notes (the paper reports ~200 lines per
service; here it is comparable in spirit).
"""

from repro.core.lease import LeaseState
from repro.droid.resources import ResourceType


class LeaseProxy:
    """Generic proxy: mapping, gating, snapshots, revoke/restore.

    The service's lifecycle handlers are bound under its event stem
    ``kind``: ``on_<kind>_created`` leases the new kernel object and
    ``on_<kind>_dead`` drops its lease; each event in :attr:`noted` is
    noted from ``on_<kind>_<event>``. A term's utilization is the used
    share of its honoured time (§3.3): a subclass names the counter of
    used seconds (:attr:`used_counter`) or computes them
    (:meth:`_used_time`).
    """

    #: Events the manager is told of (Table 3 ``noteEvent``).
    noted = ()
    #: The counter of seconds the resource was used.
    used_counter = None

    def __init__(self, manager, service):
        self.manager = manager
        self.service = service
        self._lease_by_record = {}
        stem = "on_" + service.kind
        setattr(self, stem + "_created", self._ensure_lease)
        setattr(self, stem + "_dead", self._remove_lease)
        for event in self.noted:
            setattr(self, "{}_{}".format(stem, event), self._noter(event))
        service.listeners.append(self)
        service.gates.append(self.gate)
        manager.register_proxy(self)

    # -- mapping -------------------------------------------------------------

    def lease_for(self, record):
        return self._lease_by_record.get(record)

    def _ensure_lease(self, record):
        lease = self._lease_by_record.get(record)
        if lease is None:
            lease = self.manager.create(record.rtype, record.uid, record,
                                        self)
            self._lease_by_record[record] = lease
        return lease

    def _remove_lease(self, record):
        lease = self._lease_by_record.pop(record, None)
        if lease is not None:
            self.manager.remove(lease.descriptor)

    def forget(self, lease):
        """Drop the mapping only (manager-side GC removes the lease).

        If the kernel object is touched again a fresh lease is created
        through the gate path, so GC is invisible to apps.
        """
        self._lease_by_record.pop(lease.record, None)

    def _note(self, record, event):
        """Report a resource event to the manager (Table 3 noteEvent)."""
        lease = self.lease_for(record)
        if lease is not None and not lease.dead:
            self.manager.note_event(lease.descriptor, event)

    def _noter(self, event):
        """A service event handler that notes ``event``."""
        return lambda record, *verdict: self._note(record, event)

    # -- gate: interpose on acquires -----------------------------------------

    def gate(self, record):
        """Return False to make the service pretend-succeed the acquire."""
        lease = self._lease_by_record.get(record)
        if lease is None:
            if not record.dead:
                # First touch, or the old lease was GC-swept: lease it.
                self._ensure_lease(record)
            return True
        if lease.dead:
            return True
        if lease.state is LeaseState.DEFERRED:
            # Within τ the OS pretends success (§4.6).
            self.manager.check(lease.descriptor)
            return False
        if lease.state is LeaseState.INACTIVE:
            # Use with an expired lease requires manager approval (§3.2).
            return self.manager.renew(lease.descriptor)
        return True

    # -- manager callbacks -----------------------------------------------------

    def is_held(self, lease):
        return lease.record.app_held and not lease.record.dead

    def on_expire(self, lease):
        """Term deferred: temporarily revoke the kernel resource."""
        self.service.revoke(lease.record)

    def on_renew(self, lease):
        """Deferral over: restore the kernel resource if still held."""
        self.service.restore(lease.record)

    # -- per-term stats ----------------------------------------------------------

    def refresh_snapshot(self, lease):
        lease._stat_snapshot = self._current_counters(lease)

    def term_stats(self, lease):
        """Delta stats since the last snapshot; advances the snapshot."""
        current = self._current_counters(lease)
        previous = lease._stat_snapshot or {}
        delta = {
            key: current[key] - previous.get(key, 0.0)
            for key in current
            if isinstance(current[key], (int, float))
        }
        lease._stat_snapshot = current
        return self._derive_metrics(lease, delta)

    def _current_counters(self, lease):
        return lease.record.counters()

    def _derive_metrics(self, lease, delta):
        """Turn counter deltas into metric ingredients."""
        active = delta.get("active_time", 0.0)
        used = self._used_time(lease, delta)
        return {
            "held_time": delta.get("held_time", 0.0),
            "active_time": active,
            "ask_time": 0.0,
            "success_ratio": 1.0,
            "utilization": min(1.0, used / active) if active > 0 else 1.0,
        }

    def _used_time(self, lease, delta):
        return delta.get(self.used_counter, 0.0)


class WakelockLeaseProxy(LeaseProxy):
    """Proxy inside the PowerManagerService (wakelocks + screen locks)."""

    noted = ("acquire", "release")

    #: Seconds of interaction credit granted per user touch when
    #: computing screen utilization.
    INTERACTION_CREDIT_S = 30.0
    #: Seconds of credit per UI update while a screen lock is honoured:
    #: a display showing live content (navigation, a match score) is
    #: being *used* even if nobody touches it.
    UI_UPDATE_CREDIT_S = 5.0

    def _current_counters(self, lease):
        phone = self.manager.phone
        counters = lease.record.counters()
        counters["cpu_time"] = phone.cpu.cpu_time(lease.uid)
        counters["cpu_energy_mj"] = phone.cpu.cpu_energy_mj(lease.uid)
        counters["interactions"] = lease.record.interactions
        app = phone.apps.get(lease.uid)
        counters["ui_updates_total"] = (
            len(app.ui_update_times) if app is not None else 0
        )
        return counters

    def _used_time(self, lease, delta):
        if lease.rtype is ResourceType.SCREEN:
            return (delta.get("interactions", 0) * self.INTERACTION_CREDIT_S
                    + delta.get("ui_updates_total", 0)
                    * self.UI_UPDATE_CREDIT_S)
        phone = self.manager.phone
        if self.manager.policy.dvfs_aware and phone.cpu.dvfs is not None:
            # §8: energy-normalized CPU seconds (device state factor).
            return delta.get("cpu_energy_mj", 0.0) / phone.profile.cpu_active_mw
        return delta.get("cpu_time", 0.0)


class ListenerLeaseProxy(LeaseProxy):
    """Proxy inside a listener service: sensors, Bluetooth and GPS.

    A listener lease's utilization is its consumer's activity (§3.3):
    the share of the term's honoured time the bound consumer was active.
    The app's release is noted under the service's ``release_event``.
    """

    used_counter = "consumer_active_time"

    def __init__(self, manager, service):
        super().__init__(manager, service)
        setattr(self, service.release_event, self._noter("release"))

    def _current_counters(self, lease):
        # Consumer (and GPS search/locked) time is folded in on service
        # events only; settle the service at term boundaries.
        self.service.settle_stats()
        return lease.record.counters()

    def _derive_metrics(self, lease, delta):
        metrics = super()._derive_metrics(lease, delta)
        metrics["delivered"] = delta.get("delivered", 0)
        return metrics


class LocationLeaseProxy(ListenerLeaseProxy):
    """Proxy inside the LocationManagerService: GPS asks, and can fail."""

    def _derive_metrics(self, lease, delta):
        metrics = super()._derive_metrics(lease, delta)
        search = delta.get("search_time", 0.0)
        locked = delta.get("locked_time", 0.0)
        total_request = search + locked
        metrics["ask_time"] = search
        metrics["success_ratio"] = (
            locked / total_request if total_request > 0 else 1.0)
        metrics["distance_moved"] = delta.get("distance_moved", 0.0)
        return metrics


class WifiLeaseProxy(LeaseProxy):
    """Proxy inside the WifiService (high-perf locks)."""

    noted = ("acquire", "release")
    used_counter = "transfer_time"

    def _current_counters(self, lease):
        counters = lease.record.counters()
        counters["transfer_time"] = lease.record.transfer_time
        return counters


class AudioLeaseProxy(LeaseProxy):
    """Proxy inside the AudioService (sessions): closing a session ends
    it, so its lease goes too."""

    used_counter = "playback_time"

    def on_audio_close(self, record):
        self._remove_lease(record)

    def _current_counters(self, lease):
        record = lease.record
        record.settle_playback(record.sim.now)
        counters = record.counters()
        counters["playback_time"] = record.playback_time
        return counters
