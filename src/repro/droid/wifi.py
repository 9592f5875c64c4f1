"""WifiService: high-performance Wi-Fi locks.

A held Wi-Fi lock keeps the radio out of power-save (a small constant
draw); the ConnectBot Wi-Fi case in Table 5 holds one regardless of
whether the active network is even Wi-Fi. Utilization for a Wi-Fi lock is
the fraction of hold time the app actually spends transferring.
"""

from repro.droid.resources import (
    KernelObject,
    KernelObjectService,
    ResourceType,
)


class WifiLockRecord(KernelObject):
    def __init__(self, sim, uid, name):
        super().__init__(sim, uid, ResourceType.WIFI, name)
        self.transfer_time = 0.0  # seconds transferring while held


class WifiLock:
    """App-side descriptor, mirroring ``WifiManager.WifiLock``."""

    def __init__(self, service, record, app):
        self._service = service
        self._record = record
        self._app = app
        self._held = False

    def acquire(self):
        self._app.ipc("wifi", "acquireLock")
        if not self._held:
            self._held = True
            self._service.acquire(self._record)

    def release(self):
        if not self._held:
            raise RuntimeError("wifi lock released while not held")
        self._app.ipc("wifi", "releaseLock")
        self._held = False
        self._service.release(self._record)

    @property
    def held(self):
        return self._held


class WifiService(KernelObjectService):
    name = "wifi"
    kind = "wifilock"

    RAIL = "wifi_lock"

    def __init__(self, sim, monitor, profile, env):
        super().__init__(sim)
        self.monitor = monitor
        self.profile = profile
        self.env = env

    def new_lock(self, app, name="wifilock"):
        app.ipc("wifi", "createWifiLock")
        record = self._register(WifiLockRecord(self.sim, app.uid, name))
        return WifiLock(self, record, app)

    def acquire(self, record):
        self._admit(record, "on_wifilock_acquire")

    def release(self, record):
        self._release(record, "on_wifilock_release")

    def note_transfer(self, uid, duration):
        """Connectivity credits transfer time to the uid's held locks."""
        for record in self._honoured:
            if record.uid == uid:
                record.transfer_time += duration

    def _activate(self, record):
        if record.os_active:
            return
        self._mark_honoured(record, True)
        self._refresh_rail()

    def _deactivate(self, record):
        if not record.os_active:
            return
        self._mark_honoured(record, False)
        self._refresh_rail()

    def _refresh_rail(self):
        owners = tuple(sorted({r.uid for r in self._honoured}))
        power = self.profile.wifi_lock_mw if owners else 0.0
        self.monitor.set_rail(self.RAIL, power, owners)
