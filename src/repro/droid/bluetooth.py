"""BluetoothService: scan sessions and connections.

Table 1 groups Bluetooth with sensors: it is listener-based (a scan
callback keeps firing once registered), cannot exhibit Frequent-Ask, and
its Long-Holding semantic is about the *consumer* of the scan results.
The classic bug class is a leaked discovery scan: discovery is the
expensive mode (~2-3x the connected draw), and apps forget to call
``cancel_discovery`` on some paths.
"""

import enum

from repro.droid.resources import (
    KernelObject,
    KernelObjectService,
    ResourceType,
)


class BluetoothMode(enum.Enum):
    OFF = "off"
    CONNECTED = "connected"  # maintaining a connection, duty-cycled
    DISCOVERY = "discovery"  # inquiry scan: the expensive mode


class BluetoothRecord(KernelObject):
    """One scan session or connection."""

    def __init__(self, sim, uid, mode, listener):
        super().__init__(sim, uid, ResourceType.BLUETOOTH, mode.value)
        self.mode = mode
        self.listener = listener
        self.results_delivered = 0
        self.consumer_active = True
        self.consumer_active_time = 0.0
        self._seg_since = None
        self._delivery_timer = None


class BluetoothSession:
    """App-side descriptor for a scan session / connection."""

    def __init__(self, service, record):
        self._service = service
        self.record = record

    def close(self):
        self._service.close(self)

    def set_consumer_active(self, active):
        self._service.set_consumer_active(self.record, active)


class BluetoothService(KernelObjectService):
    name = "bluetooth"
    kind = "bluetooth"

    #: Seconds between scan-result deliveries during discovery.
    DISCOVERY_RESULT_INTERVAL_S = 4.0
    #: Seconds between notification deliveries on a maintained
    #: connection (the paired device pushes data through it).
    CONNECTED_RESULT_INTERVAL_S = 3.0

    def __init__(self, sim, monitor, profile, rng):
        super().__init__(sim)
        self.monitor = monitor
        self.profile = profile
        self.rng = rng

    # -- app-facing API ------------------------------------------------------

    def start_discovery(self, app, listener):
        """Begin a device-discovery scan (the expensive mode)."""
        return self._open(app, BluetoothMode.DISCOVERY, listener)

    def connect(self, app, listener=None):
        """Maintain a connection to a paired device."""
        return self._open(app, BluetoothMode.CONNECTED,
                          listener or (lambda result: None))

    def _open(self, app, mode, listener):
        app.ipc("bluetooth", "open:{}".format(mode.value))
        record = BluetoothRecord(self.sim, app.uid, mode, listener)
        self.records.append(record)
        self._notify("on_bluetooth_created", record)
        self._admit(record, "on_bluetooth_open")
        return BluetoothSession(self, record)

    def close(self, session):
        self._release(session.record, "on_bluetooth_close")

    def set_consumer_active(self, record, active):
        self._settle(record)
        record.consumer_active = active

    def settle_stats(self):
        for record in self.records:
            if record in self._honoured:
                self._settle(record)
            record.settle()

    # -- internals ----------------------------------------------------------

    def _rail_name(self, record):
        return "bluetooth:{}".format(record.token.id)

    def _power_for(self, record):
        if record.mode is BluetoothMode.DISCOVERY:
            return self.profile.bluetooth_discovery_mw
        return self.profile.bluetooth_connected_mw

    def _activate(self, record):
        if record.os_active:
            return
        self._mark_honoured(record, True)
        record._seg_since = self.sim.now
        self.monitor.set_rail(self._rail_name(record),
                              self._power_for(record), (record.uid,))
        self._schedule_delivery(record)

    def _deactivate(self, record):
        if not record.os_active:
            return
        self._settle(record)
        self._mark_honoured(record, False)
        record._seg_since = None
        if record._delivery_timer is not None:
            record._delivery_timer.cancel()
            record._delivery_timer = None
        self.monitor.set_rail(self._rail_name(record), 0.0, ())

    def _schedule_delivery(self, record):
        interval = (self.DISCOVERY_RESULT_INTERVAL_S
                    if record.mode is BluetoothMode.DISCOVERY
                    else self.CONNECTED_RESULT_INTERVAL_S)
        record._delivery_timer = self.sim.schedule(
            interval, lambda: self._deliver(record)
        )

    def _deliver(self, record):
        if record not in self._honoured:
            return
        self._settle(record)
        record.results_delivered += 1
        record.listener(("device", self.rng.randrange(2 ** 16)))
        self._notify("on_bluetooth_result", record)
        self._schedule_delivery(record)

    def _settle(self, record):
        now = self.sim.now
        if record._seg_since is None:
            return
        elapsed = now - record._seg_since
        if elapsed > 0 and record.consumer_active:
            record.consumer_active_time += elapsed
        record._seg_since = now
