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
    ListenerHandle,
    ListenerRecord,
    ListenerService,
    ResourceType,
)


class BluetoothMode(enum.Enum):
    OFF = "off"
    CONNECTED = "connected"  # maintaining a connection, duty-cycled
    DISCOVERY = "discovery"  # inquiry scan: the expensive mode


class BluetoothRecord(ListenerRecord):
    """One scan session or connection."""

    def __init__(self, sim, uid, mode, listener, interval):
        super().__init__(sim, uid, ResourceType.BLUETOOTH, mode.value,
                         listener, interval)
        self.mode = mode


class BluetoothSession(ListenerHandle):
    """App-side descriptor for a scan session / connection."""

    def close(self):
        self._service.close(self)


class BluetoothService(ListenerService):
    name = "bluetooth"
    kind = "bluetooth"
    release_event = "on_bluetooth_close"

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
        return self._open(app, BluetoothMode.DISCOVERY, listener,
                          self.DISCOVERY_RESULT_INTERVAL_S)

    def connect(self, app, listener=None):
        """Maintain a connection to a paired device."""
        return self._open(app, BluetoothMode.CONNECTED,
                          listener or (lambda result: None),
                          self.CONNECTED_RESULT_INTERVAL_S)

    def _open(self, app, mode, listener, interval):
        app.ipc("bluetooth", "open:{}".format(mode.value))
        record = self._register(BluetoothRecord(
            self.sim, app.uid, mode, listener, interval))
        self._admit(record, "on_bluetooth_open")
        return BluetoothSession(self, record)

    def close(self, session):
        self._release(session.record, self.release_event)

    # -- internals ----------------------------------------------------------

    def _refresh_rail(self, record):
        rail = "bluetooth:{}".format(record.token.id)
        if not record.os_active:
            self.monitor.set_rail(rail, 0.0, ())
        elif record.mode is BluetoothMode.DISCOVERY:
            self.monitor.set_rail(rail, self.profile.bluetooth_discovery_mw,
                                  (record.uid,))
        else:
            self.monitor.set_rail(rail, self.profile.bluetooth_connected_mw,
                                  (record.uid,))

    def _deliver(self, record):
        self._settle(record)
        record.delivered += 1
        record.listener(("device", self.rng.randrange(2 ** 16)))
        return True
