"""SensorService: listener registrations for physical sensors.

Sensors follow the listener semantics of GPS (Table 1, note *): once a
listener is registered the OS keeps invoking it, so "holding but not
using" means the *consumer* of the data (the bound Activity/overlay) is
gone or ignoring it, not that the physical resource idles. The
TapAndTurn and Riot cases (Table 5) are sensor apps that keep listeners
registered while producing no value for the user.
"""

import enum

from repro.droid.resources import (
    ListenerHandle,
    ListenerRecord,
    ListenerService,
    ResourceType,
)


class SensorType(enum.Enum):
    ACCELEROMETER = "accelerometer"
    ORIENTATION = "orientation"
    GYROSCOPE = "gyroscope"
    LIGHT = "light"
    PROXIMITY = "proximity"
    CAMERA_MOTION = "camera_motion"  # Haven-style monitoring


class SensorReading:
    __slots__ = ("time", "sensor_type", "value")

    def __init__(self, time, sensor_type, value):
        self.time = time
        self.sensor_type = sensor_type
        self.value = value


class SensorRecord(ListenerRecord):
    def __init__(self, sim, uid, sensor_type, listener, rate_hz, interval):
        super().__init__(sim, uid, ResourceType.SENSOR, sensor_type.value,
                         listener, interval)
        self.sensor_type = sensor_type
        self.rate_hz = rate_hz


class SensorRegistration(ListenerHandle):
    def unregister(self):
        self._service.unregister_listener(self)


class SensorManagerService(ListenerService):
    name = "sensors"
    kind = "sensor"
    release_event = "on_sensor_unregister"

    #: Sensor events are batched; we deliver at most this often to keep the
    #: event count tractable while preserving duty-cycle power accounting.
    MAX_DELIVERY_HZ = 1.0

    def __init__(self, sim, monitor, profile, rng):
        super().__init__(sim)
        self.monitor = monitor
        self.profile = profile
        self.rng = rng

    # -- app-facing API ------------------------------------------------------

    def register_listener(self, app, sensor_type, listener, rate_hz=5.0):
        app.ipc("sensors", "registerListener")
        record = self._register(SensorRecord(
            self.sim, app.uid, sensor_type, listener, rate_hz,
            1.0 / min(rate_hz, self.MAX_DELIVERY_HZ)))
        self._admit(record, "on_sensor_register")
        return SensorRegistration(self, record)

    def unregister_listener(self, registration):
        self._release(registration.record, self.release_event)

    # -- internals -----------------------------------------------------------

    def _refresh_rail(self, record):
        rail = "sensor:{}:{}".format(record.sensor_type.value, record.token.id)
        if not record.os_active:
            self.monitor.set_rail(rail, 0.0, ())
            return
        # Power scales mildly with rate (duty cycle of the sensor hub).
        rate_scale = min(2.0, max(0.25, record.rate_hz / 5.0))
        self.monitor.set_rail(rail, self.profile.sensor_mw * rate_scale,
                              (record.uid,))

    def _deliver(self, record):
        self._settle(record)
        record.delivered += 1
        record.listener(SensorReading(
            self.sim.now, record.sensor_type, self.rng.random()))
        return True
