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
    KernelObject,
    KernelObjectService,
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


class SensorRecord(KernelObject):
    def __init__(self, sim, uid, sensor_type, listener, rate_hz):
        super().__init__(sim, uid, ResourceType.SENSOR, sensor_type.value)
        self.sensor_type = sensor_type
        self.listener = listener
        self.rate_hz = rate_hz
        self.events_delivered = 0
        self.consumer_active = True
        self.consumer_active_time = 0.0
        self._seg_since = None
        self._delivery_timer = None


class SensorRegistration:
    def __init__(self, service, record):
        self._service = service
        self.record = record

    def unregister(self):
        self._service.unregister_listener(self)

    def set_consumer_active(self, active):
        self._service.set_consumer_active(self.record, active)


class SensorManagerService(KernelObjectService):
    name = "sensors"
    kind = "sensor"

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
        record = SensorRecord(self.sim, app.uid, sensor_type, listener, rate_hz)
        self.records.append(record)
        self._notify("on_sensor_created", record)
        self._admit(record, "on_sensor_register")
        return SensorRegistration(self, record)

    def unregister_listener(self, registration):
        self._release(registration.record, "on_sensor_unregister")

    def set_consumer_active(self, record, active):
        self._settle(record)
        record.consumer_active = active

    # -- governor ops ------------------------------------------------------------

    def throttle_rate(self, record, factor):
        """Governor op (DefDroid): reduce delivery rate."""
        record.rate_hz /= factor
        self._refresh_rail(record)

    def settle_stats(self):
        """Fold elapsed time into every record's counters (profiling)."""
        for record in self.records:
            if record in self._honoured:
                self._settle(record)
            record.settle()

    # -- internals -------------------------------------------------------------

    def _activate(self, record):
        if record.os_active:
            return
        self._mark_honoured(record, True)
        record._seg_since = self.sim.now
        self._refresh_rail(record)
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

    def _rail_name(self, record):
        return "sensor:{}:{}".format(record.sensor_type.value, record.token.id)

    def _refresh_rail(self, record):
        if not record.os_active:
            return
        # Power scales mildly with rate (duty cycle of the sensor hub).
        rate_scale = min(2.0, max(0.25, record.rate_hz / 5.0))
        self.monitor.set_rail(
            self._rail_name(record),
            self.profile.sensor_mw * rate_scale,
            (record.uid,),
        )

    def _schedule_delivery(self, record):
        interval = 1.0 / min(record.rate_hz, self.MAX_DELIVERY_HZ)
        timer = record._delivery_timer
        if timer is not None and timer.fired and not timer.cancelled:
            # The delivery that just fired re-arms its own timer.
            self.sim.reschedule(timer, interval)
        else:
            record._delivery_timer = self.sim.schedule(
                interval, lambda: self._deliver(record)
            )

    def _deliver(self, record):
        if record not in self._honoured:
            return
        self._settle(record)
        record.events_delivered += 1
        reading = SensorReading(
            self.sim.now, record.sensor_type, self.rng.random()
        )
        record.listener(reading)
        timer = record._delivery_timer
        if timer is not None and timer.fired and not timer.cancelled:
            # The common case, _schedule_delivery's re-arm inline.
            self.sim.reschedule(
                timer, 1.0 / min(record.rate_hz, self.MAX_DELIVERY_HZ))
        else:
            self._schedule_delivery(record)

    def _settle(self, record):
        now = self.sim.now
        if record._seg_since is None:
            return
        elapsed = now - record._seg_since
        if elapsed > 0 and record.consumer_active:
            record.consumer_active_time += elapsed
        record._seg_since = now
