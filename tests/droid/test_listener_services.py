"""The listener-resource contract GPS, sensors and Bluetooth share.

Table 1's listener resources measure a lease's utilization as the
consumer's activity (§3.3): each record keeps a consumer clock that runs
while the OS honours it and the bound consumer is active. A delivery (a
sensor reading, a scan result, a fix or a failed fix attempt) is not a
lifecycle event, so no service notifies its listeners of one.
"""

import pytest

from repro.droid.app import App
from repro.droid.sensors import SensorType


class Consumer(App):
    app_name = "consumer"

    def __init__(self):
        super().__init__()
        self.delivered = []

    def listener(self, item):
        self.delivered.append(item)


#: service attribute on the phone -> open a handle for ``app``.
OPEN = {
    "location": lambda phone, app: phone.location.request_location_updates(
        app, app.listener, 2.0),
    "sensors": lambda phone, app: phone.sensors.register_listener(
        app, SensorType.ACCELEROMETER, app.listener),
    "bluetooth": lambda phone, app: phone.bluetooth.start_discovery(
        app, app.listener),
}


@pytest.mark.parametrize("service_name", sorted(OPEN))
def test_consumer_clock_runs_while_honoured_and_active(phone, service_name):
    service = getattr(phone, service_name)
    app = phone.install(Consumer(), start=False)
    handle = OPEN[service_name](phone, app)
    record = handle.record
    sim = phone.sim
    counted = 0.0  # honoured-and-active seconds, from the test's clock

    since = sim.now
    phone.run_for(seconds=17.3)
    counted += sim.now - since
    handle.set_consumer_active(False)
    phone.run_for(seconds=11.1)
    handle.set_consumer_active(True)
    since = sim.now
    phone.run_for(seconds=9.7)
    service.revoke(record)
    counted += sim.now - since
    phone.run_for(seconds=13.9)
    service.restore(record)
    since = sim.now
    phone.run_for(seconds=21.5)
    service.settle_stats()
    counted += sim.now - since

    assert app.delivered  # the clock ran across real deliveries
    assert record.consumer_active_time == pytest.approx(counted, rel=1e-12)


class RecordingListener:
    """Logs every ``on_*`` notification a service sends it."""

    def __init__(self):
        self.log = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda *args: self.log.append(name)


LIFECYCLE = {
    "on_{}_{}".format(kind, step)
    for kind, steps in (
        ("location", ("request", "removed")),
        ("sensor", ("register", "unregister")),
        ("bluetooth", ("open", "close")),
    )
    for step in steps + ("created", "revoked", "restored", "dead")
}


def test_listener_services_notify_lifecycle_events_only(phone_factory):
    phone = phone_factory(gps_quality=0.9, movement_mps=1.0)
    recorder = RecordingListener()
    for name in OPEN:
        getattr(phone, name).listeners.append(recorder)
    quitter = phone.install(Consumer(), start=False)
    apps = {name: phone.install(Consumer(), start=False)
            for name in sorted(OPEN)}
    handles = {name: OPEN[name](phone, apps[name]) for name in sorted(OPEN)}
    closed = {name: OPEN[name](phone, quitter) for name in sorted(OPEN)}
    phone.run_for(minutes=20.0)
    fixes = len(apps["location"].delivered)
    assert fixes > 0
    assert apps["sensors"].delivered
    assert apps["bluetooth"].delivered

    # Weak signal: the fix is lost and every retry fails.
    phone.env.gps.set_quality(0.1)
    record = handles["location"].record
    phone.location.settle_stats()
    search_before = record.search_time
    phone.run_for(minutes=20.0)
    phone.location.settle_stats()
    assert len(apps["location"].delivered) - fixes <= 1
    assert record.search_time - search_before > 1000.0
    phone.env.gps.set_quality(0.9)

    for name in sorted(OPEN):
        service = getattr(phone, name)
        service.revoke(handles[name].record)
        service.restore(handles[name].record)
    closed["location"].remove()
    closed["sensors"].unregister()
    closed["bluetooth"].close()
    phone.run_for(hours=23.0, minutes=20.0)  # the rest of the day
    for app in apps.values():
        phone.kill_app(app.uid)

    assert sorted(set(recorder.log) - LIFECYCLE) == []
    assert recorder.log == [
        "on_bluetooth_created", "on_bluetooth_open",
        "on_location_created", "on_location_request",
        "on_sensor_created", "on_sensor_register",
        "on_bluetooth_created", "on_bluetooth_open",
        "on_location_created", "on_location_request",
        "on_sensor_created", "on_sensor_register",
        "on_bluetooth_revoked", "on_bluetooth_restored",
        "on_location_revoked", "on_location_restored",
        "on_sensor_revoked", "on_sensor_restored",
        "on_location_removed", "on_sensor_unregister",
        "on_bluetooth_close",
        "on_bluetooth_dead", "on_location_dead", "on_sensor_dead",
    ]
