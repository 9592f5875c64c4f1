"""Tests for SensorManagerService, WifiService and AudioService."""

import pytest

from repro.droid.app import App
from repro.droid.sensors import SensorType


class Client(App):
    app_name = "client"

    def __init__(self):
        super().__init__()
        self.readings = []

    def listener(self, reading):
        self.readings.append(reading)


@pytest.fixture
def client(phone):
    return phone, phone.install(Client(), start=False)


# -- sensors -----------------------------------------------------------------

def test_sensor_registration_delivers_readings(client):
    phone, app = client
    registration = phone.sensors.register_listener(
        app, SensorType.ACCELEROMETER, app.listener, rate_hz=5.0
    )
    phone.run_for(seconds=10.0)
    assert len(app.readings) >= 8  # capped at 1 Hz delivery
    registration.unregister()
    count = len(app.readings)
    phone.run_for(seconds=10.0)
    assert len(app.readings) == count


def test_sensor_power_attributed(client):
    phone, app = client
    phone.sensors.register_listener(
        app, SensorType.ORIENTATION, app.listener, rate_hz=5.0
    )
    mark = phone.energy_mark()
    phone.run_for(seconds=100.0)
    assert phone.power_since(mark, app.uid) == pytest.approx(
        phone.profile.sensor_mw, rel=0.01
    )


def test_sensor_rate_scales_power(client):
    phone, app = client
    record = phone.sensors.register_listener(
        app, SensorType.ACCELEROMETER, app.listener, rate_hz=10.0
    ).record
    rail = "sensor:accelerometer:{}".format(record.token.id)
    assert phone.monitor.rail_power(rail) == pytest.approx(
        phone.profile.sensor_mw * 2.0
    )


def test_sensor_revoke_restore(client):
    phone, app = client
    registration = phone.sensors.register_listener(
        app, SensorType.ACCELEROMETER, app.listener
    )
    phone.run_for(seconds=5.0)
    count = len(app.readings)
    phone.sensors.revoke(registration.record)
    phone.run_for(seconds=10.0)
    assert len(app.readings) == count
    phone.sensors.restore(registration.record)
    phone.run_for(seconds=5.0)
    assert len(app.readings) > count


def test_wifi_lock_power_and_release(client):
    phone, app = client
    lock = phone.wifi.new_lock(app)
    lock.acquire()
    mark = phone.energy_mark()
    phone.run_for(seconds=50.0)
    assert phone.power_since(mark, app.uid) == pytest.approx(
        phone.profile.wifi_lock_mw
    )
    lock.release()
    assert phone.monitor.rail_power("wifi_lock") == 0.0
    with pytest.raises(RuntimeError):
        lock.release()


def test_wifi_transfer_credit(client):
    phone, app = client
    lock = phone.wifi.new_lock(app)
    lock.acquire()
    phone.wifi.note_transfer(app.uid, 3.0)
    record = [r for r in phone.wifi.records if r.uid == app.uid][0]
    assert record.transfer_time == pytest.approx(3.0)


def test_wifi_revoke_restore(client):
    phone, app = client
    lock = phone.wifi.new_lock(app)
    lock.acquire()
    record = [r for r in phone.wifi.records if r.uid == app.uid][0]
    phone.wifi.revoke(record)
    assert phone.monitor.rail_power("wifi_lock") == 0.0
    assert lock.held
    phone.wifi.restore(record)
    assert phone.monitor.rail_power("wifi_lock") == \
        phone.profile.wifi_lock_mw


# -- audio ----------------------------------------------------------------

def test_audio_playback_power(client):
    phone, app = client
    session = phone.audio.open_session(app)
    session.start_playback()
    mark = phone.energy_mark()
    phone.run_for(seconds=20.0)
    assert phone.power_since(mark, app.uid) == pytest.approx(
        phone.profile.audio_mw
    )
    session.stop_playback()
    phone.run_for(seconds=5.0)
    record = session.record
    record.settle_playback(phone.sim.now)
    assert record.playback_time == pytest.approx(20.0)


def test_audio_revoke_silences(client):
    phone, app = client
    session = phone.audio.open_session(app)
    session.start_playback()
    phone.run_for(seconds=5.0)
    phone.audio.revoke(session.record)
    mark = phone.energy_mark()
    phone.run_for(seconds=10.0)
    assert phone.power_since(mark, app.uid) == pytest.approx(0.0)
    phone.audio.restore(session.record)


def test_audio_close_marks_dead(client):
    phone, app = client
    session = phone.audio.open_session(app)
    session.start_playback()
    session.close()
    assert session.record.dead
    assert phone.monitor.rail_power(
        "audio:{}".format(session.record.token.id)
    ) == 0.0
