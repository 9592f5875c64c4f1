"""Tests for the LocationManagerService GPS state machine."""

import pytest

from repro.device.profiles import PIXEL_XL
from repro.droid.app import App
from repro.droid.location import GpsState
from repro.droid.phone import Phone


class LocApp(App):
    app_name = "locapp"

    def __init__(self):
        super().__init__()
        self.fixes = []

    def listener(self, location):
        self.fixes.append(location)


@pytest.fixture
def loc_phone(phone_factory):
    phone = phone_factory(gps_quality=0.9, movement_mps=1.0)
    app = phone.install(LocApp(), start=False)
    return phone, app


def test_request_starts_search_then_locks(loc_phone):
    phone, app = loc_phone
    service = phone.location
    assert service.state is GpsState.OFF
    app_reg = service.request_location_updates(app, app.listener, 2.0)
    assert service.state is GpsState.SEARCHING
    assert phone.monitor.rail_power("gps") == phone.profile.gps_search_mw
    phone.run_for(seconds=30.0)
    assert service.state is GpsState.LOCKED
    assert phone.monitor.rail_power("gps") == phone.profile.gps_locked_mw
    assert len(app.fixes) >= 5
    app_reg.remove()
    assert service.state is GpsState.OFF
    assert phone.monitor.rail_power("gps") == 0.0


def test_weak_signal_searches_forever(phone_factory):
    phone = phone_factory(gps_quality=0.1)
    app = phone.install(LocApp(), start=False)
    record = phone.location.request_location_updates(
        app, app.listener, 5.0
    ).record
    phone.run_for(minutes=5.0)
    assert phone.location.state is GpsState.SEARCHING
    assert app.fixes == []
    record.settle()
    phone.location.settle_stats()
    assert record.search_time == pytest.approx(300.0, rel=0.05)
    assert record.locked_time == 0.0


def test_distance_accumulates_while_locked(loc_phone):
    phone, app = loc_phone
    registration = phone.location.request_location_updates(
        app, app.listener, 2.0
    )
    phone.run_for(minutes=2.0)
    record = registration.record
    phone.location.settle_stats()
    # moving at 1 m/s while locked: distance approx locked seconds
    assert record.distance_moved == pytest.approx(record.locked_time,
                                                  rel=0.15)


def test_revoke_stops_delivery_and_power(loc_phone):
    phone, app = loc_phone
    registration = phone.location.request_location_updates(
        app, app.listener, 2.0
    )
    phone.run_for(seconds=30.0)
    fixes_before = len(app.fixes)
    phone.location.revoke(registration.record)
    assert phone.monitor.rail_power("gps") == 0.0
    phone.run_for(seconds=30.0)
    assert len(app.fixes) == fixes_before
    phone.location.restore(registration.record)
    phone.run_for(seconds=30.0)
    assert len(app.fixes) > fixes_before


def test_warm_restart_relocks_quickly(loc_phone):
    phone, app = loc_phone
    registration = phone.location.request_location_updates(
        app, app.listener, 1.0
    )
    phone.run_for(seconds=30.0)
    record = registration.record
    phone.location.revoke(record)
    phone.run_for(seconds=10.0)
    phone.location.restore(record)
    record.settle()
    phone.location.settle_stats()
    search_before = record.search_time
    phone.run_for(seconds=5.0)
    phone.location.settle_stats()
    # Hot fix: well under the cold TTFF
    assert record.search_time - search_before < 2.0
    assert phone.location.state is GpsState.LOCKED


def test_two_apps_share_gps_rail(phone_factory):
    phone = phone_factory(gps_quality=0.9)
    a = phone.install(LocApp(), start=False)
    b = phone.install(LocApp(), start=False)
    phone.location.request_location_updates(a, a.listener, 2.0)
    phone.location.request_location_updates(b, b.listener, 2.0)
    mark = phone.energy_mark()
    phone.run_for(minutes=2.0)
    pa = phone.power_since(mark, a.uid)
    pb = phone.power_since(mark, b.uid)
    assert pa == pytest.approx(pb, rel=0.01)
    assert pa + pb == pytest.approx(phone.profile.gps_locked_mw, rel=0.15)


def test_kill_app_registrations(loc_phone):
    phone, app = loc_phone
    registration = phone.location.request_location_updates(
        app, app.listener, 2.0
    )
    phone.location.kill_app(app.uid)
    assert registration.record.dead
    assert phone.location.state is GpsState.OFF


def test_signal_loss_while_locked_resumes_search(loc_phone):
    phone, app = loc_phone
    phone.location.request_location_updates(app, app.listener, 2.0)
    phone.run_for(seconds=30.0)
    assert phone.location.state is GpsState.LOCKED
    fixes_before = len(app.fixes)
    phone.env.gps.set_quality(0.05)  # walked into a basement
    phone.run_for(seconds=60.0)
    assert phone.location.state is GpsState.SEARCHING
    assert len(app.fixes) <= fixes_before + 1
    assert phone.monitor.rail_power("gps") == phone.profile.gps_search_mw
    phone.env.gps.set_quality(0.9)  # back outside
    phone.run_for(seconds=30.0)
    assert phone.location.state is GpsState.LOCKED
    assert len(app.fixes) > fixes_before


@pytest.mark.parametrize("ballast", [0, 1, 5, 13, 100])
def test_simultaneous_fixes_reach_apps_in_registration_order(ballast):
    # Objects allocated before the phone move the addresses of its
    # records. The three registrations' first fixes land at one instant;
    # they must arrive in registration order whatever the addresses.
    allocated = [object() for __ in range(ballast)]
    phone = Phone(PIXEL_XL, seed=1234, ambient=False, gps_quality=0.9)
    arrivals = []
    apps = [phone.install(LocApp(), start=False) for __ in range(3)]
    for app in apps:
        phone.location.request_location_updates(
            app, lambda location, uid=app.uid: arrivals.append(uid), 2.0)
    phone.run_for(seconds=60.0)
    assert len(allocated) == ballast
    assert arrivals[:3] == [app.uid for app in apps]
    assert [app.uid for app in apps] == sorted(app.uid for app in apps)
