"""Mechanical details of the GPS buggy cases (beyond the power numbers)."""

import pytest

from repro.apps.buggy import CASES_BY_KEY
from repro.apps.buggy.gps_apps import MozStumbler, OpenGPSTracker, Where
from repro.core.lease import LeaseState
from repro.mitigation import LeaseOS

from tests.conftest import make_phone


def test_where_recycles_registrations():
    phone = make_phone(gps_quality=0.12)
    app = phone.install(Where())
    phone.run_for(minutes=5.0)
    records = [r for r in phone.location.records if r.uid == app.uid]
    # A fresh registration every 30 s: ~10 in 5 minutes.
    assert len(records) >= 8
    live = [r for r in records if r.app_held]
    assert len(live) == 1  # the old ones were removed


def test_where_under_leaseos_creates_many_leases():
    mitigation = LeaseOS()
    phone = make_phone(mitigation=mitigation, gps_quality=0.12)
    app = phone.install(Where())
    phone.run_for(minutes=5.0)
    assert mitigation.manager.created_total >= 8
    # Old registrations' kernel objects are merely released (not dead),
    # so their leases park INACTIVE rather than being removed.
    states = {l.state for l in mitigation.manager.leases_for(app.uid)}
    assert LeaseState.INACTIVE in states


def test_mozstumbler_duty_cycles_its_consumer():
    phone = make_phone(gps_quality=0.95)
    app = phone.install(MozStumbler())
    phone.run_for(minutes=10.0)
    record = app.registration.record
    phone.location.settle_stats()
    duty = record.consumer_active_time / record.active_time
    # ~50 s scanning per 120 s period.
    assert 0.25 < duty < 0.6
    assert app.data_write_times  # stumbling reports during scans


def test_opengpstracker_cascade_under_leaseos():
    """Deferring the GPS lease starves the processing loop, which then
    drops the wakelock's utilization and gets it deferred too."""
    mitigation = LeaseOS()
    phone = make_phone(mitigation=mitigation, gps_quality=0.95)
    app = phone.install(OpenGPSTracker())
    phone.run_for(minutes=10.0)
    leases = mitigation.manager.leases_for(app.uid)
    by_rtype = {l.rtype.value: l for l in leases}
    assert by_rtype["gps"].deferral_count >= 1
    assert by_rtype["wakelock"].deferral_count >= 1


def test_stationary_lub_cases_still_deliver_fixes_on_vanilla():
    for key in ("aimsicd", "opensciencemap"):
        case = CASES_BY_KEY[key]
        phone = case.build_phone(seed=3, ambient=False)
        app = case.make_app()
        phone.install(app)
        phone.run_for(minutes=3.0)
        record = app.registration.record
        assert record.delivered > 20, key  # GPS works fine...
        assert record.distance_moved == pytest.approx(0.0), key  # ...uselessly


def test_betterweather_fab_detection_latency():
    """FAB needs the windowed ask evidence: detection lands after the
    first term but within the first few."""
    mitigation = LeaseOS()
    phone = make_phone(mitigation=mitigation, gps_quality=0.10)
    app = phone.install(CASES_BY_KEY["betterweather"].make_app())
    phone.run_for(minutes=2.0)
    fab_defers = [d for d in mitigation.manager.decisions
                  if d.lease.uid == app.uid and d.action == "defer"]
    assert fab_defers
    assert 5.0 < fab_defers[0].time <= 30.0
