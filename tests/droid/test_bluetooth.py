"""Tests for the BluetoothService and its lease integration."""

import pytest

from repro.apps.buggy.bluetooth_apps import EXTRA_CASES, WatchCompanion
from repro.core.behavior import BehaviorType
from repro.droid.app import App
from repro.droid.bluetooth import BluetoothMode
from repro.mitigation import DefDroid, LeaseOS

from tests.conftest import make_phone


class BtApp(App):
    app_name = "btapp"

    def __init__(self):
        super().__init__()
        self.results = []

    def listener(self, result):
        self.results.append(result)


@pytest.fixture
def bt(phone):
    return phone, phone.install(BtApp(), start=False)


def test_discovery_burns_more_than_connection(bt):
    phone, app = bt
    discovery = phone.bluetooth.start_discovery(app, app.listener)
    rail = "bluetooth:{}".format(discovery.record.token.id)
    assert phone.monitor.rail_power(rail) == \
        phone.profile.bluetooth_discovery_mw
    discovery.close()
    connection = phone.bluetooth.connect(app)
    rail = "bluetooth:{}".format(connection.record.token.id)
    assert phone.monitor.rail_power(rail) == \
        phone.profile.bluetooth_connected_mw
    assert phone.profile.bluetooth_discovery_mw > \
        phone.profile.bluetooth_connected_mw


def test_discovery_delivers_results(bt):
    phone, app = bt
    session = phone.bluetooth.start_discovery(app, app.listener)
    phone.run_for(seconds=30.0)
    assert len(app.results) >= 5
    session.close()
    count = len(app.results)
    phone.run_for(seconds=30.0)
    assert len(app.results) == count


def test_revoke_restore_preserves_app_view(bt):
    phone, app = bt
    session = phone.bluetooth.start_discovery(app, app.listener)
    phone.bluetooth.revoke(session.record)
    assert session.record.app_held
    assert not session.record.os_active
    phone.bluetooth.restore(session.record)
    assert session.record.os_active


def test_kill_app_sessions(bt):
    phone, app = bt
    session = phone.bluetooth.start_discovery(app, app.listener)
    phone.kill_app(app.uid)
    assert session.record.dead
    assert not session.record.os_active


def test_leaked_discovery_judged_lhb_and_deferred():
    mitigation = LeaseOS()
    phone = make_phone(mitigation=mitigation)
    app = phone.install(WatchCompanion())
    mark = phone.energy_mark()
    phone.run_for(minutes=10.0)
    behaviors = {
        d.behavior for d in mitigation.manager.decisions
        if d.lease.uid == app.uid and d.behavior.is_misbehavior
    }
    assert BehaviorType.LHB in behaviors
    # The leaked scan's draw collapses far below the discovery rail.
    assert phone.power_since(mark, app.uid) < \
        0.3 * phone.profile.bluetooth_discovery_mw


def test_leaked_discovery_under_defdroid():
    phone = make_phone(mitigation=DefDroid())
    app = phone.install(WatchCompanion())
    mark = phone.energy_mark()
    phone.run_for(minutes=10.0)
    power = phone.power_since(mark, app.uid)
    discovery = phone.profile.bluetooth_discovery_mw
    assert power < 0.8 * discovery  # throttled...
    assert power > 0.15 * discovery  # ...but more gently than LeaseOS


def test_extension_case_spec_registered():
    assert EXTRA_CASES[0].resource.value == "bluetooth"
    assert EXTRA_CASES[0].behavior is BehaviorType.LHB
