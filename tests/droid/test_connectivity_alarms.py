"""Tests for ConnectivityService, AlarmManager, IPC and exceptions."""

import pytest

from repro.droid.app import App
from repro.droid.exceptions import (
    NoRouteException,
    ServerErrorException,
    SocketTimeoutException,
)
from repro.env.network import ServerMode


class NetApp(App):
    app_name = "netapp"

    def __init__(self):
        super().__init__()
        self.outcomes = []

    def fetch(self, server):
        try:
            outcome = yield from self.http(server, payload_s=0.5)
            self.outcomes.append(outcome.status)
        except Exception as exc:  # noqa: BLE001 - recording for asserts
            self.outcomes.append(type(exc).__name__)


def test_successful_request_takes_time_and_power(phone):
    app = phone.install(NetApp(), start=False)
    lock = phone.power.new_wakelock(app, "net")
    lock.acquire()
    mark = phone.energy_mark()
    app.spawn(app.fetch("server"))
    phone.run_for(seconds=5.0)
    assert app.outcomes == ["ok"]
    # Transfer power was attributed (wifi active for ~0.5-0.7 s).
    energy = phone.monitor.ledger.app_rail_mj(
        app.uid, "net:{}".format(app.uid)
    )
    assert energy > 0.4 * phone.profile.wifi_active_mw


def test_error_server_raises_and_notes_exception(phone):
    phone.env.network.set_server("bad", ServerMode.ERROR)
    app = phone.install(NetApp(), start=False)
    lock = phone.power.new_wakelock(app, "net")
    lock.acquire()
    app.spawn(app.fetch("bad"))
    phone.run_for(seconds=5.0)
    assert app.outcomes == ["ServerErrorException"]
    assert phone.exceptions.total(app.uid) == 1


def test_disconnected_raises_no_route(phone_factory):
    phone = phone_factory(connected=False)
    app = phone.install(NetApp(), start=False)
    lock = phone.power.new_wakelock(app, "net")
    lock.acquire()
    app.spawn(app.fetch("anything"))
    phone.run_for(seconds=5.0)
    assert app.outcomes == ["NoRouteException"]


def test_suspend_interrupts_transfer_with_timeout(phone):
    app = phone.install(NetApp(), start=False)
    lock = phone.power.new_wakelock(app, "net")
    lock.acquire()
    app.spawn(app.fetch("server"))
    phone.run_for(seconds=0.1)  # mid-transfer
    lock.release()  # device suspends, radio stops
    assert phone.suspend.suspended
    lock.acquire()  # wake up again; the transfer resumes and fails
    phone.run_for(seconds=5.0)
    assert app.outcomes == ["SocketTimeoutException"]


def test_restrictor_denies_background_requests(phone):
    phone.net.restrictor = lambda uid: False
    app = phone.install(NetApp(), start=False)
    lock = phone.power.new_wakelock(app, "net")
    lock.acquire()
    app.spawn(app.fetch("server"))
    phone.run_for(seconds=5.0)
    assert app.outcomes == ["NoRouteException"]


def test_radio_power_uses_cellular_rate(phone_factory):
    phone = phone_factory(connected=True, network_kind="cellular")
    app = phone.install(NetApp(), start=False)
    lock = phone.power.new_wakelock(app, "net")
    lock.acquire()
    app.spawn(app.fetch("server"))
    phone.run_for(seconds=0.05)
    assert phone.monitor.rail_power("net:{}".format(app.uid)) == \
        phone.profile.radio_active_mw


# -- alarms ------------------------------------------------------------------

def test_oneshot_alarm_fires_and_wakes_device(phone):
    fired = []
    phone.alarms.set(1, 10.0, lambda: fired.append(phone.sim.now))
    assert phone.suspend.suspended
    phone.run_for(seconds=11.0)
    assert fired == [10.0]
    assert phone.alarms.fired_count == 1


def test_repeating_alarm(phone):
    fired = []
    alarm = phone.alarms.set_repeating(
        1, 5.0, lambda: fired.append(phone.sim.now)
    )
    phone.run_for(seconds=16.0)
    assert fired == [5.0, 10.0, 15.0]
    alarm.cancel()
    phone.run_for(seconds=20.0)
    assert len(fired) == 3


def test_cancelled_alarm_never_fires(phone):
    fired = []
    alarm = phone.alarms.set(1, 5.0, lambda: fired.append(1))
    alarm.cancel()
    phone.run_for(seconds=10.0)
    assert fired == []


def test_alarm_policy_can_defer(phone):
    deferred = []

    class Policy:
        def intercept_alarm(self, alarm):
            deferred.append(alarm)
            return True

    phone.alarms.policy = Policy()
    phone.alarms.set(1, 5.0, lambda: None)
    phone.run_for(seconds=10.0)
    assert len(deferred) == 1
    assert phone.alarms.fired_count == 0
    phone.alarms.policy = None
    phone.alarms.deliver_now(deferred[0])
    assert phone.alarms.fired_count == 1


def test_repeating_alarm_survives_policy_deferral(phone):
    swallowed = []

    class Policy:
        def intercept_alarm(self, alarm):
            swallowed.append(phone.sim.now)
            return True

    phone.alarms.policy = Policy()
    phone.alarms.set_repeating(1, 5.0, lambda: None)
    phone.run_for(seconds=16.0)
    assert swallowed == [5.0, 10.0, 15.0]


def test_kill_app_cancels_its_alarms_and_their_queued_deliveries(phone):
    fired = []
    queued = []

    class Policy:
        def intercept_alarm(self, alarm):
            if alarm.interval is None:
                queued.append(alarm)  # delivered later, as Doze does
                return True
            return False

    phone.alarms.policy = Policy()
    phone.alarms.set(1, 5.0, lambda: fired.append("queued"))
    phone.alarms.set(1, 30.0, lambda: fired.append("pending"))
    phone.alarms.set_repeating(1, 5.0, lambda: fired.append("repeating"))
    phone.alarms.set_repeating(2, 5.0, lambda: fired.append("other app"))
    phone.run_for(seconds=6.0)
    assert fired == ["repeating", "other app"]
    assert len(queued) == 1
    phone.alarms.kill_app(1)
    phone.alarms.deliver_now(queued[0])
    phone.run_for(seconds=30.0)
    assert set(fired[2:]) == {"other app"}
    assert len(queued) == 1


def test_the_alarm_record_forgets_fired_and_cancelled_alarms(phone):
    phone.alarms.set(1, 5.0, lambda: None)
    repeating = phone.alarms.set_repeating(1, 5.0, lambda: None)
    phone.run_for(seconds=6.0)
    assert phone.alarms._live == {1: {repeating}}
    repeating.cancel()
    phone.run_for(seconds=5.0)
    assert phone.alarms._live == {}


# -- ipc + exceptions --------------------------------------------------------

def test_ipc_records_calls_and_latency(phone):
    latency = phone.ipc.record(10001, "power", "acquire")
    assert latency == pytest.approx(phone.profile.ipc_latency_s)
    assert phone.ipc.call_count(10001) == 1
    assert phone.ipc.total_latency_s(10001) == pytest.approx(latency)


def test_ipc_overhead_hooks(phone):
    phone.ipc.add_overhead_hook(lambda uid, svc, m: 0.001)
    latency = phone.ipc.record(1, "power", "acquire")
    assert latency == pytest.approx(phone.profile.ipc_latency_s + 0.001)


def test_exception_window_counting(phone):
    handler = phone.exceptions

    class Boom(Exception):
        severe = True

    handler.note(5, Boom())
    phone.run_for(seconds=10.0)
    handler.note(5, Boom())
    assert handler.count_in_window(5, 0.0, 5.0) == 1
    assert handler.count_in_window(5, 0.0, 11.0) == 2
    assert handler.count_in_window(5, 5.0, 9.0) == 0
    assert handler.total(5) == 2


def test_non_severe_exceptions_ignored(phone):
    class Mild(Exception):
        severe = False

    phone.exceptions.note(5, Mild())
    assert phone.exceptions.total(5) == 0
