"""Integration-flavoured tests for the lease manager and proxies."""

import pytest

from repro.core.behavior import BehaviorType
from repro.core.lease import LeaseState
from repro.core.policy import LeasePolicy
from repro.core.utility import UtilityCounter
from repro.droid.app import App
from repro.droid.resources import ResourceType
from repro.droid.sensors import SensorType
from repro.mitigation import LeaseOS

from tests.conftest import make_phone


class IdleHolder(App):
    """Acquires a wakelock and does nothing: textbook LHB."""

    app_name = "idle-holder"

    def run(self):
        self.lock = self.ctx.power.new_wakelock(self, "hold")
        self.lock.acquire()
        while True:
            yield self.sleep(300.0)


class BusyHolder(App):
    """Acquires a wakelock and uses the CPU well: normal."""

    app_name = "busy-holder"

    def run(self):
        self.lock = self.ctx.power.new_wakelock(self, "work")
        self.lock.acquire()
        while True:
            yield from self.compute(0.5)
            yield self.sleep(0.5)


class PoliteApp(App):
    """Acquires, works briefly, releases -- re-acquiring on an alarm
    (the device deep-sleeps between rounds, like a real sync service)."""

    app_name = "polite"

    def on_start(self):
        self.lock = self.ctx.power.new_wakelock(self, "polite")
        self.ctx.alarms.set_repeating(self.uid, 40.0, self._alarm)
        self.spawn(self._work_once())

    def _alarm(self):
        self.spawn(self._work_once())

    def _work_once(self):
        self.lock.acquire()
        yield from self.compute(1.0)
        self.lock.release()


def leased_phone(policy=None, **kwargs):
    mitigation = LeaseOS(policy=policy)
    phone = make_phone(mitigation=mitigation, **kwargs)
    return phone, mitigation.manager


def test_lease_created_on_first_access():
    phone, manager = leased_phone()
    app = phone.install(IdleHolder())
    phone.run_for(seconds=1.0)
    leases = manager.leases_for(app.uid)
    assert len(leases) == 1
    assert leases[0].rtype is ResourceType.WAKELOCK
    assert leases[0].state is LeaseState.ACTIVE


def test_idle_holder_gets_deferred_and_restored():
    phone, manager = leased_phone()
    app = phone.install(IdleHolder())
    phone.run_for(seconds=6.0)  # first 5 s term ended
    lease = manager.leases_for(app.uid)[0]
    assert lease.state is LeaseState.DEFERRED
    assert not app.lock._record.os_active
    assert app.lock.held  # app-oblivious
    phone.run_for(seconds=25.0)  # deferral over
    assert lease.state is LeaseState.ACTIVE
    assert app.lock._record.os_active


def test_busy_holder_keeps_renewing():
    phone, manager = leased_phone()
    app = phone.install(BusyHolder())
    phone.run_for(minutes=3.0)
    lease = manager.leases_for(app.uid)[0]
    assert lease.deferral_count == 0
    assert lease.term_index > 3
    assert all(
        d.behavior in (BehaviorType.NORMAL, BehaviorType.EUB)
        for d in manager.decisions if d.lease is lease
    )


def test_adaptive_terms_grow_for_normal_apps():
    phone, manager = leased_phone()
    app = phone.install(BusyHolder())
    phone.run_for(minutes=3.0)
    lease = manager.leases_for(app.uid)[0]
    assert lease.term_length == 60.0  # grew after 12 normal terms


def test_released_lease_goes_inactive_then_renews_on_reacquire():
    phone, manager = leased_phone()
    app = phone.install(PoliteApp())
    phone.run_for(seconds=10.0)
    lease = manager.leases_for(app.uid)[0]
    assert lease.state is LeaseState.INACTIVE
    phone.run_for(seconds=60.0)  # next acquire happened
    assert lease.state in (LeaseState.ACTIVE, LeaseState.INACTIVE)
    assert lease.renew_count >= 1
    assert lease.deferral_count == 0


def test_reacquire_during_deferral_pretends_success():
    phone, manager = leased_phone()
    app = phone.install(IdleHolder())
    phone.run_for(seconds=6.0)
    lease = manager.leases_for(app.uid)[0]
    assert lease.state is LeaseState.DEFERRED
    # The app releases and re-acquires during tau: acquire IPC pretends.
    app.lock.release()
    app.lock.acquire()
    assert app.lock.held
    assert not app.lock._record.os_active
    assert lease.state is LeaseState.DEFERRED


def test_deferral_escalates_with_persistent_misbehavior():
    phone, manager = leased_phone()
    app = phone.install(IdleHolder())
    phone.run_for(minutes=10.0)
    lease = manager.leases_for(app.uid)[0]
    assert lease.deferral_count >= 3
    assert lease.misbehavior_streak >= 3
    record = app.lock._record
    record.settle()
    # With escalation, honoured time collapses well below the fixed-tau
    # 1/(1+lambda) = 1/6 bound.
    assert record.active_time < 600.0 / 6.0


def test_dead_kernel_object_removes_lease():
    phone, manager = leased_phone()
    app = phone.install(IdleHolder())
    phone.run_for(seconds=2.0)
    assert len(manager.leases_for(app.uid)) == 1
    phone.kill_app(app.uid)
    assert manager.leases_for(app.uid) == []


class Sleeper(App):
    """Holds nothing by itself; the test opens its resources."""

    app_name = "sleeper"

    def run(self):
        while True:
            yield self.sleep(3600.0)


def _lock(new):
    def open_lock(phone, app):
        lock = new(phone, app)
        lock.acquire()
        return lock.release
    return open_lock


#: service -> (open a resource for an app, returning its release; the
#: events its lease notes over one acquire and release)
LIFECYCLES = {
    "power": (_lock(lambda phone, app: phone.power.new_wakelock(app, "w")),
              ["acquire", "release"]),
    "wifi": (_lock(lambda phone, app: phone.wifi.new_lock(app)),
             ["acquire", "release"]),
    "location": (lambda phone, app: phone.location.request_location_updates(
        app, lambda fix: None, 10.0).remove, ["release"]),
    "sensors": (lambda phone, app: phone.sensors.register_listener(
        app, SensorType.ACCELEROMETER, lambda reading: None).unregister,
        ["release"]),
    "bluetooth": (lambda phone, app: phone.bluetooth.connect(app).close,
                  ["release"]),
    "audio": (lambda phone, app: phone.audio.open_session(app).close, []),
}


@pytest.mark.parametrize("service", sorted(LIFECYCLES))
def test_each_proxy_leases_notes_and_drops_its_objects(service):
    open_resource, noted = LIFECYCLES[service]
    phone, manager = leased_phone()
    app = phone.install(Sleeper())
    release = open_resource(phone, app)
    leases = manager.leases_for(app.uid)
    assert len(leases) == 1
    lease = leases[0]
    assert manager.op_counts["create"] == 1
    phone.run_for(seconds=1.0)
    release()
    assert [event for __, event in lease.events] == noted
    assert manager.op_counts["note_event"] == len(noted)
    # Closing an audio session kills it; released objects live on.
    assert manager.leases_for(app.uid) == ([] if service == "audio"
                                           else [lease])
    open_resource(phone, app)
    assert len(manager.leases_for(app.uid)) == (1 if service == "audio"
                                                else 2)
    phone.kill_app(app.uid)
    assert manager.leases_for(app.uid) == []


def test_check_api_counts_ops():
    phone, manager = leased_phone()
    app = phone.install(IdleHolder())
    phone.run_for(seconds=1.0)
    lease = manager.leases_for(app.uid)[0]
    assert manager.check(lease.descriptor)
    assert not manager.check(999999)
    assert manager.op_counts["check_accept"] >= 1
    assert manager.op_counts["check_reject"] >= 1


def test_lease_update_energy_accounted():
    phone, manager = leased_phone()
    phone.install(IdleHolder())
    phone.run_for(minutes=2.0)
    lease_energy = phone.monitor.ledger.rail_total_mj("lease_mgmt")
    assert lease_energy > 0.0
    # ... but tiny compared with everything else (paper: <1%).
    assert lease_energy < 0.01 * phone.monitor.ledger.total_mj()


class _FixedCounter(UtilityCounter):
    def __init__(self, score):
        self.score = score

    def get_score(self):
        return self.score


def test_custom_counter_attached_to_existing_and_future_leases():
    phone, manager = leased_phone()
    app = phone.install(BusyHolder())
    phone.run_for(seconds=1.0)
    counter = _FixedCounter(88.0)
    manager.set_utility(app.uid, ResourceType.WAKELOCK, counter)
    phone.run_for(seconds=6.0)
    lease = manager.leases_for(app.uid)[0]
    last = lease.history[-1]
    assert last.metrics.custom_utility == 88.0


def test_unregister_proxy():
    phone, manager = leased_phone()
    proxy = manager.proxies[0]
    assert manager.unregister_proxy(proxy)
    assert not manager.unregister_proxy(proxy)


def test_gc_sweeps_long_idle_inactive_leases():
    from repro.core.policy import LeasePolicy

    policy = LeasePolicy(gc_idle_s=600.0, gc_sweep_interval_s=60.0)
    phone, manager = leased_phone(policy=policy)
    app = phone.install(IdleHolder())
    phone.run_for(seconds=6.0)
    app.lock.release()  # lease parks INACTIVE
    phone.run_for(minutes=15.0)
    assert manager.gc_removed >= 1
    assert manager.leases_for(app.uid) == []
    # A re-acquire transparently gets a fresh lease.
    app.lock.acquire()
    phone.run_for(seconds=1.0)
    leases = manager.leases_for(app.uid)
    assert len(leases) == 1
    assert leases[0].active


def test_gc_never_touches_held_leases():
    from repro.core.policy import LeasePolicy

    policy = LeasePolicy(gc_idle_s=60.0, gc_sweep_interval_s=30.0)
    phone, manager = leased_phone(policy=policy)
    app = phone.install(BusyHolder())
    phone.run_for(minutes=10.0)
    assert manager.gc_removed == 0
    assert len(manager.leases_for(app.uid)) == 1


def test_collect_windows_match_the_list_windows(monkeypatch):
    # _collect gathers its three recent-term windows in one pass. Each
    # must hold the terms a list-based window holds -- the last n terms,
    # those within an age -- and add them oldest first, from 0, on
    # histories whose ages straddle and hit both age limits.
    import random

    from repro.core import manager as manager_module
    from repro.core.stats import TermRecord, UtilityMetrics
    from repro.io import left_sum

    phone, manager = leased_phone()
    app = phone.install(IdleHolder())
    phone.run_for(seconds=1.0)
    lease, = manager.leases_for(app.uid)
    stats = {"active_time": 3.25, "utilization": 0.375, "ask_time": 0.5,
             "distance_moved": 1.5}
    monkeypatch.setattr(lease.proxy, "term_stats", lambda lease: dict(stats))
    calls = []
    real = manager_module.generic_utility
    monkeypatch.setattr(manager_module, "generic_utility",
                        lambda *args, **kwargs: calls.append((args, kwargs))
                        or real(*args, **kwargs))
    policy, now, rng = manager.policy, phone.sim.now, random.Random(5)

    def window(terms, count, age):
        return [r for r in (terms[-count:] if count > 0 else [])
                if now - r.end <= age]

    for __ in range(60):
        ends = [now - 1.0]
        for __ in range(rng.randint(0, 15)):
            ends.append(ends[-1] - rng.uniform(0.0, 16.0))
        if rng.random() < 0.5:  # terms exactly at both age limits
            ends = sorted(ends + [now - policy.utilization_window_s,
                                  now - policy.utility_window_age_s],
                          reverse=True)
        lease.history.clear()
        for end in reversed(ends):
            lease.history.append(TermRecord(
                0, end - rng.uniform(0.1, 9.0), end, BehaviorType.NORMAL,
                UtilityMetrics(
                    active_time=rng.uniform(0.0, 5.0),
                    utilization=rng.random(), ask_time=rng.random(),
                    ui_updates=rng.randint(0, 3),
                    interactions=rng.randint(0, 3),
                    exceptions=rng.randint(0, 3),
                    data_writes=rng.randint(0, 3),
                    extras={"distance_moved": rng.random()})))
        lease.term_start = now - 2.0
        terms = list(lease.history)
        smooth = window(terms, policy.utility_smoothing_terms - 1,
                        policy.utility_window_age_s)
        fab = window(terms, policy.fab_window_terms - 1,
                     policy.utility_window_age_s)
        util = window(terms, policy.utilization_smoothing_terms - 1,
                      policy.utilization_window_s)
        metrics = manager._collect(lease)
        (__, duration), generic = calls[-1]
        assert duration == (now - lease.term_start) + left_sum(
            r.end - r.start for r in smooth)
        assert generic["ui_updates"] == sum(r.metrics.ui_updates
                                            for r in smooth)
        assert generic["interactions"] == sum(r.metrics.interactions
                                              for r in smooth)
        assert generic["exceptions"] == sum(r.metrics.exceptions
                                            for r in smooth)
        assert generic["data_writes"] == sum(r.metrics.data_writes
                                             for r in smooth)
        assert generic["distance_m"] == 1.5 + left_sum(
            r.metrics.extras["distance_moved"] for r in smooth)
        assert metrics.ask_window_time == 0.5 + left_sum(
            r.metrics.ask_time for r in fab)
        weighted, weight = 0.375 * 3.25, 3.25
        for r in util:
            w = max(r.metrics.active_time, 1e-9)
            weighted += r.metrics.utilization * w
            weight += w
        assert metrics.utilization == weighted / weight
    assert len(calls) == 60
