"""The invariant suite: silent on clean runs, loud on tampering."""

import pytest

from repro.apps.buggy import CASES_BY_KEY
from repro.core.behavior import ResourceType
from repro.core.lease import Lease, LeaseState
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.plan import FaultPlan


def build_phone(case_key="torch", mitigation_key=None):
    from repro.experiments.grid import resolve_mitigation_factory

    case = CASES_BY_KEY[case_key]
    factory = resolve_mitigation_factory(mitigation_key) \
        if mitigation_key else None
    phone = case.build_phone(mitigation=factory() if factory else None,
                             seed=7)
    app = case.make_app()
    phone.install(app)
    return phone, app


# -- clean runs --------------------------------------------------------------

@pytest.mark.parametrize("mitigation_key", [None, "leaseos"])
def test_clean_run_holds_every_invariant(mitigation_key):
    phone, __ = build_phone(mitigation_key=mitigation_key)
    checker = InvariantChecker(phone, interval_s=15.0)
    phone.run_for(minutes=5.0)
    checker.check_now()
    checker.detach()
    assert checker.ok, checker.summary()
    assert checker.checks_run >= 5.0 * 60.0 / 15.0
    assert "OK" in checker.summary()


def test_clean_run_under_faults_holds_every_invariant():
    phone, app = build_phone("k9", mitigation_key="leaseos")
    checker = InvariantChecker(phone, interval_s=15.0)
    plan = FaultPlan.sample(3, horizon_s=600.0)
    FaultInjector(phone, plan, seed=7, checker=checker,
                  target_uid=app.uid).arm()
    phone.run_for(minutes=10.0)
    checker.check_now()
    checker.detach()
    assert checker.ok, checker.summary()


# -- energy conservation -----------------------------------------------------

def test_ledger_total_tampering_is_detected():
    phone, __ = build_phone()
    checker = InvariantChecker(phone)
    phone.run_for(minutes=1.0)
    phone.monitor.ledger._total_mj += 5.0  # corrupt the running total
    checker.check_now()
    checker.detach()
    assert any(v.invariant == "energy_conservation"
               for v in checker.violations)


def test_unaccounted_battery_drain_is_detected():
    phone, __ = build_phone()
    checker = InvariantChecker(phone)
    phone.run_for(minutes=1.0)
    phone.battery.remaining_mj -= 500.0  # drain bypassing the ledger
    checker.check_now()
    checker.detach()
    violations = [v for v in checker.violations
                  if v.invariant == "energy_conservation"]
    assert violations
    assert "battery drained" in violations[0].detail


# -- monotonic time ----------------------------------------------------------

def test_backwards_time_is_detected():
    phone, __ = build_phone()
    checker = InvariantChecker(phone)
    checker._last_now = phone.sim.now + 100.0  # as if time rewound
    checker.check_now()
    checker.detach()
    assert any(v.invariant == "monotonic_time" for v in checker.violations)


# -- lease state machine -----------------------------------------------------

def make_lease(observers=()):
    return Lease(descriptor=1, uid=10001, rtype=ResourceType.WAKELOCK,
                 record=None, proxy=None, created_at=0.0,
                 observers=observers)


def test_direct_state_mutation_is_caught_by_the_hook():
    phone, __ = build_phone(mitigation_key="leaseos")
    checker = InvariantChecker(phone)
    phone.run_for(minutes=2.0)  # leases exist and are shadowed
    manager = phone.lease_manager
    assert manager.leases, "expected live leases under leaseos"
    lease = next(iter(manager.leases.values()))
    lease.state = LeaseState.DEFERRED if lease.state is LeaseState.ACTIVE \
        else LeaseState.ACTIVE  # bypass transition()
    checker.check_now()
    checker.detach()
    assert any(v.invariant == "lease_state_machine"
               for v in checker.violations)


def test_hook_sees_illegal_transition_even_if_table_is_corrupted():
    phone, __ = build_phone(mitigation_key="leaseos")
    checker = InvariantChecker(phone)
    lease = make_lease()
    checker._shadow[id(lease)] = (lease, lease.state)
    # Simulate core/lease.py enforcement being broken: feed the hook an
    # illegal move directly.
    checker._on_lease_transition(lease, LeaseState.INACTIVE,
                                 LeaseState.DEFERRED)
    checker.detach()
    assert any(v.invariant == "lease_state_machine"
               and "illegal" in v.detail for v in checker.violations)


def test_transition_hooks_add_remove_roundtrip():
    # Observers live on the lease manager that creates the leases, so
    # another phone's leases never reach them.
    phone, __ = build_phone(mitigation_key="leaseos")
    other, __ = build_phone(mitigation_key="leaseos")
    observers = phone.lease_manager.transition_observers
    seen = []
    observers.append(lambda lease, old, new: seen.append((old, new)))
    lease = make_lease(observers)
    lease.transition(LeaseState.DEFERRED)
    assert seen == [(LeaseState.ACTIVE, LeaseState.DEFERRED)]
    other.run_for(minutes=2.0)
    assert len(seen) == 1
    phone.run_for(minutes=2.0)
    assert len(seen) > 1  # the manager's own leases report too
    observers.clear()
    count = len(seen)
    lease.transition(LeaseState.ACTIVE)
    phone.run_for(minutes=2.0)
    assert len(seen) == count  # removed observers stop firing


# -- wakelocks after death ---------------------------------------------------

def test_honoured_wakelock_of_dead_uid_is_a_violation():
    phone, app = build_phone()
    checker = InvariantChecker(phone)
    lock = phone.power.new_wakelock(app, "leaky")
    lock.acquire()
    assert any(r.uid == app.uid for r in phone.power.honoured_records())
    checker.note_app_dead(app.uid)  # killed without kernel cleanup
    checker.detach()
    assert any(v.invariant == "wakelock_after_death"
               for v in checker.violations)


def test_kill_app_cleanup_satisfies_the_wakelock_invariant():
    phone, app = build_phone()
    checker = InvariantChecker(phone)
    lock = phone.power.new_wakelock(app, "leaky")
    lock.acquire()
    phone.kill_app(app.uid)
    checker.note_app_dead(app.uid)
    checker.check_now()
    assert checker.ok, checker.summary()
    checker.note_app_alive(app.uid)
    checker.detach()
    assert checker.ok


def test_honoured_records_of_dead_uid_are_violations_in_every_service():
    from repro.droid.sensors import SensorType

    phone, app = build_phone()
    checker = InvariantChecker(phone)
    phone.location.request_location_updates(app, lambda fix: None, 10.0)
    phone.sensors.register_listener(app, SensorType.LIGHT,
                                    lambda reading: None)
    phone.wifi.new_lock(app).acquire()
    phone.bluetooth.connect(app)
    phone.audio.open_session(app)
    checker.note_app_dead(app.uid)  # killed without kernel cleanup
    checker.detach()
    flagged = {v.data["resource"] for v in checker.violations
               if v.invariant == "wakelock_after_death"}
    assert {"gps", "sensor", "wifi", "bluetooth", "audio"} <= flagged


def test_kill_app_cleanup_satisfies_the_invariant_for_audio():
    phone, app = build_phone()
    checker = InvariantChecker(phone)
    phone.audio.open_session(app).start_playback()
    phone.kill_app(app.uid)
    checker.note_app_dead(app.uid)
    checker.check_now()
    checker.detach()
    assert checker.ok, checker.summary()


# -- plumbing ----------------------------------------------------------------

def test_detach_is_idempotent_and_stops_sampling():
    phone, __ = build_phone()
    checker = InvariantChecker(phone, interval_s=10.0)
    phone.run_for(minutes=1.0)
    checker.detach()
    checker.detach()
    runs = checker.checks_run
    phone.run_for(minutes=2.0)
    assert checker.checks_run == runs  # timer cancelled


def test_violation_as_dict_round_trips():
    violation = InvariantViolation("energy_conservation", 12.5,
                                   "drifted", {"drift_mj": 4.2})
    payload = violation.as_dict()
    assert payload == {"invariant": "energy_conservation", "time": 12.5,
                       "detail": "drifted", "data": {"drift_mj": 4.2}}
    assert "energy_conservation" in repr(violation)
