"""Failure-injection tests: deaths, races, and odd orderings must not
wedge the lease machinery."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.apps.buggy.cpu_apps import Torch
from repro.core.behavior import BehaviorType, classify_term
from repro.core.lease import LeaseState
from repro.core.policy import LeasePolicy
from repro.core.stats import UtilityMetrics
from repro.droid.app import App
from repro.droid.resources import ResourceType
from repro.mitigation import LeaseOS

from tests.conftest import make_phone


def leased_phone(**kwargs):
    mitigation = LeaseOS()
    phone = make_phone(mitigation=mitigation, **kwargs)
    return phone, mitigation.manager


def test_app_killed_mid_deferral_cleans_up():
    phone, manager = leased_phone()
    app = phone.install(Torch())
    phone.run_for(seconds=6.0)
    lease = manager.leases_for(app.uid)[0]
    assert lease.state is LeaseState.DEFERRED
    phone.kill_app(app.uid)
    assert manager.leases_for(app.uid) == []
    # The pending deferral/term timers must not fire on the dead lease.
    phone.run_for(minutes=5.0)  # would blow up on a stale callback


def test_release_during_deferral_then_term_end():
    phone, manager = leased_phone()
    app = phone.install(Torch())
    phone.run_for(seconds=6.0)
    lease = manager.leases_for(app.uid)[0]
    assert lease.state is LeaseState.DEFERRED
    app.lock.release()
    phone.run_for(minutes=2.0)
    # Restored-then-checked: nothing held, so the lease parks INACTIVE.
    assert lease.state is LeaseState.INACTIVE
    assert not app.lock._record.os_active


def test_reacquire_after_deferral_and_release():
    phone, manager = leased_phone()
    app = phone.install(Torch())
    phone.run_for(seconds=6.0)
    app.lock.release()
    phone.run_for(minutes=2.0)
    lease = manager.leases_for(app.uid)[0]
    app.lock.acquire()  # renewal check through the gate
    assert lease.state is LeaseState.ACTIVE
    assert app.lock._record.os_active


def test_renew_on_removed_lease_is_false():
    phone, manager = leased_phone()
    app = phone.install(Torch())
    phone.run_for(seconds=2.0)
    lease = manager.leases_for(app.uid)[0]
    descriptor = lease.descriptor
    manager.remove(descriptor)
    assert manager.renew(descriptor) is False
    assert manager.check(descriptor) is False


def test_double_kill_app_is_safe():
    phone, manager = leased_phone()
    app = phone.install(Torch())
    phone.run_for(seconds=2.0)
    phone.kill_app(app.uid)
    phone.power.kill_app(app.uid)  # again, directly
    phone.run_for(minutes=1.0)


def test_uninstalled_uid_missing_app_signals():
    """A lease for an app the Phone no longer knows about must still be
    collectible (app fields default to zero)."""
    phone, manager = leased_phone()
    app = phone.install(Torch())
    phone.run_for(seconds=2.0)
    lease = manager.leases_for(app.uid)[0]
    del phone.apps[app.uid]  # simulate a racey uninstall
    metrics = manager._collect(lease)
    assert metrics.ui_updates == 0
    assert 0.0 <= metrics.utility_score <= 100.0


class SelfReleasingApp(App):
    """Acquires with the timeout overload only."""

    app_name = "timeouts"

    def run(self):
        self.lock = self.ctx.power.new_wakelock(self, "t")
        while True:
            self.lock.acquire(timeout_s=3.0)
            yield from self.compute(1.0)
            yield self.sleep(20.0)


def test_timeout_locks_never_misjudged():
    phone, manager = leased_phone()
    app = phone.install(SelfReleasingApp())
    phone.run_for(minutes=5.0)
    deferrals = sum(l.deferral_count for l in manager.leases_for(app.uid))
    assert deferrals == 0


# -- classifier totality -------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    rtype=st.sampled_from(list(ResourceType)),
    held_time=st.floats(min_value=0.0, max_value=600.0),
    active_time=st.floats(min_value=0.0, max_value=600.0),
    ask_time=st.floats(min_value=0.0, max_value=600.0),
    ask_window=st.floats(min_value=0.0, max_value=1800.0),
    success=st.floats(min_value=0.0, max_value=1.0),
    utilization=st.floats(min_value=0.0, max_value=5.0),
    score=st.floats(min_value=0.0, max_value=100.0),
    completed=st.integers(min_value=0, max_value=500),
)
def test_classifier_is_total(rtype, held_time, active_time, ask_time,
                             ask_window, success, utilization, score,
                             completed):
    metrics = UtilityMetrics(
        held=True, held_time=held_time, active_time=active_time,
        ask_time=ask_time, ask_window_time=ask_window,
        success_ratio=success, utilization=utilization,
        utility_score=score, completed_terms=completed,
    )
    result = classify_term(rtype, metrics, LeasePolicy())
    assert isinstance(result, BehaviorType)
    if rtype is not ResourceType.GPS:
        assert result is not BehaviorType.FAB  # Table 1
