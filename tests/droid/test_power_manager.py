"""Tests for wakelocks and the PowerManagerService."""

import pytest

from repro.droid.app import App
from repro.droid.power_manager import WakeLockLevel


class Holder(App):
    app_name = "holder"


@pytest.fixture
def setup(phone):
    app = phone.install(Holder(), start=False)
    return phone, app


def test_acquire_keeps_device_awake(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    phone.run_for(seconds=10.0)
    assert phone.suspend.suspended  # created but not acquired
    lock.acquire()
    assert phone.suspend.awake
    assert "wakelock" in phone.suspend.reasons
    lock.release()
    assert phone.suspend.suspended


def test_refcounting_requires_matching_releases(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire()
    lock.acquire()
    lock.release()
    assert lock.held
    assert lock._record.os_active
    lock.release()
    assert not lock.held
    with pytest.raises(RuntimeError):
        lock.release()


def test_awake_power_attributed_to_holder(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire()
    mark = phone.energy_mark()
    phone.run_for(seconds=100.0)
    expected = phone.profile.cpu_awake_idle_mw
    assert phone.power_since(mark, app.uid) == pytest.approx(expected)


def test_revoke_and_restore_preserve_app_view(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire()
    record = lock._record
    phone.power.revoke(record)
    assert lock.held  # app-side descriptor untouched
    assert not record.os_active
    assert phone.suspend.suspended
    phone.power.restore(record)
    assert record.os_active
    assert phone.suspend.awake


def test_restore_noop_if_app_released_meanwhile(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire()
    record = lock._record
    phone.power.revoke(record)
    lock.release()
    phone.power.restore(record)
    assert not record.os_active


def test_gate_denial_pretends_success(setup):
    phone, app = setup
    phone.power.gates.append(lambda record: False)
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire()
    assert lock.held  # the app believes it succeeded
    assert not lock._record.os_active  # but the OS did nothing
    assert lock._record.pretended_acquires == 1
    assert phone.suspend.suspended


def test_screen_wakelock_turns_screen_on(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "s",
                                    level=WakeLockLevel.SCREEN_BRIGHT)
    lock.acquire()
    assert phone.display.screen_on
    lock.release()
    assert not phone.display.screen_on


def test_screen_power_attributed_to_lock_holder(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "s",
                                    level=WakeLockLevel.SCREEN_BRIGHT)
    lock.acquire()
    mark = phone.energy_mark()
    phone.run_for(seconds=10.0)
    power = phone.power_since(mark, app.uid)
    assert power >= phone.profile.screen_on_mw


def test_kill_app_locks_marks_dead(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire()
    phone.power.kill_app(app.uid)
    record = lock._record
    assert record.dead
    assert not record.os_active
    assert phone.suspend.suspended


def test_acquire_on_dead_lock_raises(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    phone.power.kill_app(app.uid)
    with pytest.raises(RuntimeError):
        lock.acquire()


def test_interaction_credits_screen_locks(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "s",
                                    level=WakeLockLevel.SCREEN_BRIGHT)
    lock.acquire()
    phone.touch(app.uid)
    phone.touch(app.uid)
    assert lock._record.interactions == 2


def test_listeners_receive_lifecycle_events(setup):
    phone, app = setup
    events = []

    class Listener:
        def on_wakelock_created(self, record):
            events.append("created")

        def on_wakelock_acquire(self, record, allowed):
            events.append(("acquire", allowed))

        def on_wakelock_release(self, record):
            events.append("release")

    phone.power.listeners.append(Listener())
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire()
    lock.release()
    assert events == ["created", ("acquire", True), "release"]


def test_timeout_acquire_self_releases(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire(timeout_s=5.0)
    phone.run_for(seconds=6.0)
    assert not lock.held


def test_plain_acquire_supersedes_stale_timeout(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire(timeout_s=5.0)
    lock.release()
    lock.acquire()  # plain acquire: the old timer must not kill it
    phone.run_for(seconds=10.0)
    assert lock.held


def test_release_cancels_pending_timeout(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire(timeout_s=5.0)
    lock.release()
    phone.run_for(seconds=6.0)  # timer fires: must be a no-op
    lock.acquire()
    assert lock.held


def test_reacquire_with_new_timeout_extends(setup):
    phone, app = setup
    lock = phone.power.new_wakelock(app, "w")
    lock.acquire(timeout_s=5.0)
    phone.run_for(seconds=3.0)
    lock.acquire(timeout_s=10.0)  # re-arm before the first expires
    phone.run_for(seconds=5.0)  # t=8: old deadline passed, still held
    assert lock.held
    phone.run_for(seconds=6.0)  # t=14: past the new deadline
    # Refcounted: the timeout released one reference; one remains.
    assert lock.held
    lock.release()
    assert not lock.held
