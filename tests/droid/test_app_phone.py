"""Tests for the app framework and the Phone facade."""

import random

import pytest

from repro.droid.app import App, count_in
from repro.droid.display import ScreenState


class Busy(App):
    app_name = "busy"

    def run(self):
        lock = self.ctx.power.new_wakelock(self, "busy")
        lock.acquire()
        while True:
            yield from self.compute(1.0)
            yield self.sleep(1.0)


class Idle(App):
    app_name = "idle"

    def run(self):
        while True:
            yield self.sleep(60.0)


def test_install_assigns_context_and_starts(phone):
    app = phone.install(Busy())
    assert app.ctx is not None
    assert app.started
    assert app.uid in phone.apps
    phone.run_for(seconds=10.0)
    assert phone.cpu.cpu_time(app.uid) > 0


def test_double_install_rejected(phone):
    app = phone.install(Idle())
    with pytest.raises(ValueError):
        phone.install(app)


def test_double_start_rejected(phone):
    app = phone.install(Idle())
    with pytest.raises(RuntimeError):
        app.start()


def test_launch_window_lets_startup_run_then_suspends(phone):
    app = phone.install(Idle())
    assert phone.suspend.awake  # launch grace
    phone.run_for(seconds=10.0)
    assert phone.suspend.suspended  # no wakelock -> deep sleep
    # The main loop is frozen: no progress over a long stretch.
    proc = app.alive_processes()[0]
    assert proc.paused


def test_compute_scales_with_speed_factor(phone_factory):
    from repro.device.profiles import MOTO_G, PIXEL_XL

    durations = {}
    for profile in (PIXEL_XL, MOTO_G):
        phone = phone_factory(profile=profile)
        app = phone.install(Busy())
        phone.run_for(seconds=0.5)
        proc = app.alive_processes()[0]
        durations[profile.name] = proc._timer.deadline
    assert durations[MOTO_G.name] > durations[PIXEL_XL.name]


def test_touch_reaches_foreground_app(phone):
    app = phone.install(Idle())
    phone.set_foreground(app.uid)
    assert app.foreground
    phone.touch()
    assert len(app.interaction_times) == 1
    phone.set_foreground(None)
    assert not app.foreground


def test_touch_specific_uid(phone):
    a = phone.install(Idle())
    b = phone.install(Idle())
    phone.touch(b.uid)
    assert not a.interaction_times
    assert len(b.interaction_times) == 1


def test_touch_never_runs_a_killed_apps_code(phone):
    app = phone.install(Idle())
    phone.kill_app(app.uid)
    phone.touch(app.uid)  # still wakes the device...
    assert phone.suspend.awake
    assert not app.interaction_times  # ...but runs no code of the app
    phone.restart_app(app.uid)
    phone.touch(app.uid)
    assert len(app.interaction_times) == 1


def test_screen_on_keeps_device_awake(phone):
    phone.run_for(seconds=10.0)
    assert phone.suspend.suspended
    phone.screen_on()
    assert phone.suspend.awake
    assert phone.display.state is ScreenState.ON
    phone.screen_off()
    phone.run_for(seconds=10.0)
    assert phone.suspend.suspended


def test_kill_app_cleans_services(phone):
    app = phone.install(Busy())
    phone.run_for(seconds=3.0)
    phone.kill_app(app.uid)
    phone.run_for(seconds=5.0)
    assert phone.suspend.suspended
    assert not app.alive_processes()


def test_energy_mark_window_math(phone):
    phone.monitor.set_rail("test", 100.0, (77,))
    mark = phone.energy_mark()
    phone.run_for(seconds=10.0)
    assert phone.power_since(mark, 77) == pytest.approx(100.0)
    assert phone.power_since(mark) >= 100.0


def test_signal_counters_window_queries(phone):
    app = phone.install(Idle())
    app.post_ui_update()
    app.note_data_write(3)
    phone.run_for(seconds=10.0)
    app.post_ui_update()
    assert app.ui_updates_in(0.0, 5.0) == 1
    assert app.ui_updates_in(0.0, 11.0) == 2
    assert app.data_writes_in(0.0, 1.0) == 3


def test_window_counts_match_the_linear_scan():
    # The signal lists are sorted (appended at sim.now); counting by
    # binary search must equal the scan it replaced, also where the
    # window's edges fall on repeated times, outside the list, or
    # cross (start > end counts nothing).
    rng = random.Random(24)
    for __ in range(300):
        times = sorted(rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
                       for __ in range(rng.randint(0, 12)))
        edges = times + [-1.0, 0.25, 1.25, 4.0]
        start, end = rng.choice(edges), rng.choice(edges)
        assert count_in(times, start, end) == \
            sum(1 for t in times if start <= t < end), (times, start, end)


def test_set_utility_counter_noop_without_leaseos(phone):
    from repro.droid.resources import ResourceType

    app = phone.install(Idle())
    app.set_utility_counter(ResourceType.WAKELOCK, object())  # no crash


def test_ambient_events_wake_device(phone_factory):
    phone = phone_factory(ambient=True, ambient_mean_s=30.0)
    seen = []
    phone.ambient_listeners.append(lambda: seen.append(phone.sim.now))
    phone.run_for(minutes=10.0)
    assert len(seen) >= 5


def test_run_for_unit_combinations(phone):
    phone.run_for(seconds=30.0, minutes=1.0)
    assert phone.sim.now == pytest.approx(90.0)
    phone.run_for(hours=0.5)
    assert phone.sim.now == pytest.approx(90.0 + 1800.0)


def test_post_notification_counts_as_visible_value(phone):
    app = phone.install(Idle())
    app.post_notification("new message")
    assert len(app.notification_times) == 1
    assert app.ui_updates_in(0.0, 1.0) == 1  # feeds generic utility
