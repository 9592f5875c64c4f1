"""``sweep_expired``: one sweep routine for the GC timer and callers."""

from repro.core.policy import LeasePolicy
from repro.droid.app import App
from repro.mitigation import LeaseOS

from tests.conftest import make_phone


class OneShot(App):
    """Works once, releases, then idles forever: GC bait."""

    app_name = "one-shot"

    def run(self):
        lock = self.ctx.power.new_wakelock(self, "once")
        lock.acquire()
        yield from self.compute(1.0)
        lock.release()
        while True:
            yield self.sleep(1000.0)


def _idle_phone(gc_sweep_interval_s):
    policy = LeasePolicy(gc_idle_s=100.0,
                         gc_sweep_interval_s=gc_sweep_interval_s)
    mitigation = LeaseOS(policy=policy)
    phone = make_phone(mitigation=mitigation)
    phone.install(OneShot())
    return phone, mitigation.manager


def test_explicit_sweep_matches_the_periodic_timer_exactly():
    timed_phone, timed = _idle_phone(gc_sweep_interval_s=120.0)
    timed_phone.run_for(seconds=600.0)

    manual_phone, manual = _idle_phone(gc_sweep_interval_s=0.0)
    manual_phone.run_for(seconds=600.0)
    assert len(manual.leases) == 1  # timer off: nothing collected yet
    removed = manual.sweep_expired()

    assert removed == 1
    assert timed.gc_removed == manual.gc_removed == 1
    assert len(timed.leases) == len(manual.leases) == 0


def test_sweep_expired_spares_busy_and_young_leases():
    phone, manager = _idle_phone(gc_sweep_interval_s=0.0)
    phone.run_for(seconds=50.0)  # released, but not idle long enough
    assert manager.sweep_expired() == 0
    assert len(manager.leases) == 1
