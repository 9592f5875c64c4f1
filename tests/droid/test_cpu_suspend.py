"""Tests for the CPU power model and suspend controller."""

import pytest

from repro.device.power import PowerMonitor
from repro.device.profiles import PIXEL_XL
from repro.droid.cpu import CpuPowerModel
from repro.droid.suspend import SuspendController
from repro.sim.engine import Simulator
from repro.sim.events import Timeout


def make_stack():
    sim = Simulator()
    monitor = PowerMonitor(sim, PIXEL_XL)
    cpu = CpuPowerModel(sim, monitor, PIXEL_XL)
    suspend = SuspendController(sim, cpu)
    return sim, monitor, cpu, suspend


def test_cpu_time_accrues_while_computing():
    sim, __, cpu, __ = make_stack()
    cpu.begin_compute(1, cores=2.0)
    sim.run_until(5.0)
    assert cpu.cpu_time(1) == pytest.approx(10.0)  # core-seconds
    cpu.end_compute(1, cores=2.0)
    sim.run_until(10.0)
    assert cpu.cpu_time(1) == pytest.approx(10.0)


def test_compute_rail_attribution():
    sim, monitor, cpu, __ = make_stack()
    cpu.begin_compute(7)
    sim.run_until(2.0)
    monitor.settle()
    assert monitor.ledger.app_total_mj(7) == pytest.approx(
        2.0 * PIXEL_XL.cpu_active_mw
    )


def test_cores_capped_at_profile():
    sim, __, cpu, __ = make_stack()
    cpu.begin_compute(1, cores=100.0)
    sim.run_until(1.0)
    assert cpu.cpu_time(1) == pytest.approx(PIXEL_XL.cpu_cores)


def test_suspend_stops_cpu_time_and_drops_rail():
    sim, monitor, cpu, __ = make_stack()
    cpu.begin_compute(1)
    sim.run_until(2.0)
    cpu.set_suspended(True)
    sim.run_until(10.0)
    assert cpu.cpu_time(1) == pytest.approx(2.0)
    assert monitor.rail_power("cpu_active:1") == 0.0
    assert monitor.rail_power(CpuPowerModel.BASE_RAIL) == \
        PIXEL_XL.cpu_sleep_mw
    cpu.set_suspended(False)
    sim.run_until(11.0)
    assert cpu.cpu_time(1) == pytest.approx(3.0)


def test_querying_an_unknown_uid_changes_nothing():
    """A query must not register the uid: a registered uid would get a
    zero ``cpu_active`` rail at the next recompute, and with it an extra
    settle point that changes every later result."""
    sim, monitor, cpu, __ = make_stack()
    cpu.begin_compute(1)
    sim.run_until(2.0)
    cpu.cpu_time(1)  # settle the CPU time at t=2 first
    computing, cpu_time = dict(cpu._computing), dict(cpu._cpu_time)
    rails = list(monitor._rails)
    assert cpu.cpu_time(99) == 0.0
    assert cpu.cpu_energy_mj(99) == 0.0
    assert dict(cpu._computing) == computing
    assert dict(cpu._cpu_time) == cpu_time
    assert list(monitor._rails) == rails
    cpu.set_suspended(True)  # a full recompute
    cpu.set_suspended(False)
    assert "cpu_active:99" not in monitor._rails


def test_awake_owner_attribution():
    sim, monitor, cpu, __ = make_stack()
    cpu.set_awake_owners([5])
    sim.run_until(3.0)
    monitor.settle()
    assert monitor.ledger.app_total_mj(5) == pytest.approx(
        3.0 * PIXEL_XL.cpu_awake_idle_mw
    )


def test_suspend_controller_suspends_without_reasons():
    __, __, cpu, suspend = make_stack()
    suspend._reevaluate()
    assert suspend.suspended
    suspend.add_reason("wakelock")
    assert not suspend.suspended
    suspend.remove_reason("wakelock")
    assert suspend.suspended
    assert suspend.suspend_count == 2


def test_hold_awake_expires():
    sim, __, __, suspend = make_stack()
    suspend._reevaluate()
    suspend.hold_awake("launch", 5.0)
    assert suspend.awake
    sim.run_until(6.0)
    assert suspend.suspended


def test_suspend_freezes_provided_processes():
    sim, __, cpu, suspend = make_stack()
    log = []

    def worker():
        yield Timeout(10.0)
        log.append(sim.now)

    proc = sim.spawn(worker())
    suspend.set_process_provider(lambda: [proc])
    suspend.add_reason("screen")
    sim.run_until(2.0)
    suspend.remove_reason("screen")  # suspend at t=2, 8s sleep remains
    sim.run_until(20.0)
    assert log == []
    suspend.add_reason("screen")  # wake at t=20
    sim.run_until(30.0)
    assert log == [pytest.approx(28.0)]


def test_transition_listeners_notified():
    __, __, __, suspend = make_stack()
    events = []
    suspend.on_transition(events.append)
    suspend._reevaluate()
    suspend.add_reason("x")
    suspend.remove_reason("x")
    assert events == [True, False, True]


def test_suspended_time_accounting():
    sim, __, __, suspend = make_stack()
    suspend._reevaluate()  # suspended at 0
    sim.run_until(10.0)
    suspend.add_reason("x")
    sim.run_until(15.0)
    suspend.remove_reason("x")
    sim.run_until(20.0)
    assert suspend.suspended_time() == pytest.approx(15.0)
