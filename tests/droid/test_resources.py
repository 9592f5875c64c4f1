"""Tests for binder tokens and kernel-object accounting."""

import pytest

from repro.droid.resources import IBinder, KernelObject, ResourceType
from repro.sim.engine import Simulator


def test_binder_tokens_unique_and_hashable():
    ids = Simulator().ids  # the device's id source, as services use it
    a, b = IBinder(next(ids)), IBinder(next(ids))
    assert a != b
    assert a == a
    assert len({a, b, a}) == 2


def test_kernel_object_held_time_accounting():
    sim = Simulator()
    obj = KernelObject(sim, 1, ResourceType.WAKELOCK, "k")
    obj.mark_held(True)
    sim.run_until(10.0)
    obj.settle()
    assert obj.held_time == pytest.approx(10.0)
    obj.mark_held(False)
    sim.run_until(20.0)
    obj.settle()
    assert obj.held_time == pytest.approx(10.0)


def test_active_vs_held_diverge_under_revocation():
    """The app-view (held) and OS-view (active) are independent clocks."""
    sim = Simulator()
    obj = KernelObject(sim, 1, ResourceType.WAKELOCK)
    obj.mark_held(True)
    obj.mark_active(True)
    sim.run_until(5.0)
    obj.mark_active(False)  # governor revoked; app still believes it holds
    sim.run_until(12.0)
    counters = obj.counters()
    assert counters["held_time"] == pytest.approx(12.0)
    assert counters["active_time"] == pytest.approx(5.0)


def test_double_mark_active_is_idempotent():
    sim = Simulator()
    obj = KernelObject(sim, 1, ResourceType.GPS)
    obj.mark_active(True)
    sim.run_until(3.0)
    obj.mark_active(True)
    sim.run_until(6.0)
    obj.settle()
    assert obj.active_time == pytest.approx(6.0)


def test_counters_snapshot_contains_counts():
    sim = Simulator()
    obj = KernelObject(sim, 1, ResourceType.SENSOR)
    obj.acquire_count = 3
    obj.release_count = 2
    counters = obj.counters()
    assert counters["acquire_count"] == 3
    assert counters["release_count"] == 2
