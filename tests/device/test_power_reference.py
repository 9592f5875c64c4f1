"""Bit-exactness of the power path against a frozen reference copy.

The production ``PowerMonitor`` books shares straight into ledger cells
and ``CpuPowerModel`` re-asserts only the rails a state change can
move. Both are meant to be observationally identical to the plain
versions frozen below (per-share ``EnergyLedger.add`` calls keyed by
``(uid, rail)`` tuples, and a CPU model that re-asserts every rail on
every change): the same applied ``set_rail`` calls in the same order,
and every accumulator fed the same addends in the same order. A seeded
random workload drives both side by side and compares everything a
caller can read with ``==`` after every step, so a reordered float sum
anywhere fails here.
"""

import dataclasses
import random

from collections import defaultdict

import pytest

from repro.device.battery import Battery
from repro.device.dvfs import DvfsGovernor
from repro.device.power import PowerMonitor, SYSTEM_UID
from repro.device.profiles import PIXEL_XL
from repro.droid.cpu import CpuPowerModel
from repro.sim.engine import Simulator


# -- the frozen reference -----------------------------------------------------

class ReferenceLedger:
    def __init__(self):
        self._energy_mj = defaultdict(float)  # (uid, rail) -> mJ
        self._by_uid = defaultdict(float)  # uid -> mJ
        self._by_rail = defaultdict(float)  # rail -> mJ
        self._total_mj = 0.0

    def add(self, uid, rail, energy_mj):
        if energy_mj < 0:
            raise ValueError("energy must be non-negative, got {}".format(energy_mj))
        self._energy_mj[(uid, rail)] += energy_mj
        self._by_uid[uid] += energy_mj
        self._by_rail[rail] += energy_mj
        self._total_mj += energy_mj

    def total_mj(self):
        return self._total_mj

    def app_total_mj(self, uid):
        return self._by_uid.get(uid, 0.0)

    def app_rail_mj(self, uid, rail):
        return self._energy_mj.get((uid, rail), 0.0)

    def rail_total_mj(self, rail):
        return self._by_rail.get(rail, 0.0)

    def by_app(self):
        return dict(self._by_uid)

    def snapshot(self):
        return dict(self._energy_mj)

    def consistency_error_mj(self):
        raw_total = sum(self._energy_mj.values())
        by_uid = defaultdict(float)
        by_rail = defaultdict(float)
        for (uid, rail), energy in self._energy_mj.items():
            by_uid[uid] += energy
            by_rail[rail] += energy
        worst = abs(raw_total - self._total_mj)
        for uid, energy in self._by_uid.items():
            worst = max(worst, abs(energy - by_uid.get(uid, 0.0)))
        for rail, energy in self._by_rail.items():
            worst = max(worst, abs(energy - by_rail.get(rail, 0.0)))
        return worst


class _ReferenceRail:
    __slots__ = ("power_mw", "owners")

    def __init__(self):
        self.power_mw = 0.0
        self.owners = ()


class ReferenceMonitor:
    def __init__(self, sim, profile, battery=None):
        self.sim = sim
        self.profile = profile
        self.battery = battery
        self.ledger = ReferenceLedger()
        self._rails = defaultdict(_ReferenceRail)
        self._drawing = {}
        self._last_settle = sim.now
        self._instant_mw = 0.0
        self._instant_dirty = False
        self.rail_listeners = []

    def set_rail(self, rail, power_mw, owners=()):
        if power_mw < 0:
            raise ValueError("rail power must be >= 0, got {}".format(power_mw))
        power_mw = float(power_mw)
        owners = tuple(owners)
        state = self._rails.get(rail)
        if state is not None and state.power_mw == power_mw \
                and state.owners == owners:
            return
        self.settle()
        if state is None:
            state = self._rails[rail]
        state.power_mw = power_mw
        state.owners = owners
        if power_mw > 0.0:
            self._drawing[rail] = state
        else:
            self._drawing.pop(rail, None)
        self._instant_dirty = True
        for listener in self.rail_listeners:
            listener(rail, power_mw, owners)

    def settle(self):
        now = self.sim.now
        if now == self._last_settle:
            return
        elapsed = now - self._last_settle
        if elapsed <= 0 or not self._drawing:
            self._last_settle = now
            return
        drained_mj = 0.0
        for rail, state in self._drawing.items():
            energy_mj = state.power_mw * elapsed
            drained_mj += energy_mj
            owners = state.owners or (SYSTEM_UID,)
            share = energy_mj / len(owners)
            for uid in owners:
                self.ledger.add(uid, rail, share)
        if self.battery is not None and drained_mj > 0:
            self.battery.drain_mj(drained_mj)
        self._last_settle = now

    def add_energy(self, uid, rail, energy_mj):
        self.ledger.add(uid, rail, energy_mj)
        if self.battery is not None:
            self.battery.drain_mj(energy_mj)

    def instantaneous_power_mw(self):
        if self._instant_dirty:
            self._instant_mw = sum(s.power_mw for s in self._drawing.values())
            self._instant_dirty = False
        return self._instant_mw


class ReferenceCpu:
    BASE_RAIL = "cpu_base"

    def __init__(self, sim, monitor, profile, dvfs=None):
        self.sim = sim
        self.monitor = monitor
        self.profile = profile
        self.dvfs = dvfs
        self.suspended = False
        self._awake_owner_uids = ()
        self._computing = defaultdict(float)
        self._cpu_time = defaultdict(float)
        self._last_settle = sim.now
        self._recompute()

    def _settle_times(self):
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed > 0 and not self.suspended:
            for uid, cores in self._computing.items():
                if cores > 0:
                    self._cpu_time[uid] += elapsed * min(
                        cores, self.profile.cpu_cores
                    )
        self._last_settle = now

    def cpu_time(self, uid):
        self._settle_times()
        return self._cpu_time[uid]

    def current_power_scale(self):
        if self.dvfs is None:
            return 1.0
        load = min(1.0, sum(self._computing.values())
                   / self.profile.cpu_cores)
        return self.dvfs.power_scale_for_load(load)

    def set_suspended(self, suspended):
        if suspended == self.suspended:
            return
        self._settle_times()
        self.suspended = suspended
        self._recompute()

    def set_awake_owners(self, uids):
        self._awake_owner_uids = tuple(uids)
        self._recompute()

    def begin_compute(self, uid, cores=1.0):
        self._settle_times()
        self._computing[uid] += cores
        self._recompute()

    def end_compute(self, uid, cores=1.0):
        self._settle_times()
        self._computing[uid] = max(0.0, self._computing[uid] - cores)
        self._recompute()

    def _recompute(self):
        profile = self.profile
        if self.suspended:
            self.monitor.set_rail(self.BASE_RAIL, profile.cpu_sleep_mw, ())
            for uid in self._computing:
                self.monitor.set_rail("cpu_active:{}".format(uid), 0.0, ())
            return
        self.monitor.set_rail(
            self.BASE_RAIL, profile.cpu_awake_idle_mw, self._awake_owner_uids
        )
        scale = self.current_power_scale()
        for uid, cores in self._computing.items():
            effective = min(cores, profile.cpu_cores)
            self.monitor.set_rail(
                "cpu_active:{}".format(uid),
                profile.cpu_active_mw * effective * scale,
                (uid,),
            )


# -- the side-by-side workload ------------------------------------------------

#: Draws with no short binary expansion, so a reordered sum shows in
#: the last bits instead of cancelling out.
PROFILE = dataclasses.replace(PIXEL_XL, cpu_sleep_mw=4.71,
                              cpu_awake_idle_mw=31.3, cpu_active_mw=337.9)
UIDS = (10001, 10002, 10003, 10004, 10005)
NEVER_COMPUTED = 10009
RAILS = ("gps", "screen", "wifi_lock", "sensor:light:7", "audio:3")
OWNER_SETS = ((), (10001,), (10002, 10003), (10001, 10004, 10005),
              (10003, 10003), (SYSTEM_UID, 10002))
CORES = (0.5, 1.0, 1.5, 2.0, 3.25, 5.0)


class _Stack:
    """One monitor + CPU model + battery, recording every listener call."""

    def __init__(self, sim, monitor_cls, cpu_cls, dvfs):
        self.battery = Battery.for_profile(PROFILE, level=0.9)
        self.monitor = monitor_cls(sim, PROFILE, self.battery)
        self.calls = []
        self.monitor.rail_listeners.append(
            lambda *call: self.calls.append(call))
        self.cpu = cpu_cls(sim, self.monitor, PROFILE,
                           dvfs=DvfsGovernor() if dvfs else None)


def _random_op(rng, fresh):
    """One seeded operation, as a function applied to each stack."""
    roll = rng.random()
    uid = rng.choice(UIDS)
    if roll < 0.25:
        cores = rng.choice(CORES)
        return lambda s: s.cpu.begin_compute(uid, cores)
    if roll < 0.45:
        cores = rng.choice(CORES)
        uid = NEVER_COMPUTED if rng.random() < 0.05 else uid
        return lambda s: s.cpu.end_compute(uid, cores)
    if roll < 0.52:
        suspended = rng.random() < 0.5
        return lambda s: s.cpu.set_suspended(suspended)
    if roll < 0.62:
        owners = sorted(rng.sample(UIDS, rng.randint(0, 3)))
        return lambda s: s.cpu.set_awake_owners(owners)
    if roll < 0.80:
        rail = rng.choice(RAILS)
        power = rng.choice((0.0, rng.uniform(0.1, 600.0)))
        owners = rng.choice(OWNER_SETS)
        return lambda s: s.monitor.set_rail(rail, power, owners)
    if roll < 0.84:
        # Re-assert a rail as it stands: a no-op on both sides.
        rail = rng.choice(RAILS)

        def reassert(s):
            state = s.monitor._rails.get(rail)
            if state is not None:
                s.monitor.set_rail(rail, state.power_mw, state.owners)
        return reassert
    if roll < 0.88:
        # A rail's first creation at 0 mW settles and notifies.
        rail = "fresh:{}".format(next(fresh))
        owners = rng.choice(OWNER_SETS)
        return lambda s: s.monitor.set_rail(rail, 0.0, owners)
    if roll < 0.94:
        owner = rng.choice(UIDS + (SYSTEM_UID,))
        rail = rng.choice(RAILS + ("lease_mgmt", "cpu_base"))
        energy = rng.choice((0.0, rng.uniform(0.0, 5.0)))
        return lambda s: s.monitor.add_energy(owner, rail, energy)
    if roll < 0.97:
        return lambda s: s.monitor.settle()
    return lambda s: s.cpu.cpu_time(uid)


def _assert_identical(new, ref):
    new_ledger, ref_ledger = new.monitor.ledger, ref.monitor.ledger
    assert list(new_ledger.snapshot().items()) == \
        list(ref_ledger.snapshot().items())
    assert list(new_ledger.by_app().items()) == \
        list(ref_ledger.by_app().items())
    assert new_ledger.total_mj() == ref_ledger.total_mj()
    assert new_ledger.consistency_error_mj() == \
        ref_ledger.consistency_error_mj()
    for uid in UIDS + (NEVER_COMPUTED, SYSTEM_UID):
        assert new_ledger.app_total_mj(uid) == ref_ledger.app_total_mj(uid)
    for rail in ref_ledger._by_rail:
        assert new_ledger.rail_total_mj(rail) == \
            ref_ledger.rail_total_mj(rail)
        for uid in UIDS + (SYSTEM_UID,):
            assert new_ledger.app_rail_mj(uid, rail) == \
                ref_ledger.app_rail_mj(uid, rail)
    assert new.battery.remaining_mj == ref.battery.remaining_mj
    assert new.monitor.instantaneous_power_mw() == \
        ref.monitor.instantaneous_power_mw()
    assert list(new.monitor._drawing) == list(ref.monitor._drawing)
    assert new.calls == ref.calls
    for uid in UIDS:
        assert new.cpu._cpu_time.get(uid, 0.0) == \
            ref.cpu._cpu_time.get(uid, 0.0)


@pytest.mark.parametrize("dvfs", [False, True], ids=["dvfs-off", "dvfs-on"])
@pytest.mark.parametrize("seed", [2019, 7])
def test_power_path_matches_frozen_reference_bit_for_bit(seed, dvfs):
    rng = random.Random(seed)
    sim = Simulator()
    new = _Stack(sim, PowerMonitor, CpuPowerModel, dvfs)
    ref = _Stack(sim, ReferenceMonitor, ReferenceCpu, dvfs)
    fresh = iter(range(10 ** 6))
    _assert_identical(new, ref)
    for __ in range(1500):
        op = _random_op(rng, fresh)
        op(new)
        op(ref)
        _assert_identical(new, ref)
        if rng.random() < 0.7:
            sim.run_until(sim.now + rng.choice((0.0, rng.uniform(0.0, 7.0))))
    new.monitor.settle()
    ref.monitor.settle()
    _assert_identical(new, ref)
    for uid in UIDS + (NEVER_COMPUTED,):
        assert new.cpu.cpu_time(uid) == ref.cpu.cpu_time(uid)
    # The workload reached every branch it is meant to cover.
    rails = {call[0] for call in ref.calls}
    assert {"cpu_base", "cpu_active:{}".format(NEVER_COMPUTED)} <= rails
    assert any(rail.startswith("fresh:") for rail in rails)
    assert len(ref.monitor.ledger._by_uid) >= len(UIDS)
