"""The PowerMonitor/EnergyLedger hot-path optimisations.

The ledger keeps per-uid running totals and the monitor skips work for
unchanged ``set_rail`` calls and zero-draw settles; these tests pin that
the *accounting* is unchanged by comparing against a brute-force
reference, and that the fast paths actually trigger.
"""

import random

import pytest

from repro.device.power import EnergyLedger, PowerMonitor, SYSTEM_UID
from repro.device.profiles import PIXEL_XL
from repro.sim.engine import Simulator


def make_monitor():
    sim = Simulator()
    return sim, PowerMonitor(sim, PIXEL_XL, None)


class ReferenceLedger:
    """The pre-optimisation semantics: a flat (uid, rail) map, scanned."""

    def __init__(self):
        self.energy = {}

    def add(self, uid, rail, mj):
        self.energy[(uid, rail)] = self.energy.get((uid, rail), 0.0) + mj

    def app_total(self, uid):
        return sum(e for (u, __), e in self.energy.items() if u == uid)

    def rail_total(self, rail):
        return sum(e for (__, r), e in self.energy.items() if r == rail)

    def total(self):
        return sum(self.energy.values())

    def by_app(self):
        totals = {}
        for (uid, __), e in self.energy.items():
            totals[uid] = totals.get(uid, 0.0) + e
        return totals


def test_running_totals_match_reference_on_scripted_workload():
    """A seeded random rail workload: every query equals the reference."""
    rng = random.Random(2019)
    sim, monitor = make_monitor()
    reference = ReferenceLedger()
    rails = ["cpu", "gps", "screen", "wifi", "sensor"]
    owner_sets = [(), (1,), (2,), (1, 2), (2, 3, 4)]
    segments = []  # (rail, power, owners) active per step
    state = {}
    for __ in range(200):
        rail = rng.choice(rails)
        power = rng.choice([0.0, 10.0, 35.0, 120.0])
        owners = rng.choice(owner_sets)
        monitor.set_rail(rail, power, owners)
        state[rail] = (power, owners)
        dt = rng.uniform(0.0, 5.0)
        sim.run_until(sim.now + dt)
        for r, (p, o) in state.items():
            if p <= 0:
                continue
            share = p * dt / (len(o) or 1)
            for uid in (o or (SYSTEM_UID,)):
                reference.add(uid, r, share)
    monitor.settle()
    ledger = monitor.ledger
    assert ledger.total_mj() == pytest.approx(reference.total())
    for uid in (1, 2, 3, 4, SYSTEM_UID):
        assert ledger.app_total_mj(uid) == \
            pytest.approx(reference.app_total(uid))
    for rail in rails:
        assert ledger.rail_total_mj(rail) == \
            pytest.approx(reference.rail_total(rail))
    by_app = ledger.by_app()
    for uid, expected in reference.by_app().items():
        assert by_app[uid] == pytest.approx(expected)


def test_unchanged_set_rail_skips_settle(monkeypatch):
    sim, monitor = make_monitor()
    monitor.set_rail("cpu", 100.0, (1,))
    calls = []
    original = PowerMonitor.settle
    monkeypatch.setattr(PowerMonitor, "settle",
                        lambda self: calls.append(1) or original(self))
    monitor.set_rail("cpu", 100.0, (1,))  # identical: no settle
    assert calls == []
    monitor.set_rail("cpu", 100.0, (1, 2))  # owners changed: settles
    assert calls == [1]
    monitor.set_rail("cpu", 50.0, (1, 2))  # power changed: settles
    assert calls == [1, 1]


def test_unchanged_set_rail_keeps_accounting_exact():
    sim, monitor = make_monitor()
    monitor.set_rail("cpu", 100.0, (1,))
    sim.run_until(5.0)
    monitor.set_rail("cpu", 100.0, (1,))  # fast path mid-interval
    sim.run_until(10.0)
    assert monitor.app_energy_mj(1) == pytest.approx(1000.0)


def test_zero_draw_settle_advances_without_accumulating():
    sim, monitor = make_monitor()
    monitor.set_rail("cpu", 100.0, (1,))
    sim.run_until(2.0)
    monitor.set_rail("cpu", 0.0, ())
    sim.run_until(100.0)
    monitor.settle()
    assert monitor.ledger.total_mj() == pytest.approx(200.0)
    assert monitor._last_settle == 100.0
    # and the next drawing interval integrates from here, not from 2.0
    monitor.set_rail("cpu", 10.0, (1,))
    sim.run_until(101.0)
    monitor.settle()
    assert monitor.ledger.app_total_mj(1) == pytest.approx(210.0)


def test_cleared_rail_leaves_drawing_set():
    sim, monitor = make_monitor()
    monitor.set_rail("gps", 100.0, (1,))
    assert "gps" in monitor._drawing
    monitor.clear_rail("gps")
    assert "gps" not in monitor._drawing
    assert monitor.rail_power("gps") == 0.0
    assert monitor.instantaneous_power_mw() == 0.0


def test_app_total_does_not_scan_rails():
    """O(1) query: the per-uid total is independent of rail count."""
    ledger = EnergyLedger()
    for index in range(1000):
        ledger.add(SYSTEM_UID, "rail{}".format(index), 1.0)
    ledger.add(7, "cpu", 42.0)
    # the uid map holds two entries regardless of 1001 (uid, rail) keys
    assert len(ledger._by_uid) == 2
    assert ledger.app_total_mj(7) == pytest.approx(42.0)
    assert ledger.total_mj() == pytest.approx(1042.0)


def test_queries_do_not_mutate_ledger():
    ledger = EnergyLedger()
    ledger.add(1, "cpu", 1.0)
    ledger.app_total_mj(99)
    ledger.rail_total_mj("nope")
    ledger.app_rail_mj(99, "cpu")
    assert 99 not in ledger._by_uid
    assert "nope" not in ledger._by_rail
    assert (99, "cpu") not in ledger._energy_mj
    assert ledger.by_app() == {1: 1.0}
    assert ledger.snapshot() == {(1, "cpu"): 1.0}


def test_ledger_entries_appear_only_when_energy_is_booked():
    """A rail's ledger cells are looked up at its first integrating
    settle: a draw that never lasted books nothing, not even a zero."""
    sim, monitor = make_monitor()
    monitor.set_rail("gps", 100.0, (5,))
    monitor.set_rail("gps", 0.0, ())  # same instant: nothing elapsed
    sim.run_until(3.0)
    monitor.settle()
    assert monitor.ledger.snapshot() == {}
    assert monitor.ledger.by_app() == {}
    assert monitor.ledger.rail_total_mj("gps") == 0.0
    assert "gps" not in monitor.ledger._by_rail
