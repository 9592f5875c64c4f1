"""Power accounting: rails, the energy ledger, and per-app attribution.

The monitor models the device as a set of named *rails* (``cpu_awake``,
``screen``, ``gps``, ``wifi``, per-app ``cpu_active:<uid>`` rails, ...).
Each rail has a current draw in mW and a tuple of owner UIDs the draw is
attributed to (split equally); an empty owner tuple attributes to the
system. Energy is integrated lazily: every rail change first *settles*
the elapsed interval at the old draw.

This is the substitute for the paper's Monsoon (system power) and Trepn
(per-app power) measurements -- see DESIGN.md substitution #2.
"""

from collections import defaultdict

from repro.io import left_sum

#: UID used for draws not attributable to any app (OS, baseline hardware).
SYSTEM_UID = 1000


class _Cell:
    """One running energy total in mJ, shared by reference."""

    __slots__ = ("mj",)

    def __init__(self):
        self.mj = 0.0


def _cell(cells, key):
    cell = cells.get(key)
    if cell is None:
        cell = cells[key] = _Cell()
    return cell


def _value(cells, key):
    cell = cells.get(key)
    return 0.0 if cell is None else cell.mj


class EnergyLedger:
    """Accumulated energy per (uid, rail) in millijoules.

    Alongside the raw (uid, rail) map the ledger maintains per-uid,
    per-rail and grand running totals, so the hot queries
    (:meth:`app_total_mj`, :meth:`by_app`, :meth:`total_mj`) are O(1)
    in the number of rails instead of scanning every key.

    Every total but the grand one is a :class:`_Cell`, created on the
    first energy booked to its key. :class:`PowerMonitor` keeps each
    drawing rail's cells (:meth:`cells`) and adds to them directly, so
    a settle builds no key and hashes nothing per owner; every total
    still receives the same addends in the same order as through
    :meth:`add`.
    """

    def __init__(self):
        self._energy_mj = {}  # (uid, rail) -> _Cell
        self._by_uid = {}  # uid -> _Cell
        self._by_rail = {}  # rail -> _Cell
        self._total_mj = 0.0

    def add(self, uid, rail, energy_mj):
        if energy_mj < 0:
            raise ValueError("energy must be non-negative, got {}".format(energy_mj))
        _cell(self._energy_mj, (uid, rail)).mj += energy_mj
        _cell(self._by_uid, uid).mj += energy_mj
        _cell(self._by_rail, rail).mj += energy_mj
        self._total_mj += energy_mj

    def cells(self, rail, owners):
        """The totals a draw on ``rail`` split over ``owners`` books to.

        Returns ``(rail_cell, ((pair_cell, uid_cell), ...))``, one pair
        per owner in order, creating missing cells in the order
        :meth:`add` would for the first share of each owner. The grand
        total is the caller's to add to (``_total_mj``).
        """
        return (_cell(self._by_rail, rail),
                tuple((_cell(self._energy_mj, (uid, rail)),
                       _cell(self._by_uid, uid)) for uid in owners))

    def total_mj(self):
        """Total energy consumed by the whole device, in mJ."""
        return self._total_mj

    def app_total_mj(self, uid):
        """Total energy attributed to ``uid`` across all rails, in mJ."""
        return _value(self._by_uid, uid)

    def app_rail_mj(self, uid, rail):
        return _value(self._energy_mj, (uid, rail))

    def rail_total_mj(self, rail):
        return _value(self._by_rail, rail)

    def by_app(self):
        """Mapping of uid -> total mJ."""
        return {uid: cell.mj for uid, cell in self._by_uid.items()}

    def snapshot(self):
        """A copy of the raw (uid, rail) -> mJ mapping."""
        return {key: cell.mj for key, cell in self._energy_mj.items()}

    def consistency_error_mj(self):
        """Worst disagreement between the raw map and the running totals.

        The ledger maintains the per-uid, per-rail and grand totals
        incrementally; this recomputes each from the raw (uid, rail) map
        and returns the largest absolute difference in mJ. Anything
        beyond float-summation noise means the O(1) fast paths and the
        ground truth have diverged -- the energy-conservation invariant
        (:mod:`repro.faults.invariants`) checks this continuously.
        """
        raw = self.snapshot()
        raw_total = left_sum(raw.values())
        by_uid = defaultdict(float)
        by_rail = defaultdict(float)
        for (uid, rail), energy in raw.items():
            by_uid[uid] += energy
            by_rail[rail] += energy
        worst = abs(raw_total - self._total_mj)
        for uid, cell in self._by_uid.items():
            worst = max(worst, abs(cell.mj - by_uid.get(uid, 0.0)))
        for rail, cell in self._by_rail.items():
            worst = max(worst, abs(cell.mj - by_rail.get(rail, 0.0)))
        return worst


class _Rail:
    __slots__ = ("power_mw", "owners", "one", "cells")

    def __init__(self):
        self.power_mw = 0.0
        self.owners = ()
        #: The ledger cells for the current owners, looked up at the
        #: first settle that integrates them (None until then): for a
        #: single owner (the system, for none) the ``(pair, uid, rail)``
        #: cell triple in ``one``, otherwise ``EnergyLedger.cells`` in
        #: ``cells``.
        self.one = None
        self.cells = None


class PowerMonitor:
    """Integrates rail power over simulated time into an energy ledger.

    The monitor never samples: it settles exactly at each state change, so
    integration is exact for the piecewise-constant power model. A
    :class:`~repro.device.battery.Battery` may be attached; settled energy
    drains it.
    """

    def __init__(self, sim, profile, battery=None):
        self.sim = sim
        self.profile = profile
        self.battery = battery
        self.ledger = EnergyLedger()
        self._rails = defaultdict(_Rail)
        #: Rails with a positive draw -- the only ones settle() must
        #: integrate (zero rails stay registered but cost nothing).
        self._drawing = {}
        self._last_settle = sim.now
        #: Cached instantaneous total; recomputed (exact, same summation
        #: order as the historical per-call scan) only after a rail change.
        self._instant_mw = 0.0
        self._instant_dirty = False
        #: Callables invoked as ``listener(rail, power_mw, owners)`` after
        #: every *applied* rail change (no-op re-assertions don't notify).
        #: Event-driven samplers subscribe here instead of polling.
        self.rail_listeners = []

    # -- rail manipulation -------------------------------------------------

    def set_rail(self, rail, power_mw, owners=()):
        """Set a rail's draw and attribution, settling the elapsed interval.

        ``owners`` is an iterable of UIDs the draw is split across; empty
        means the system. A draw of 0 keeps the rail registered but free.
        Re-asserting an unchanged draw and owner set is a no-op (no
        settle), which keeps chatty callers off the integration path.
        """
        if power_mw < 0:
            raise ValueError("rail power must be >= 0, got {}".format(power_mw))
        if type(power_mw) is not float:
            power_mw = float(power_mw)
        if type(owners) is not tuple:
            owners = tuple(owners)
        state = self._rails.get(rail)
        if state is not None and state.power_mw == power_mw \
                and state.owners == owners:
            return
        self.settle()
        if state is None:
            state = self._rails[rail]
        state.power_mw = power_mw
        if state.owners != owners:
            state.owners = owners
            state.one = state.cells = None
        if power_mw > 0.0:
            self._drawing[rail] = state
        else:
            self._drawing.pop(rail, None)
        self._instant_dirty = True
        for listener in self.rail_listeners:
            listener(rail, power_mw, owners)

    def clear_rail(self, rail):
        """Zero a rail (same as ``set_rail(rail, 0.0)``)."""
        self.set_rail(rail, 0.0, ())

    def rail_power(self, rail):
        return self._rails[rail].power_mw if rail in self._rails else 0.0

    def rail_owners(self, rail):
        return self._rails[rail].owners if rail in self._rails else ()

    # -- integration -------------------------------------------------------

    def settle(self):
        """Integrate all drawing rails from the last settle point to now."""
        now = self.sim.now
        if now == self._last_settle:
            return
        elapsed = now - self._last_settle
        if elapsed <= 0 or not self._drawing:
            # Nothing drew over the interval: advance the settle point
            # without walking the rail table.
            self._last_settle = now
            return
        # Each share goes straight into the ledger's cells, in the order
        # EnergyLedger.add would book it; the grand total is summed in
        # a local in that same order and stored back once.
        ledger = self.ledger
        total_mj = ledger._total_mj
        drained_mj = 0.0
        for rail, state in self._drawing.items():
            energy_mj = state.power_mw * elapsed  # mW == mJ/s
            drained_mj += energy_mj
            one = state.one
            if one is None and state.cells is None:
                one = self._look_up_cells(rail, state)
            if one is None:
                rail_cell, owner_cells = state.cells
                share = energy_mj / len(owner_cells)
                for pair_cell, uid_cell in owner_cells:
                    pair_cell.mj += share
                    uid_cell.mj += share
                    rail_cell.mj += share
                    total_mj += share
                continue
            # The common case, without the loop: the one owner's share
            # is the whole draw (``x / 1`` is exact).
            pair_cell, uid_cell, rail_cell = one
            pair_cell.mj += energy_mj
            uid_cell.mj += energy_mj
            rail_cell.mj += energy_mj
            total_mj += energy_mj
        ledger._total_mj = total_mj
        battery = self.battery
        if battery is not None and drained_mj > 0:
            # Battery.drain_mj inline, with its clamp at empty.
            remaining_mj = battery.remaining_mj
            battery.remaining_mj = remaining_mj - (
                remaining_mj if remaining_mj < drained_mj else drained_mj)
        self._last_settle = now

    def _look_up_cells(self, rail, state):
        """Cache ``state``'s ledger cells; returns its ``one`` triple
        (None with several owners)."""
        rail_cell, owner_cells = self.ledger.cells(
            rail, state.owners or (SYSTEM_UID,))
        if len(owner_cells) == 1:
            (pair_cell, uid_cell), = owner_cells
            state.one = (pair_cell, uid_cell, rail_cell)
        else:
            state.cells = (rail_cell, owner_cells)
        return state.one

    def add_energy(self, uid, rail, energy_mj):
        """Account a discrete energy cost (e.g. one lease-stat update).

        Used for costs that are better modelled as per-operation energy
        than as a rail draw. Drains the battery like any other energy.
        """
        self.ledger.add(uid, rail, energy_mj)
        if self.battery is not None:
            self.battery.drain_mj(energy_mj)

    # -- queries -----------------------------------------------------------

    def instantaneous_power_mw(self):
        """Current total system draw in mW (sum of all drawing rails).

        O(1) between rail changes: the sum is cached and only recomputed
        after a ``set_rail`` that actually changed something. The
        recomputation walks ``_drawing`` in the same insertion order as
        the historical per-call scan, so values are bit-identical.
        """
        if self._instant_dirty:
            self._instant_mw = left_sum(
                s.power_mw for s in self._drawing.values())
            self._instant_dirty = False
        return self._instant_mw

    def app_power_mw(self, uid):
        """Current draw attributed to ``uid`` in mW."""
        total = 0.0
        for state in self._drawing.values():
            owners = state.owners or (SYSTEM_UID,)
            if uid in owners:
                total += state.power_mw / len(owners)
        return total

    def app_energy_mj(self, uid):
        """Settled energy attributed to ``uid`` so far, in mJ."""
        self.settle()
        return self.ledger.app_total_mj(uid)
