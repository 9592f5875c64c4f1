"""The discrete-event loop and clock.

The simulator keeps a priority queue of ``(deadline, seq, timer)``
entries where ``seq`` is a monotonically increasing tie-breaker, so
simultaneous events always run in scheduling order and every run is
deterministic. Keying the heap by a plain tuple keeps comparisons in C
(no Python ``__lt__`` calls on the hot path).

Cancelled timers are lazily deleted: ``Timer.cancel`` only marks the
entry and tells the simulator, and the dispatch loop skips marked
entries when they surface. When cancelled entries come to dominate the
heap the simulator compacts it in one O(n) pass, so workloads that arm
and re-arm far-future watchdogs (wakelock timeouts, app watchdogs) do
not drag a bloated heap through every push and pop.
"""

import heapq
import itertools

from heapq import heappop as _heappop, heappush as _heappush
from time import monotonic as _monotonic

_INF = float("inf")


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


class BudgetExceeded(SimulationError):
    """A run crossed its :class:`RunBudget`; carries kernel diagnostics.

    ``reason`` names the limit that tripped (``"max_events"``,
    ``"max_sim_s"`` or ``"max_wall_s"``); ``diagnostics`` is a plain
    dict snapshot of the kernel at abort time (simulated clock, events
    charged, heap size, pending events, wall seconds) so a supervised
    worker can report *why* a job span out of control without the
    parent attaching a debugger to a hung process.
    """

    def __init__(self, reason, diagnostics):
        self.reason = reason
        self.diagnostics = dict(diagnostics)
        detail = ", ".join(
            "{}={}".format(key, self.diagnostics[key])
            for key in sorted(self.diagnostics))
        super().__init__(
            "simulation budget exceeded ({}): {}".format(reason, detail))


class RunBudget:
    """Runaway guard for simulation runs: abort cleanly, never spin.

    A budget bounds a *job*, not a single simulator: arming the same
    instance on several simulators (e.g. every device-day inside one
    fleet shard) makes ``max_events`` cumulative across them, which is
    exactly the per-job semantics a supervisor wants. Limits:

    - ``max_events``: total dispatched events charged to this budget;
    - ``max_sim_s``: the simulated clock of the *current* simulator
      (absolute seconds since its boot);
    - ``max_wall_s``: host wall-clock seconds since the first charged
      event (checked every :data:`WALL_CHECK_EVERY` events to keep
      ``time.monotonic`` off the per-event path).

    Budgets are stateful; build a fresh one per attempt (``fresh()``)
    so retries never inherit a spent budget.
    """

    #: Events between wall-clock checks (monotonic() is ~100x an int
    #: compare; every event would be measurable on the hot loop).
    WALL_CHECK_EVERY = 256

    __slots__ = ("max_events", "max_sim_s", "max_wall_s", "events",
                 "_wall_started", "_wall_countdown")

    def __init__(self, max_events=None, max_sim_s=None, max_wall_s=None):
        self.max_events = max_events
        self.max_sim_s = max_sim_s
        self.max_wall_s = max_wall_s
        self.events = 0
        self._wall_started = None
        self._wall_countdown = self.WALL_CHECK_EVERY

    def limits(self):
        """The immutable limit spec (JSON-scalar dict)."""
        return {"max_events": self.max_events, "max_sim_s": self.max_sim_s,
                "max_wall_s": self.max_wall_s}

    def fresh(self, max_wall_s=None):
        """An unspent copy; ``max_wall_s`` tightens the wall limit."""
        wall = self.max_wall_s
        if max_wall_s is not None:
            wall = max_wall_s if wall is None else min(wall, max_wall_s)
        return type(self)(max_events=self.max_events,
                          max_sim_s=self.max_sim_s, max_wall_s=wall)

    @property
    def wall_elapsed_s(self):
        if self._wall_started is None:
            return 0.0
        return _monotonic() - self._wall_started

    def charge(self, sim):
        """Account one dispatched event; raise on any crossed limit."""
        self.events += 1
        if self._wall_started is None:
            self._wall_started = _monotonic()
        if self.max_events is not None and self.events > self.max_events:
            raise BudgetExceeded("max_events", self.diagnostics(sim))
        if self.max_sim_s is not None and sim.now > self.max_sim_s:
            raise BudgetExceeded("max_sim_s", self.diagnostics(sim))
        if self.max_wall_s is not None:
            self._wall_countdown -= 1
            if self._wall_countdown <= 0:
                self._wall_countdown = self.WALL_CHECK_EVERY
                if self.wall_elapsed_s > self.max_wall_s:
                    raise BudgetExceeded("max_wall_s",
                                         self.diagnostics(sim))

    def diagnostics(self, sim):
        """Kernel snapshot for the abort report."""
        return {
            "sim_now_s": round(sim.now, 6),
            "events_charged": self.events,
            "sim_dispatched_lifetime": sim.dispatched,
            "heap_entries": len(sim._queue),
            "pending_events": sim.pending_events,
            "wall_elapsed_s": round(self.wall_elapsed_s, 3),
            "limits": self.limits(),
        }

    def __repr__(self):
        return "RunBudget(max_events={}, max_sim_s={}, max_wall_s={}, " \
            "events={})".format(self.max_events, self.max_sim_s,
                                self.max_wall_s, self.events)


#: Process-wide default budget newly constructed Simulators inherit.
#: Supervised workers arm this before executing a job spec so every
#: simulator the job builds (a fleet shard builds hundreds) shares one
#: cumulative runaway budget without any plumbing through job code.
_AMBIENT_BUDGET = None


def set_ambient_budget(budget):
    """Install (or clear, with ``None``) the process-wide default
    :class:`RunBudget`. Returns the previous one so callers can
    restore it in a ``finally``."""
    global _AMBIENT_BUDGET
    previous = _AMBIENT_BUDGET
    _AMBIENT_BUDGET = budget
    return previous


def ambient_budget():
    """The process-wide default budget, or ``None``."""
    return _AMBIENT_BUDGET


class Timer:
    """A cancellable callback scheduled on a :class:`Simulator`.

    Timers are created through :meth:`Simulator.schedule` (or the
    :meth:`Simulator.every` helper) and fire exactly once unless cancelled.
    """

    __slots__ = ("deadline", "seq", "callback", "cancelled", "fired", "_sim")

    def __init__(self, deadline, seq, callback, sim=None):
        self.deadline = deadline
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self):
        """Prevent the timer from firing. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired and self._sim is not None:
            self._sim._note_cancel()

    @property
    def pending(self):
        """True while the timer is scheduled and not yet fired/cancelled."""
        return not self.cancelled and not self.fired

    def __lt__(self, other):
        return (self.deadline, self.seq) < (other.deadline, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return "Timer(deadline={:.3f}, {})".format(self.deadline, state)


class Simulator:
    """Deterministic discrete-event simulator with a float-seconds clock.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, lambda: print("five seconds in"))
        sim.run_until(60.0)

    Processes (see :mod:`repro.sim.process`) are spawned with
    :meth:`spawn` and cooperate by yielding :class:`~repro.sim.events.Timeout`
    or :class:`~repro.sim.events.Event` instances.
    """

    #: Compaction trigger: at least this many cancelled entries *and*
    #: cancelled entries at least half the heap. Small heaps are never
    #: worth an O(n) rebuild.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start_time=0.0, budget=None):
        #: Current simulated time in seconds since boot. A plain
        #: attribute, read on nearly every event; only the loop moves it.
        self.now = float(start_time)
        self._queue = []  # heap of (deadline, seq, Timer)
        self._seq = 0
        self._running = False
        self._processes = []
        self._cancelled = 0  # cancelled entries still in the heap
        self._trace = None  # optional repro.sim.trace.KernelTrace
        self._budget = budget if budget is not None else _AMBIENT_BUDGET
        #: Total events dispatched over this simulator's lifetime
        #: (cancelled entries skipped by the loop do not count).
        self.dispatched = 0
        #: Heap compactions performed (hygiene introspection).
        self.compactions = 0
        #: The device's one id source: binder tokens, lease descriptors
        #: and alarm, job and transfer ids are ``next(sim.ids)``, so the
        #: ids a device hands out depend on its own history alone.
        self.ids = itertools.count(1)

    def schedule(self, delay, callback):
        """Schedule ``callback()`` to run after ``delay`` seconds.

        Returns the :class:`Timer`, which may be cancelled before it fires.
        A zero delay runs the callback at the current time but after any
        already-queued events for this instant.
        """
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay={})".format(delay))
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(self.now + delay, seq, callback, self)
        _heappush(self._queue, (timer.deadline, seq, timer))
        return timer

    def reschedule(self, timer, delay):
        """Re-arm a timer that has already fired, reusing the object.

        The allocation-free fast path for repeating callbacks
        (:class:`PeriodicTimer`, a process's next sleep, the next sensor
        delivery): no new :class:`Timer`, no new closure.
        Only a fired, uncancelled timer may be re-armed -- a pending or
        cancelled one may still have a live heap entry, and re-pushing it
        would dispatch the revived timer at the stale deadline.
        """
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay={})".format(delay))
        if not timer.fired or timer.cancelled:
            raise SimulationError(
                "reschedule() needs a fired, uncancelled timer, got {!r}".format(timer)
            )
        seq = self._seq
        self._seq = seq + 1
        timer.deadline = self.now + delay
        timer.seq = seq
        timer.fired = False
        _heappush(self._queue, (timer.deadline, seq, timer))
        return timer

    def at(self, when, callback):
        """Schedule ``callback()`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                "cannot schedule at t={} -- simulated time is already at "
                "t={}".format(when, self.now)
            )
        return self.schedule(when - self.now, callback)

    def every(self, interval, callback, start_after=None):
        """Run ``callback()`` every ``interval`` seconds until cancelled.

        Returns a :class:`PeriodicTimer` handle with a ``cancel()`` method.
        ``start_after`` defaults to ``interval`` (first firing one period in).
        """
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        return PeriodicTimer(self, interval, callback, start_after)

    def spawn(self, generator, name=""):
        """Start a cooperative :class:`~repro.sim.process.Process`.

        ``generator`` must be a generator iterator (the result of calling a
        generator function). The process is registered with the simulator
        and begins executing at the current simulated instant.
        """
        from repro.sim.process import Process

        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def set_trace(self, trace):
        """Install a :class:`~repro.sim.trace.KernelTrace` (or ``None``).

        While installed, every dispatched event is attributed (count and
        host wall time) to its callback site. Tracing is opt-in: with no
        trace installed the dispatch loop pays a single ``is None`` check
        per event. Re-entrant installation is supported: calling
        ``set_trace`` from inside a dispatched callback takes effect for
        the very next event of the same ``run_until``/``run`` call (the
        fault-injection layer swaps dispatch interposers mid-run this
        way).
        """
        self._trace = trace
        return trace

    @property
    def trace(self):
        """The installed kernel trace, or ``None``."""
        return self._trace

    def set_budget(self, budget):
        """Install a :class:`RunBudget` (or ``None`` to remove it).

        Takes effect for the very next dispatched event, including
        mid-run (same re-entrancy contract as :meth:`set_trace`).
        """
        self._budget = budget
        return budget

    @property
    def budget(self):
        """The armed runaway budget, or ``None``."""
        return self._budget

    def run_until(self, until):
        """Run all events with deadlines <= ``until``; set clock to ``until``."""
        if until < self.now:
            raise SimulationError(
                "cannot run backwards (now={}, until={})".format(self.now, until)
            )
        self._dispatch(until)
        self.now = until

    def run(self):
        """Run until the event queue is exhausted; the clock stays at the
        last event."""
        self._dispatch(_INF)

    def _dispatch(self, until):
        """The event loop: dispatch every event due at or before ``until``."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        # Locals hoisted out of the while: the attribute loads would
        # otherwise be re-executed per event. ``queue`` stays valid across
        # compactions because _compact() rebuilds the list in place. The
        # trace is deliberately NOT hoisted: callbacks may install or
        # remove one mid-run (re-entrant set_trace), and the next event
        # must see the change.
        queue = self._queue
        pop = _heappop
        dispatched = 0
        try:
            while queue and queue[0][0] <= until:
                deadline, __, timer = pop(queue)
                if timer.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = deadline
                timer.fired = True
                dispatched += 1
                # Like the trace, the budget is re-read per event so a
                # mid-run set_budget takes effect immediately; the
                # usual cost is one attribute load and a None check.
                budget = self._budget
                if budget is not None:
                    budget.charge(self)
                trace = self._trace
                if trace is None:
                    timer.callback()
                else:
                    trace.dispatch(timer.callback)
        finally:
            self.dispatched += dispatched
            self._running = False

    @property
    def pending_events(self):
        """Number of scheduled, not-yet-cancelled timers. O(1)."""
        return len(self._queue) - self._cancelled

    def __repr__(self):
        return "Simulator(now={:.3f}, pending={})".format(self.now, self.pending_events)

    # -- heap hygiene --------------------------------------------------------

    def _note_cancel(self):
        """Account one newly cancelled in-heap entry; maybe compact."""
        self._cancelled += 1
        if self._cancelled >= self.COMPACT_MIN_CANCELLED \
                and self._cancelled * 2 >= len(self._queue):
            self._compact()

    def _compact(self):
        """Drop cancelled entries and re-heapify, in place and in O(n).

        Rebuilding preserves the (deadline, seq) order of every live
        entry, so dispatch order is exactly what it would have been with
        pure lazy deletion. In-place so hoisted loop locals stay valid.
        """
        self._queue[:] = [entry for entry in self._queue
                          if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0
        self.compactions += 1


class PeriodicTimer:
    """Handle for a repeating callback created by :meth:`Simulator.every`.

    Rescheduling reuses the one underlying :class:`Timer` object via
    :meth:`Simulator.reschedule`, so a long-lived periodic costs no
    allocations after the first firing.
    """

    def __init__(self, sim, interval, callback, start_after=None):
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._cancelled = False
        first = interval if start_after is None else start_after
        self._timer = sim.schedule(first, self._tick)

    def _tick(self):
        if self._cancelled:
            return
        self._callback()
        if not self._cancelled:
            self._timer = self._sim.reschedule(self._timer, self._interval)

    def cancel(self):
        """Stop future firings."""
        self._cancelled = True
        self._timer.cancel()

    @property
    def cancelled(self):
        return self._cancelled
