"""Opt-in kernel profiler: per-callback-site event attribution.

The discrete-event loop is the hot path of every experiment, and "which
callbacks eat the events" is the first question of any speedup. A
:class:`KernelTrace` installed via :meth:`Simulator.set_trace` attributes
every dispatched event to its *callback site* -- the module-qualified
function behind the callback. Bound methods resolve to their underlying
function, so every process wake-up lands on one site,
``repro.sim.process.Process._advance``, instead of one per process
instance; a closure prints where it was defined, e.g.
``repro.droid.resources.ListenerService._schedule_delivery.<locals>.delivery``.

Usage::

    from repro.sim import Simulator, KernelTrace

    sim = Simulator()
    trace = sim.set_trace(KernelTrace())
    ...build the device, run the scenario...
    sim.run_until(3 * 86400.0)
    print(trace.report())

Tracing is strictly opt-in: with no trace installed the dispatch loop
pays one local ``is None`` check per event and nothing else.
"""

import time


class SiteStats:
    """Aggregate for one callback site: dispatch count and host wall time."""

    __slots__ = ("site", "count", "wall_s")

    def __init__(self, site):
        self.site = site
        self.count = 0
        self.wall_s = 0.0

    def __repr__(self):
        return "SiteStats(site={!r}, count={}, wall_s={:.6f})".format(
            self.site, self.count, self.wall_s)


def site_for(callback):
    """Human-stable identifier for a callback: ``module.qualname``.

    Bound methods collapse onto their class function so ten thousand
    process timeouts aggregate into one row. Callables without
    ``__qualname__`` (rare: partials, callable instances) fall back to
    ``repr``, truncated.
    """
    func = getattr(callback, "__func__", callback)
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        return repr(callback)[:80]
    module = getattr(func, "__module__", "?")
    return "{}.{}".format(module, qualname)


class KernelTrace:
    """Accumulates per-site dispatch counts and wall time.

    The simulator calls :meth:`dispatch` for every event while the trace
    is installed; everything else is reporting.
    """

    def __init__(self, clock=time.perf_counter):
        self.sites = {}  # site -> SiteStats, insertion-ordered
        self._clock = clock

    def dispatch(self, callback):
        """Run ``callback()`` and attribute its count + wall time."""
        site = site_for(callback)
        stats = self.sites.get(site)
        if stats is None:
            stats = self.sites[site] = SiteStats(site)
        clock = self._clock
        start = clock()
        try:
            callback()
        finally:
            stats.count += 1
            stats.wall_s += clock() - start

    @property
    def total_events(self):
        return sum(s.count for s in self.sites.values())

    @property
    def total_wall_s(self):
        return sum(s.wall_s for s in self.sites.values())

    def top(self, n=None, key="count"):
        """Sites sorted by ``key`` ('count' or 'wall_s'), descending.

        Ties (and equal-key rows) keep first-seen order, so reports are
        deterministic across runs of a deterministic simulation.
        """
        if key not in ("count", "wall_s"):
            raise ValueError("key must be 'count' or 'wall_s', got {!r}".format(key))
        ranked = sorted(self.sites.values(),
                        key=lambda s: getattr(s, key), reverse=True)
        return ranked if n is None else ranked[:n]

    def report(self, n=15, key="count"):
        """Formatted table of the top-``n`` sites."""
        rows = self.top(n, key=key)
        total_events = self.total_events
        total_wall = self.total_wall_s
        lines = [
            "kernel trace: {} events, {:.3f}s dispatch wall time, {} sites".format(
                total_events, total_wall, len(self.sites)),
            "{:>10}  {:>7}  {:>9}  {}".format("events", "ev%", "wall_ms", "site"),
        ]
        for stats in rows:
            share = 100.0 * stats.count / total_events if total_events else 0.0
            lines.append("{:>10}  {:>6.1f}%  {:>9.2f}  {}".format(
                stats.count, share, stats.wall_s * 1e3, stats.site))
        if n is not None and len(self.sites) > len(rows):
            lines.append("  ... {} more sites".format(len(self.sites) - len(rows)))
        return "\n".join(lines)

    def reset(self):
        """Drop all accumulated statistics."""
        self.sites.clear()

    def __repr__(self):
        return "KernelTrace(events={}, sites={})".format(
            self.total_events, len(self.sites))
