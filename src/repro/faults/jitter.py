"""Event-delivery jitter: an engine-level dispatch interposer.

Reuses the kernel-trace plumbing (:meth:`Simulator.set_trace`): the
simulator hands every due callback to the installed trace's ``dispatch``
method, and :class:`DispatchJitter` either runs it or -- with a small,
deterministic probability -- re-schedules it a few milliseconds later.
This models the delivery slop of a real binder/looper stack: handlers
that were "about to run" when a revoke landed, timeouts racing plain
releases, and so on. Any code that only works because two events happen
back-to-back in a fixed order will misbehave under jitter, which is the
point.

The interposer chains: an inner trace (e.g. a profiling
:class:`~repro.sim.trace.KernelTrace`) still sees every callback that
actually runs. Delayed callbacks go back through the normal queue, so
when they surface they are jittered again with the same probability --
termination is guaranteed for p < 1 because each retry consumes fresh
rng draws from a finite deterministic stream.

A callback whose function is marked ``exact_delivery`` -- an observer's
tick, such as the invariant checker's -- runs at once and draws
nothing, so observing a jittered day never moves it.
"""


class DispatchJitter:
    """Trace-compatible hook that randomly delays event delivery."""

    def __init__(self, sim, rng, probability=0.05, max_delay_s=0.02,
                 inner=None):
        if not 0.0 <= probability < 1.0:
            raise ValueError("jitter probability must be in [0, 1)")
        if max_delay_s <= 0:
            raise ValueError("max delay must be positive")
        self.sim = sim
        self.rng = rng
        self.probability = probability
        self.max_delay_s = max_delay_s
        self.inner = inner
        self.delayed = 0
        self.passed = 0

    def dispatch(self, callback):
        """Deliver ``callback`` now, or re-queue it a moment later."""
        if not getattr(callback, "exact_delivery", False) \
                and self.rng.random() < self.probability:
            self.delayed += 1
            self.sim.schedule(self.rng.random() * self.max_delay_s,
                              callback)
            return
        self.passed += 1
        if self.inner is not None:
            self.inner.dispatch(callback)
        else:
            callback()

    def __repr__(self):
        return "DispatchJitter(p={}, delayed={}, passed={})".format(
            self.probability, self.delayed, self.passed)
