"""Generator-based cooperative processes with pause/resume.

A process is a generator that yields waitable primitives:

- ``yield Timeout(dt)`` -- sleep for ``dt`` simulated seconds;
- ``yield event`` -- wait for an :class:`~repro.sim.events.Event`; the
  ``yield`` expression evaluates to the event's fired value;
- ``yield other_process`` -- wait for another process to finish; evaluates
  to its return value.

Pause/resume exists to model the phone's *deep sleep*: when the device
suspends, app processes are frozen mid-sleep and the remaining sleep time
is preserved; when the device wakes, execution resumes seamlessly. This is
exactly the "paused and resumed seamlessly" behaviour of Section 4.6 of
the paper.
"""

import enum

from repro.sim.events import Event, Timeout

_NOTHING = object()


class ProcessKilled(Exception):
    """Raised inside a generator when its process is killed."""


class ProcessState(enum.Enum):
    RUNNING = "running"  # scheduled or waiting, making progress
    PAUSED = "paused"  # frozen by the device being suspended
    DONE = "done"  # generator returned
    KILLED = "killed"  # externally terminated


_RUNNING = ProcessState.RUNNING
_PAUSED = ProcessState.PAUSED


class Process:
    """A cooperative process owned by a :class:`~repro.sim.engine.Simulator`.

    Create via :meth:`Simulator.spawn`; do not instantiate directly unless
    testing the machinery itself.
    """

    def __init__(self, sim, generator, name=""):
        if not hasattr(generator, "send"):
            raise TypeError(
                "spawn() needs a generator iterator, got {!r}".format(generator)
            )
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self.state = ProcessState.RUNNING
        self.result = None
        self.error = None
        self.done_event = Event(sim, name + ".done")
        self._timer = None  # pending Timer while sleeping
        self._frozen_remaining = None  # leftover sleep while paused
        self._waited_event = None  # Event currently waited on
        self._pending_value = _NOTHING  # value delivered while paused
        #: ``_advance`` bound once: the callback of every timer that
        #: wakes this process, so a sleep allocates no closure.
        self._wake = self._advance
        # Start asynchronously so spawning inside callbacks is safe.
        self._timer = sim.schedule(0.0, self._wake)

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self):
        return self.state in (ProcessState.RUNNING, ProcessState.PAUSED)

    @property
    def paused(self):
        return self.state is ProcessState.PAUSED

    def pause(self):
        """Freeze the process (device deep sleep). Idempotent.

        A pending sleep is cancelled and its remaining duration saved; a
        pending event wait stays registered but delivery is deferred until
        :meth:`resume`.
        """
        if self.state is not ProcessState.RUNNING:
            return
        self.state = ProcessState.PAUSED
        if self._timer is not None and self._timer.pending:
            self._frozen_remaining = max(0.0, self._timer.deadline - self.sim.now)
            self._timer.cancel()
            self._timer = None

    def resume(self):
        """Unfreeze a paused process, restoring any remaining sleep."""
        if self.state is not ProcessState.PAUSED:
            return
        self.state = ProcessState.RUNNING
        if self._frozen_remaining is not None:
            remaining = self._frozen_remaining
            self._frozen_remaining = None
            self._timer = self.sim.schedule(remaining, self._wake)
        elif self._pending_value is not _NOTHING:
            value = self._pending_value
            self._pending_value = _NOTHING
            self._timer = self.sim.schedule(0.0, lambda: self._advance(value))
        # Otherwise the process is still waiting on an unfired event.

    def kill(self):
        """Terminate the process immediately. Idempotent."""
        if not self.alive:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._waited_event is not None:
            self._waited_event.remove_waiter(self._on_event)
            self._waited_event = None
        self.state = ProcessState.KILLED
        self._gen.close()
        if not self.done_event.fired:
            self.done_event.fire(None)

    # -- stepping ----------------------------------------------------------

    def _advance(self, send_value=None):
        state = self.state
        if state is not _RUNNING and state is not _PAUSED:
            return  # done or killed
        fired = self._timer  # the timer that woke us, if one did
        self._timer = None
        self._waited_event = None
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.result = getattr(stop, "value", None)
            self.state = ProcessState.DONE
            self.done_event.fire(self.result)
            return
        except ProcessKilled:
            self.state = ProcessState.KILLED
            self.done_event.fire(None)
            return
        if type(yielded) is Timeout and self.state is _RUNNING \
                and fired is not None and fired.callback is self._wake \
                and fired.fired and not fired.cancelled:
            # Re-arm the timer that just woke us: the deadline and
            # sequence number a fresh one would get, no allocation. The
            # common step, so it skips _wait_on's type dispatch.
            self._timer = self.sim.reschedule(fired, yielded.delay)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded):
        if isinstance(yielded, Timeout):
            if self.state is ProcessState.PAUSED:
                # Paused by a callback triggered from our own last step.
                self._frozen_remaining = yielded.delay
            else:
                self._timer = self.sim.schedule(yielded.delay, self._wake)
        elif isinstance(yielded, Event):
            self._waited_event = yielded
            yielded.add_waiter(self._on_event)
        elif isinstance(yielded, Process):
            self._waited_event = yielded.done_event
            yielded.done_event.add_waiter(self._on_event)
        else:
            self.kill()
            raise TypeError(
                "process {!r} yielded {!r}; expected Timeout, Event or "
                "Process".format(self.name, yielded)
            )

    def _on_event(self, value):
        if self.state is ProcessState.PAUSED:
            self._pending_value = value
            return
        if self.state is not ProcessState.RUNNING:
            return
        self._waited_event = None
        self._advance(value)

    def __repr__(self):
        return "Process({!r}, {})".format(self.name, self.state.value)
