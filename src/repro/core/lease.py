"""The lease abstraction and its state machine (paper §3.1-3.2, Fig. 5).

States:

- ``ACTIVE`` -- within a term; the holder may use the resource freely.
- ``DEFERRED`` -- the past term showed FAB/LHB/LUB; the resource is
  temporarily revoked for the deferral interval τ, then restored.
- ``INACTIVE`` -- the app released the resource before the term ended;
  re-acquiring or using it requires a renewal check with the manager.
- ``DEAD`` -- the kernel object is gone; the lease is awaiting cleanup.
"""

import enum

from collections import deque


class LeaseState(enum.Enum):
    ACTIVE = "active"
    DEFERRED = "deferred"
    INACTIVE = "inactive"
    DEAD = "dead"


#: Transitions allowed by the Fig. 5 state machine. Everything may go to
#: DEAD (the kernel object can die at any moment).
_ALLOWED = {
    (LeaseState.ACTIVE, LeaseState.ACTIVE),  # renewed for another term
    (LeaseState.ACTIVE, LeaseState.DEFERRED),
    (LeaseState.ACTIVE, LeaseState.INACTIVE),
    (LeaseState.DEFERRED, LeaseState.ACTIVE),
    (LeaseState.INACTIVE, LeaseState.ACTIVE),
}


class LeaseTransitionError(Exception):
    """An illegal lease state transition was attempted."""


class Lease:
    """One lease: a timed capability over one kernel resource instance.

    Created by the lease manager when an app first touches the kernel
    object (§3.1); identified by a lease descriptor unique on its device
    (the manager draws it from ``next(sim.ids)``). Keeps a bounded
    history of per-term records for the decision policy.

    ``observers`` is the creating manager's
    :attr:`~repro.core.manager.LeaseManager.transition_observers` list,
    called as ``observer(lease, old_state, new_state)`` after every
    transition; empty, it costs one truthiness check per transition.
    """

    def __init__(self, descriptor, uid, rtype, record, proxy, created_at,
                 history_size=128, observers=()):
        self.descriptor = descriptor
        self.uid = uid
        self.rtype = rtype
        self.record = record  # the kernel object this lease backs
        self.proxy = proxy  # owning lease proxy
        self.created_at = created_at
        self.state = LeaseState.ACTIVE
        self.term_index = 0
        self.term_length = None  # set by the manager from policy
        self.term_start = created_at
        self.history = deque(maxlen=history_size)
        self.events = deque(maxlen=history_size)  # (time, event-name)
        self.normal_streak = 0  # consecutive normal terms (adaptive term)
        self.misbehavior_streak = 0  # consecutive misbehaving terms
        self.deferral_count = 0
        self.renew_count = 0
        # bookkeeping owned by the manager
        self._term_timer = None
        self._deferral_timer = None
        self._stat_snapshot = {}
        self.custom_counter = None
        self._observers = observers

    # -- state machine ----------------------------------------------------------

    def transition(self, new_state):
        """Move to ``new_state``, enforcing the Fig. 5 transition rules."""
        if self.state is LeaseState.DEAD:
            raise LeaseTransitionError(
                "lease {} is dead and cannot transition".format(self.descriptor)
            )
        old_state = self.state
        if new_state is LeaseState.DEAD:
            self.state = new_state
            if self._observers:
                for observer in list(self._observers):
                    observer(self, old_state, new_state)
            return
        if (self.state, new_state) not in _ALLOWED:
            raise LeaseTransitionError(
                "illegal lease transition {} -> {}".format(
                    self.state.value, new_state.value
                )
            )
        self.state = new_state
        if self._observers:
            for observer in list(self._observers):
                observer(self, old_state, new_state)

    @property
    def active(self):
        return self.state is LeaseState.ACTIVE

    @property
    def dead(self):
        return self.state is LeaseState.DEAD

    def record_term(self, term_record):
        self.history.append(term_record)

    def note_event(self, time, event):
        self.events.append((time, event))

    def events_in(self, start, end, event=None):
        """Events within [start, end), optionally filtered by name."""
        return [
            (t, name) for t, name in self.events
            if start <= t < end and (event is None or name == event)
        ]

    def __repr__(self):
        return "Lease(#{}, uid={}, {}, {}, term={})".format(
            self.descriptor, self.uid, self.rtype.value, self.state.value,
            self.term_index,
        )
