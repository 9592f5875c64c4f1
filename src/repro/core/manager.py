"""The Lease Manager (paper §4.3, Table 3 API).

One system-wide component owning the lease table. For every lease it
schedules a check at each term boundary, collects the term's utility
stats (through the owning proxy plus the app-level signal sources),
classifies the behaviour, and decides: renew immediately (normal) or
defer the next term for τ while the resource is revoked (FAB/LHB/LUB).
"""

from collections import defaultdict

from repro.core.behavior import BehaviorType, classify_term
from repro.core.lease import Lease, LeaseState
from repro.core.policy import LeasePolicy
from repro.core.stats import TermRecord, UtilityMetrics
from repro.core.utility import combine_utility, generic_utility
from repro.device.power import SYSTEM_UID


class Decision:
    """One end-of-term decision, for experiment introspection."""

    __slots__ = ("time", "lease", "behavior", "action", "metrics")

    def __init__(self, time, lease, behavior, action, metrics):
        self.time = time
        self.lease = lease
        self.behavior = behavior
        self.action = action  # "renew" | "defer" | "inactive"
        self.metrics = metrics

    def __repr__(self):
        return "Decision(t={:.1f}, lease#{}, {}, {})".format(
            self.time, self.lease.descriptor, self.behavior.value, self.action
        )


class LeaseManager:
    """Creates, checks, renews, defers and removes leases (Table 3)."""

    #: Floor applied to scheduled term checks so a zero-length term
    #: (legal per §3.1) cannot wedge the event loop.
    MIN_TERM_S = 0.001

    def __init__(self, phone, policy=None):
        self.phone = phone
        self.sim = phone.sim
        self.policy = policy or LeasePolicy()
        self.leases = {}  # descriptor -> Lease
        self.proxies = []
        self.decisions = []
        self.listeners = []  # callback(decision)
        #: Observers called as ``observer(lease, old_state, new_state)``
        #: after every transition of a lease this manager created. The
        #: invariant checker (:mod:`repro.faults.invariants`) shadows the
        #: state machine through it, catching illegal transitions and
        #: ``state`` mutations that bypass ``transition()``.
        self.transition_observers = []
        self.op_counts = defaultdict(int)
        self.created_total = 0
        self._custom_counters = {}  # (uid, ResourceType) -> UtilityCounter
        #: Optional §8 dynamic-policy hook exposing
        #: ``deferral_multiplier(lease) -> float``.
        self.deferral_advisor = None
        self.gc_removed = 0
        #: Running count of INACTIVE leases, so the periodic GC sweep can
        #: skip its table walk on a device with nothing to collect.
        self._inactive_count = 0
        if self.policy.gc_sweep_interval_s > 0:
            self.sim.every(self.policy.gc_sweep_interval_s, self._gc_sweep)

    # -- Table 3 API ----------------------------------------------------------

    def register_proxy(self, proxy):
        self.proxies.append(proxy)
        return True

    def unregister_proxy(self, proxy):
        try:
            self.proxies.remove(proxy)
            return True
        except ValueError:
            return False

    def create(self, rtype, uid, record, proxy):
        """Create a lease for a resource instance; returns the Lease."""
        self.op_counts["create"] += 1
        self.created_total += 1
        lease = Lease(next(self.sim.ids), uid, rtype, record, proxy,
                      self.sim.now, observers=self.transition_observers)
        self.leases[lease.descriptor] = lease
        self._start_term(lease, self.policy.initial_term_s)
        proxy.refresh_snapshot(lease)
        return lease

    def check(self, descriptor):
        """Is the lease usable right now? (Cached by proxies in practice.)"""
        lease = self.leases.get(descriptor)
        usable = lease is not None and lease.state is LeaseState.ACTIVE
        self.op_counts["check_accept" if usable else "check_reject"] += 1
        return usable

    def renew(self, descriptor):
        """Approve (or not) the use of a resource with an expired lease.

        Called by a proxy when an app re-acquires or uses a resource whose
        lease went INACTIVE (§3.2). Renewal is granted unless the lease is
        mid-deferral.
        """
        lease = self.leases.get(descriptor)
        if lease is None or lease.dead:
            return False
        self.op_counts["renew"] += 1
        if lease.state is LeaseState.DEFERRED:
            return False
        if lease.state is LeaseState.INACTIVE:
            self._inactive_count -= 1
            lease.transition(LeaseState.ACTIVE)
            self._start_term(lease, self.policy.next_term_length(
                lease.normal_streak))
            lease.proxy.refresh_snapshot(lease)
        lease.renew_count += 1
        return True

    def remove(self, descriptor):
        """The kernel object died; clean up the lease."""
        lease = self.leases.get(descriptor)
        if lease is None:
            return False
        self.op_counts["remove"] += 1
        self._cancel_timers(lease)
        if lease.state is LeaseState.INACTIVE:
            self._inactive_count -= 1
        if not lease.dead:
            lease.transition(LeaseState.DEAD)
        del self.leases[descriptor]
        return True

    def note_event(self, descriptor, event):
        """Record a resource event (acquire/release/re-acquire...) for a
        lease (Table 3 ``noteEvent``). Events are kept on the lease's
        bounded event log and are available to the per-term analysis."""
        self.op_counts["note_event"] += 1
        lease = self.leases.get(descriptor)
        if lease is None:
            return False
        lease.note_event(self.sim.now, event)
        return True

    def set_utility(self, uid, rtype, counter):
        """Register a custom utility counter for (uid, resource type)."""
        for lease in self.leases.values():
            if lease.uid == uid and lease.rtype is rtype:
                lease.custom_counter = counter
        self._custom_counters[(uid, rtype)] = counter

    # -- term machinery -----------------------------------------------------------

    def _start_term(self, lease, length):
        """Begin a term. §3.1's degenerate points are honoured: an
        infinite term schedules no check at all (the lease degrades to
        ask-use-release), and a zero-length term checks immediately and
        continuously (every access effectively re-checked)."""
        lease.term_index += 1
        lease.term_length = length
        lease.term_start = self.sim.now
        if length == float("inf"):
            lease._term_timer = None
            return
        lease._term_timer = self.sim.schedule(
            max(length, self.MIN_TERM_S),
            lambda: self._on_term_end(lease),
        )

    def _on_term_end(self, lease):
        if lease.dead or lease.state is not LeaseState.ACTIVE:
            return
        self.op_counts["update"] += 1
        self.phone.monitor.add_energy(
            SYSTEM_UID, "lease_mgmt", self.policy.update_energy_mj
        )
        if not lease.proxy.is_held(lease):
            self._inactive_count += 1
            lease.transition(LeaseState.INACTIVE)
            self._log(lease, BehaviorType.NORMAL, "inactive", None)
            return
        metrics = self._collect(lease)
        behavior = classify_term(lease.rtype, metrics, self.policy)
        lease.record_term(TermRecord(
            lease.term_index, lease.term_start, self.sim.now, behavior,
            metrics,
        ))
        if behavior.is_misbehavior:
            lease.normal_streak = 0
            lease.misbehavior_streak += 1
            self._defer(lease)
            self._log(lease, behavior, "defer", metrics)
        else:
            lease.normal_streak += 1
            lease.misbehavior_streak = 0
            self._start_term(
                lease, self.policy.next_term_length(lease.normal_streak)
            )
            self._log(lease, behavior, "renew", metrics)

    def _defer(self, lease):
        lease.transition(LeaseState.DEFERRED)
        lease.deferral_count += 1
        lease.proxy.on_expire(lease)
        tau = self.policy.deferral_for(lease.misbehavior_streak)
        if self._had_recent_normal_term(lease):
            # Intermittent misbehaviour: keep the deferral short enough
            # that the app's next useful window is not swallowed (§4.5).
            tau = min(tau, self.policy.escalation_soft_cap_s)
        if self.deferral_advisor is not None:
            tau *= self.deferral_advisor.deferral_multiplier(lease)
        lease._deferral_timer = self.sim.schedule(
            tau, lambda: self._end_deferral(lease)
        )

    def _had_recent_normal_term(self, lease):
        if not self.policy.escalation_enabled:
            return False
        horizon = self.sim.now - self.policy.escalation_recency_s
        for record in reversed(lease.history):
            if record.end < horizon:
                break
            if not record.behavior.is_misbehavior:
                return True
        return False

    def _end_deferral(self, lease):
        if lease.dead or lease.state is not LeaseState.DEFERRED:
            return
        lease.transition(LeaseState.ACTIVE)
        lease.proxy.on_renew(lease)
        self._start_term(lease, self.policy.initial_term_s)
        lease.proxy.refresh_snapshot(lease)

    def _collect(self, lease):
        """Build the term's UtilityMetrics from proxy + app signals."""
        start, end = lease.term_start, self.sim.now
        term_s = max(1e-9, end - start)
        stats = lease.proxy.term_stats(lease)
        app = self.phone.apps.get(lease.uid)
        # Raw signals within this term's window only.
        ui = app.ui_updates_in(start, end) if app else 0
        interactions = app.interactions_in(start, end) if app else 0
        writes = app.data_writes_in(start, end) if app else 0
        exceptions = self.phone.exceptions.count_in_window(
            lease.uid, start, end
        )
        # Three windows of recent terms, gathered in one pass over them,
        # oldest first; each window's totals add its terms in that
        # order, starting from 0. Smoothing (§4.3 bounded history): the
        # current term aggregates with recent terms so rates are judged
        # over honoured time, not a single unlucky 5 s slice (deferral
        # gaps never enter, because terms only span honoured periods).
        # FAB evidence: ask time over the last few terms. Utilization:
        # an honoured-time-weighted mean over a short, wall-clock
        # bounded window.
        policy = self.policy
        max_age = policy.utility_window_age_s
        util_age = policy.utilization_window_s
        smooth_n = policy.utility_smoothing_terms - 1
        fab_n = policy.fab_window_terms - 1
        util_n = policy.utilization_smoothing_terms - 1
        duration = recent_ui = recent_inter = recent_writes = 0
        recent_exceptions = distance = ask = 0
        active_time = stats.get("active_time", 0.0)
        weighted = stats.get("utilization", 1.0) * max(active_time, 1e-9)
        weight = max(active_time, 1e-9)
        history = lease.history
        for back in range(min(len(history), max(smooth_n, fab_n, util_n)),
                          0, -1):
            record = history[-back]
            metrics = record.metrics
            age = end - record.end
            if age <= max_age:
                if back <= smooth_n:
                    duration += record.end - record.start
                    recent_ui += metrics.ui_updates
                    recent_inter += metrics.interactions
                    recent_writes += metrics.data_writes
                    recent_exceptions += metrics.exceptions
                    distance += metrics.extras.get("distance_moved", 0.0)
                if back <= fab_n:
                    ask += metrics.ask_time
            if back <= util_n and age <= util_age:
                w = max(metrics.active_time, 1e-9)
                weighted += metrics.utilization * w
                weight += w
        agg_duration = term_s + duration
        agg_ui = ui + recent_ui
        agg_inter = interactions + recent_inter
        agg_writes = writes + recent_writes
        agg_exceptions = exceptions + recent_exceptions
        agg_distance = stats.get("distance_moved", 0.0) + distance
        ask_window = stats.get("ask_time", 0.0) + ask
        generic = generic_utility(
            lease.rtype, agg_duration, ui_updates=agg_ui,
            interactions=agg_inter, exceptions=agg_exceptions,
            data_writes=agg_writes, distance_m=agg_distance,
        )
        custom = None
        counter = lease.custom_counter or self._custom_counters.get(
            (lease.uid, lease.rtype)
        )
        if counter is not None:
            custom = counter.get_score()
        score = combine_utility(generic, custom,
                                policy.custom_utility_floor)
        utilization = weighted / weight
        return UtilityMetrics(
            held=True,
            held_time=stats.get("held_time", 0.0),
            active_time=active_time,
            ask_time=stats.get("ask_time", 0.0),
            ask_window_time=ask_window,
            success_ratio=stats.get("success_ratio", 1.0),
            utilization=utilization,
            utility_score=score,
            generic_utility=generic,
            custom_utility=custom,
            completed_terms=len(lease.history),
            ui_updates=ui,
            interactions=interactions,
            exceptions=exceptions,
            data_writes=writes,
            extras=stats,
        )

    # -- introspection --------------------------------------------------------------

    def active_lease_count(self):
        return sum(
            1 for lease in self.leases.values()
            if lease.state in (LeaseState.ACTIVE, LeaseState.DEFERRED)
        )

    def leases_for(self, uid):
        return [l for l in self.leases.values() if l.uid == uid]

    def sweep_expired(self):
        """Sweep long-idle INACTIVE leases; returns how many went.

        The periodic GC timer's sweep, also callable directly when a
        caller already knows collection is due.
        """
        now = self.sim.now
        doomed = []
        for lease in self.leases.values():
            if lease.state is not LeaseState.INACTIVE:
                continue
            record = lease.record
            record.settle()
            if record.app_held or record.os_active:
                continue
            idle_for = now - lease.term_start
            if idle_for >= self.policy.gc_idle_s:
                doomed.append(lease)
        for lease in doomed:
            lease.proxy.forget(lease)
            self.remove(lease.descriptor)
            self.gc_removed += 1
        return len(doomed)

    def _gc_sweep(self):
        """The periodic timer path (kernel-object GC stand-in)."""
        if self._inactive_count == 0:
            return  # nothing collectable: skip the table walk entirely
        self.sweep_expired()

    def dump_table(self):
        """A ``dumpsys leases``-style view of the lease table."""
        if not self.leases:
            return "lease table: empty"
        lines = ["lease table ({} leases, {} created total):".format(
            len(self.leases), self.created_total)]
        for lease in sorted(self.leases.values(),
                            key=lambda l: l.descriptor):
            app = self.phone.apps.get(lease.uid)
            name = app.name if app else "uid:{}".format(lease.uid)
            lines.append(
                "  #{:<4d} {:18s} {:9s} {:9s} terms={:<4d} "
                "deferrals={:<3d} streak={}".format(
                    lease.descriptor, name[:18], lease.rtype.value,
                    lease.state.value, lease.term_index,
                    lease.deferral_count, lease.normal_streak)
            )
        return "\n".join(lines)

    def _log(self, lease, behavior, action, metrics):
        decision = Decision(self.sim.now, lease, behavior, action, metrics)
        self.decisions.append(decision)
        for listener in list(self.listeners):
            listener(decision)

    def _cancel_timers(self, lease):
        if lease._term_timer is not None:
            lease._term_timer.cancel()
            lease._term_timer = None
        if lease._deferral_timer is not None:
            lease._deferral_timer.cancel()
            lease._deferral_timer = None
