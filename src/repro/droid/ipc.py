"""Binder IPC accounting.

Simulated IPC is synchronous (the discrete-event clock does not advance
during a call); instead every call's *modelled latency* is recorded here
so the latency experiments (paper Table 4 and Fig. 14) can report the
end-to-end cost a real phone would see. Governors can add per-call
overhead (e.g. a lease check on an expired lease).
"""

from collections import defaultdict


class IpcCall:
    __slots__ = ("time", "uid", "service", "method", "latency_s")

    def __init__(self, time, uid, service, method, latency_s):
        self.time = time
        self.uid = uid
        self.service = service
        self.method = method
        self.latency_s = latency_s

    def __repr__(self):
        return "IpcCall({}, {}.{}, {:.4f}s)".format(
            self.uid, self.service, self.method, self.latency_s
        )


class IpcBus:
    """Records every binder transaction with its modelled latency."""

    #: Modelled cost of one failed-and-retried binder transaction: the
    #: kernel-side timeout plus the retry, charged as extra latency.
    FAILURE_RETRY_PENALTY_S = 0.05

    def __init__(self, sim, base_latency_s=0.002):
        self.sim = sim
        self.base_latency_s = base_latency_s
        self.calls = []
        self._per_uid_latency = defaultdict(float)
        self._per_uid_count = defaultdict(int)
        #: Extra latency injected by a governor for the *next* call,
        #: keyed by (uid, service); see ``add_overhead``.
        self._overhead_hooks = []
        # Fault-injection window state (repro.faults): while a fault is
        # armed every transaction pays ``fault_extra_latency_s`` and
        # fails (once, with a retry penalty) with probability
        # ``fault_failure_rate``. Both default to the no-fault fast path.
        self.fault_extra_latency_s = 0.0
        self.fault_failure_rate = 0.0
        self.fault_rng = None  # dedicated Random owned by the injector
        self.failed_calls = 0

    def add_overhead_hook(self, hook):
        """Register ``hook(uid, service, method) -> extra_latency_s``."""
        self._overhead_hooks.append(hook)

    def record(self, uid, service, method, extra_latency_s=0.0):
        """Record one IPC and return its total modelled latency (seconds)."""
        latency = self.base_latency_s + extra_latency_s
        for hook in self._overhead_hooks:
            latency += hook(uid, service, method)
        if self.fault_extra_latency_s:
            latency += self.fault_extra_latency_s
        if self.fault_failure_rate and self.fault_rng is not None \
                and self.fault_rng.random() < self.fault_failure_rate:
            self.failed_calls += 1
            latency += self.FAILURE_RETRY_PENALTY_S
        call = IpcCall(self.sim.now, uid, service, method, latency)
        self.calls.append(call)
        self._per_uid_latency[uid] += latency
        self._per_uid_count[uid] += 1
        return latency

    def total_latency_s(self, uid):
        return self._per_uid_latency[uid]

    def call_count(self, uid=None):
        if uid is None:
            return len(self.calls)
        return self._per_uid_count[uid]

    def calls_for(self, uid):
        return [c for c in self.calls if c.uid == uid]
