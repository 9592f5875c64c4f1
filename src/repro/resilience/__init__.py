"""Supervised execution: deadlines, retries, quarantine, degradation.

The dispatch-path counterpart of the in-sim fault layer (PR 3): every
grid job and fleet shard can run under a :class:`Supervisor` that
kills hung workers at a wall-clock deadline, requeues jobs whose
workers crash, retries with seeded deterministic backoff, quarantines
poison jobs after N attempts, and lets the run complete with partial
results plus a machine-readable :class:`FailureManifest`. See
docs/resilience.md for semantics and the determinism guarantees under
retry.
"""

from repro.resilience.errors import (
    InjectedFault,
    JobQuarantined,
    JobTimeout,
    RunInterrupted,
    SupervisionError,
    WorkerCrash,
)
from repro.resilience.hooks import HarnessFaults
from repro.resilience.manifest import (
    AttemptRecord,
    FailureManifest,
    FailureRecord,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import (
    Chunk,
    Supervisor,
    SupervisorStats,
    sigterm_as_interrupt,
)

__all__ = [
    "Chunk",
    "Supervisor",
    "SupervisorStats",
    "RetryPolicy",
    "HarnessFaults",
    "FailureManifest",
    "FailureRecord",
    "AttemptRecord",
    "SupervisionError",
    "JobTimeout",
    "WorkerCrash",
    "JobQuarantined",
    "InjectedFault",
    "RunInterrupted",
    "sigterm_as_interrupt",
]
