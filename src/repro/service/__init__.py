"""The lease authority as a service.

:mod:`repro.service` extracts the lease authority behind a narrow,
crash-safe facade -- the `ProxyManager`/`IStorage` layering of
SNIPPETS.md snippet 1 applied to the paper's OS-resident lease manager.
A :class:`LeaseService` owns a replicated-by-journal lease table plus
per-(consumer, resource) utility stats; all persistent state flows
through an :class:`IStorage` backend:

- :class:`InMemoryStorage` -- zero-overhead default for tests and
  throwaway runs;
- :class:`JournalStorage` -- an append-only JSONL write-ahead journal
  (crc per record, fsync-batched) plus periodic compacted snapshots
  in one directory.

Recovery (:meth:`LeaseService.recover`) replays the journal over the
latest valid snapshot and must reconstruct the lease table and utility
stats **byte-identically** (canonical-JSON state fingerprint) for every
crash point; the always-on recovery invariants live in
:mod:`repro.faults.invariants` and every recovery runs them. Storage
faults (torn tails, corrupt crcs, kills at record boundaries) are
injected through the ``storage`` target of
:class:`repro.resilience.hooks.HarnessFaults`.
"""

from repro.service.service import (  # noqa: F401
    DEFAULT_TERM_S,
    LeaseService,
    ServiceError,
)
from repro.service.state import ServiceState  # noqa: F401
from repro.service.storage import (  # noqa: F401
    InMemoryStorage,
    IStorage,
    JournalRecoveryError,
    JournalStorage,
    RecoveryInfo,
)
