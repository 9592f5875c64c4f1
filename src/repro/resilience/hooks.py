"""Harness-level fault hooks: make the supervisor itself testable.

PR 3 gave the *simulated device* a fault injector; this is the same
idea one level up, aimed at the dispatch path. A
:class:`HarnessFaults` maps job labels (fnmatch patterns) to
directives -- "crash the worker on attempt 1 of shard 3", "hang job X
forever", "raise inside job Y" -- and travels to workers through the
``REPRO_HARNESS_FAULTS`` environment variable, so both the in-worker
and the CLI/CI paths exercise the exact failure the supervisor must
contain. Everything is declarative JSON: a directive fires as a
function of ``(label, attempt)`` only, so faulted runs are as
reproducible as clean ones.
"""

import json
import os
import time

from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.io import canonical_json

#: Environment variable carrying the JSON spec into worker processes.
ENV_VAR = "REPRO_HARNESS_FAULTS"

#: Exit code used by the injected worker crash (distinctive on purpose:
#: a supervisor report showing 86 means the harness, not the job).
CRASH_EXIT_CODE = 86

_KINDS = ("crash", "hang", "fail")

#: Storage-target fault kinds (see :meth:`HarnessFaults.storage_directive`):
#: ``torn`` = die mid-write leaving a partial journal line, ``corrupt`` =
#: write the record with a mangled crc and keep running, ``crash`` = die
#: right after the record is durable.
_STORAGE_KINDS = ("torn", "corrupt", "crash")


@dataclass(frozen=True)
class HarnessFaults:
    """Declarative dispatch-path faults, keyed by job label patterns.

    Each of ``crash``/``hang``/``fail`` is a tuple of
    ``(label_pattern, attempts)`` pairs where ``attempts`` is a tuple
    of 1-based attempt numbers (empty tuple = every attempt). JSON
    form: ``{"crash": {"shard:000000": [1]}, "hang": {"shard:000001":
    []}}``.
    """

    crash: tuple = ()
    hang: tuple = ()
    fail: tuple = ()
    #: Storage-layer faults as ``(kind, seqs)`` pairs, where ``kind``
    #: is one of :data:`_STORAGE_KINDS` and ``seqs`` is a tuple of
    #: journal record sequence numbers (empty = every record). JSON
    #: form: ``{"storage": {"crash": [37], "torn": [12]}}``.
    storage: tuple = ()
    #: How long an injected hang sleeps in a real worker; the watchdog
    #: is expected to kill it long before this elapses.
    hang_s: float = 3600.0

    def directive(self, label, attempt):
        """``"crash"``/``"hang"``/``"fail"`` for this attempt, or None."""
        for kind in _KINDS:
            for pattern, attempts in getattr(self, kind):
                if fnmatchcase(label, pattern) and (
                        not attempts or attempt in attempts):
                    return kind
        return None

    def storage_directive(self, seq):
        """``"torn"``/``"corrupt"``/``"crash"`` for journal record
        ``seq``, or None. Fires as a function of ``seq`` only, so a
        storage-faulted run is exactly as reproducible as a clean one.
        """
        for kind, seqs in self.storage:
            if not seqs or seq in seqs:
                return kind
        return None

    def __bool__(self):
        return bool(self.crash or self.hang or self.fail or self.storage)

    # -- serialisation -----------------------------------------------------

    def to_json(self):
        data = {kind: {pattern: list(attempts)
                       for pattern, attempts in getattr(self, kind)}
                for kind in _KINDS if getattr(self, kind)}
        if self.storage:
            data["storage"] = {kind: list(seqs)
                               for kind, seqs in self.storage}
        if self.hang_s != 3600.0:
            data["hang_s"] = self.hang_s
        return canonical_json(data)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        kwargs = {}
        for kind in _KINDS:
            entries = data.get(kind, {})
            kwargs[kind] = tuple(sorted(
                (pattern, tuple(int(a) for a in attempts))
                for pattern, attempts in entries.items()))
        storage = data.get("storage", {})
        for kind in storage:
            if kind not in _STORAGE_KINDS:
                raise ValueError(
                    "unknown storage fault kind {!r}".format(kind))
        kwargs["storage"] = tuple(sorted(
            (kind, tuple(sorted(int(seq) for seq in seqs)))
            for kind, seqs in storage.items()))
        if "hang_s" in data:
            kwargs["hang_s"] = float(data["hang_s"])
        return cls(**kwargs)

    @classmethod
    def from_env(cls, environ=os.environ):
        """The faults armed via :data:`ENV_VAR`, or ``None``."""
        text = environ.get(ENV_VAR, "").strip()
        return cls.from_json(text) if text else None


def apply_in_worker(faults, label, attempt):
    """Fire a matching directive inside a real worker process.

    ``crash`` exits the process abruptly (no teardown -- the closest a
    pure-python harness gets to a segfault), ``hang`` sleeps until the
    watchdog kills the worker, ``fail`` raises. No match is a no-op.
    """
    directive = faults.directive(label, attempt) if faults else None
    if directive == "crash":
        os._exit(CRASH_EXIT_CODE)
    if directive == "hang":
        deadline = time.monotonic() + faults.hang_s
        while time.monotonic() < deadline:
            time.sleep(min(1.0, faults.hang_s))
        raise RuntimeError(
            "injected hang for job {!r} outlived its {}s sleep -- no "
            "watchdog killed it".format(label, faults.hang_s))
    if directive == "fail":
        from repro.resilience.errors import InjectedFault

        raise InjectedFault(label, attempt)
