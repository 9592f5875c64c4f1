"""Storage backends for the lease authority: the ``IStorage`` split.

The service (:mod:`repro.service.service`) is the orchestration layer;
everything persistent flows through one of these backends, mirroring
the ``ProxyManager``/``IStorage`` layering of SNIPPETS.md snippet 1:

- :class:`InMemoryStorage` -- records kept as plain dicts in a list.
  Zero overhead, no durability; the default for tests and throwaway
  simulations.
- :class:`JournalStorage` -- an append-only JSONL write-ahead journal
  plus periodic compacted snapshots in one directory. Every record is
  one line carrying its own crc32 (over the canonical record JSON) and
  a gapless ``seq``; writes are line-atomic and fsync-batched
  (:data:`FSYNC_BATCH` records per fsync, always on close/snapshot).

Journal record form (sort-keyed, compact)::

    {"crc":"1a2b3c4d","data":{...},"op":"acquire","seq":7,"t":42.5}

Snapshot form (``snapshot-<seq8>.json``, atomic tmp+rename)::

    {"schema":1,"seq":12,"state":{...canonical state...},"crc":"..."}

Recovery (:meth:`IStorage.load`) returns the newest *valid* snapshot,
the journal records strictly after it, and a :class:`RecoveryInfo`
describing exactly what was salvaged: a torn final line (a crash
mid-write) or a corrupt-crc record demote the run to *degraded* and
everything from the first bad record on is dropped -- a later valid
record can never leapfrog a bad one, because replay order is the
correctness contract.

Storage faults are injected here, at the write path, via the
``storage`` target of :class:`repro.resilience.hooks.HarnessFaults`
(``REPRO_HARNESS_FAULTS``): ``{"storage": {"crash": [7]}}`` exits the
process (the harness's stand-in for SIGKILL) right after record 7 is
durable, ``"torn"`` kills it mid-write leaving a partial line, and
``"corrupt"`` writes record N with a mangled crc and carries on --
silent bitrot for recovery to catch.
"""

import binascii
import json
import os

from dataclasses import dataclass

from repro.io import atomic_write, canonical_json

#: Bump on incompatible journal/snapshot changes.
JOURNAL_SCHEMA = 1

#: The journal file name inside a storage directory.
JOURNAL_NAME = "journal.jsonl"

#: Records per fsync on the append path; the tail inside one batch is
#: exactly what a power cut may tear, which the crash matrix exercises.
FSYNC_BATCH = 16


class JournalRecoveryError(Exception):
    """The storage directory cannot support a recovery at all."""


@dataclass
class RecoveryInfo:
    """What one :meth:`IStorage.load` actually salvaged."""

    snapshot_seq: int = -1        # -1: no snapshot, replay from genesis
    records_total: int = 0        # journal lines seen (incl. skipped)
    records_replayed: int = 0     # records handed to the reducer
    records_dropped: int = 0      # bad tail: torn/corrupt/post-gap
    snapshots_invalid: int = 0    # snapshot files that failed their crc
    degraded: bool = False
    reason: str = ""              # "", "torn_tail", "corrupt_record", ...

    def as_dict(self):
        return {
            "snapshot_seq": self.snapshot_seq,
            "records_total": self.records_total,
            "records_replayed": self.records_replayed,
            "records_dropped": self.records_dropped,
            "snapshots_invalid": self.snapshots_invalid,
            "degraded": self.degraded,
            "reason": self.reason,
        }


# -- record encoding ----------------------------------------------------------

def record_body(seq, op, t, data):
    """The crc-covered part of a record, as canonical JSON text."""
    return canonical_json({"seq": seq, "op": op, "t": t, "data": data})


def record_crc(seq, op, t, data):
    """crc32 of the canonical record body, as 8 hex digits."""
    return "{:08x}".format(
        binascii.crc32(record_body(seq, op, t, data).encode("utf-8"))
        & 0xFFFFFFFF)


def encode_record(seq, op, t, data, crc=None):
    """One journal line (no newline), crc filled in unless given."""
    return canonical_json(
        {"seq": seq, "op": op, "t": t, "data": data,
         "crc": crc if crc is not None else record_crc(seq, op, t, data)})


def decode_record(line):
    """Parse + crc-check one journal line; raises ValueError if bad."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    for field in ("seq", "op", "t", "data", "crc"):
        if field not in record:
            raise ValueError("record missing field {!r}".format(field))
    expected = record_crc(record["seq"], record["op"], record["t"],
                          record["data"])
    if record["crc"] != expected:
        raise ValueError("crc mismatch: {} != {}".format(
            record["crc"], expected))
    return record


# -- the interface ------------------------------------------------------------

class IStorage:
    """What the service requires of a backend (snippet-1 style)."""

    def append(self, seq, op, t, data):
        """Durably log one op *before* it is applied (write-ahead)."""
        raise NotImplementedError

    def snapshot(self, state_canonical):
        """Persist a compacted snapshot of the full canonical state."""
        raise NotImplementedError

    def load(self):
        """``(snapshot_state_or_None, records, RecoveryInfo)``."""
        raise NotImplementedError

    def flush(self):
        """Make everything appended so far durable."""

    def close(self):
        """Release resources; the directory/records stay recoverable."""

    def description(self):
        return type(self).__name__


class InMemoryStorage(IStorage):
    """Records in a list, snapshot in a dict: tests and defaults."""

    def __init__(self):
        self.records = []
        self._snapshot = None

    def append(self, seq, op, t, data):
        self.records.append({"seq": seq, "op": op, "t": t,
                             "data": data})

    def snapshot(self, state_canonical):
        self._snapshot = json.loads(json.dumps(state_canonical))

    def load(self):
        snap_seq = -1 if self._snapshot is None \
            else self._snapshot["op_seq"]
        records = [dict(record) for record in self.records
                   if record["seq"] >= snap_seq]
        info = RecoveryInfo(snapshot_seq=snap_seq,
                            records_total=len(self.records),
                            records_replayed=len(records))
        snapshot = None if self._snapshot is None \
            else json.loads(json.dumps(self._snapshot))
        return snapshot, records, info


class JournalStorage(IStorage):
    """Append-only JSONL journal + snapshots in one directory."""

    def __init__(self, directory, fsync_batch=FSYNC_BATCH, faults=None):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.fsync_batch = max(int(fsync_batch), 1)
        if faults is None:
            from repro.resilience.hooks import HarnessFaults

            faults = HarnessFaults.from_env()
        self.faults = faults
        self.path = os.path.join(directory, JOURNAL_NAME)
        self._handle = None
        self._unsynced = 0
        self.appended = 0
        #: Records the last :meth:`compact` kept in the rewritten
        #: journal (those at/after the snapshot seq; normally 0).
        self.compact_kept = 0

    def description(self):
        return "JournalStorage({})".format(self.directory)

    # -- write path --------------------------------------------------------

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self.path, "a", buffering=1)
        return self._handle

    def append(self, seq, op, t, data):
        directive = None
        if self.faults is not None:
            directive = self.faults.storage_directive(seq)
        crc = None
        if directive == "corrupt":
            # Silent bitrot: flip the crc, keep running. Recovery must
            # catch it and refuse everything from this record on.
            crc = "{:08x}".format(
                int(record_crc(seq, op, t, data), 16) ^ 0xFFFFFFFF)
        line = encode_record(seq, op, t, data, crc=crc)
        handle = self._ensure_handle()
        if directive == "torn":
            # A crash mid-write: half the bytes, no newline, gone.
            handle.write(line[:max(len(line) // 2, 1)])
            self._die()
        handle.write(line + "\n")
        self.appended += 1
        self._unsynced += 1
        if directive == "crash":
            # The record is durable, the process is not: fsync, exit.
            self.flush()
            self._die()
        if self._unsynced >= self.fsync_batch:
            self.flush()

    def _die(self):
        from repro.resilience.hooks import CRASH_EXIT_CODE

        self._handle.flush()
        os.fsync(self._handle.fileno())
        os._exit(CRASH_EXIT_CODE)

    def flush(self):
        if self._handle is not None and self._unsynced:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    def close(self):
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    # -- snapshots ---------------------------------------------------------

    def _snapshot_path(self, seq):
        return os.path.join(self.directory,
                            "snapshot-{:08d}.json".format(seq))

    def snapshot(self, state_canonical):
        """Write ``snapshot-<seq>.json`` atomically (tmp + rename)."""
        self.flush()
        seq = state_canonical["op_seq"]
        state_json = canonical_json(state_canonical)
        payload = {
            "schema": JOURNAL_SCHEMA,
            "seq": seq,
            "state": state_canonical,
            "crc": "{:08x}".format(
                binascii.crc32(state_json.encode("utf-8")) & 0xFFFFFFFF),
        }
        path = self._snapshot_path(seq)
        atomic_write(path, canonical_json(payload), durable=True)
        return path

    def compact(self, state_canonical):
        """Snapshot, then atomically drop journaled ops it covers.

        The rewritten journal keeps only records with ``seq`` at or
        beyond the snapshot (normally none). The snapshot is durable
        *before* the journal is replaced, so a crash between the two
        steps only leaves redundant records, never a gap.
        """
        path = self.snapshot(state_canonical)
        seq = state_canonical["op_seq"]
        self.close()
        kept = []
        if os.path.exists(self.path):
            with open(self.path) as handle:
                for line in handle:
                    try:
                        record = decode_record(line)
                    except ValueError:
                        continue  # compaction discards a bad tail
                    if record["seq"] >= seq:
                        kept.append(line.rstrip("\n"))
        self.compact_kept = len(kept)
        atomic_write(self.path, "".join(line + "\n" for line in kept),
                     durable=True)
        return path

    # -- recovery ----------------------------------------------------------

    def snapshot_files(self):
        """Snapshot paths in the directory, newest (highest seq) first."""
        names = [name for name in os.listdir(self.directory)
                 if name.startswith("snapshot-")
                 and name.endswith(".json")]
        return [os.path.join(self.directory, name)
                for name in sorted(names, reverse=True)]

    def _load_snapshot(self, info):
        for path in self.snapshot_files():
            try:
                with open(path) as handle:
                    payload = json.load(handle)
                state_json = canonical_json(payload["state"])
                crc = "{:08x}".format(
                    binascii.crc32(state_json.encode("utf-8"))
                    & 0xFFFFFFFF)
                if payload.get("schema") != JOURNAL_SCHEMA \
                        or payload.get("crc") != crc \
                        or payload.get("seq") \
                        != payload["state"].get("op_seq"):
                    raise ValueError("snapshot failed validation")
            except (OSError, ValueError, KeyError, TypeError):
                info.snapshots_invalid += 1
                continue
            return payload["state"], payload["seq"]
        return None, -1

    def load(self):
        if not os.path.isdir(self.directory):
            raise JournalRecoveryError(
                "no service directory at {}".format(self.directory))
        info = RecoveryInfo()
        snapshot, snap_seq = self._load_snapshot(info)
        info.snapshot_seq = snap_seq
        if info.snapshots_invalid and snapshot is None \
                and self.snapshot_files():
            # Every snapshot failed validation; genesis replay may
            # still succeed if the journal was never compacted, but
            # the operator must know the snapshots are rot.
            info.degraded = True
            info.reason = "invalid_snapshots"
        lines = []
        if os.path.exists(self.path):
            with open(self.path) as handle:
                lines = handle.readlines()
        records = []
        expected = snap_seq if snap_seq >= 0 else None
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            info.records_total += 1
            try:
                record = decode_record(line)
            except ValueError:
                # Everything from the first bad record on is dropped;
                # only non-blank lines count as records. A torn tail is
                # a *partial write*: the last record on disk, not even
                # parseable JSON. A record that parses but fails its
                # crc (or one with valid records after it) is bitrot.
                dropped = sum(1 for rest in lines[index:] if rest.strip())
                info.records_dropped += dropped
                info.records_total += dropped - 1
                info.degraded = True
                try:
                    json.loads(line)
                    parses = True
                except ValueError:
                    parses = False
                last = not any(rest.strip()
                               for rest in lines[index + 1:])
                info.reason = "torn_tail" if last and not parses \
                    else "corrupt_record"
                break
            if expected is not None and record["seq"] < expected:
                continue  # covered by the snapshot
            if expected is not None and record["seq"] != expected:
                info.records_dropped += len(lines) - index
                info.degraded = True
                info.reason = "sequence_gap"
                break
            records.append(record)
            expected = record["seq"] + 1
        if snapshot is None and records and records[0]["seq"] != 0:
            raise JournalRecoveryError(
                "journal starts at seq {} with no valid snapshot "
                "before it".format(records[0]["seq"]))
        info.records_replayed = len(records)
        return snapshot, records, info
