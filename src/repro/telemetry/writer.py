"""Crash-safe append-only JSONL writer for telemetry streams.

One writer owns one stream file. Records are serialised to a single
line and written with one ``write()`` call on a line-buffered handle,
so each record is atomic with respect to crashes (a killed process
leaves only whole lines behind; POSIX appends of one short line do not
interleave). Fork-safety comes from file *naming*, not locking: every
writer embeds ``os.getpid()`` plus a per-process counter in its file
name, so a forked shard worker and its parent (or two runs in the same
process) can never share a file -- and per-file sequence numbers stay
gapless from 0.
"""

import itertools
import os
import time

from repro.io import canonical_json
from repro.telemetry.schema import SCHEMA_VERSION

# Distinguishes successive writers for the same stream within one
# process (e.g. two FleetRunner runs back to back).
_FILE_COUNTER = itertools.count()


class TelemetryWriter:
    """Appends events of one logical stream to its own JSONL file.

    Parameters
    ----------
    directory:
        The run's stream directory (``results/.telemetry/<fp>/``).
    stream:
        Logical stream name: ``"run"`` or ``"shard-NNNNNN"``.
    fp:
        The 12-hex run fingerprint stamped on every event.
    """

    def __init__(self, directory, stream, fp):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.stream = stream
        self.fp = fp
        self.seq = 0
        name = "{}-p{}-{:02d}.jsonl".format(
            stream, os.getpid(), next(_FILE_COUNTER))
        self.path = os.path.join(directory, name)
        # Line buffering => one flush per record, no torn lines, and
        # no unbounded buffering between progress snapshots.
        self._handle = open(self.path, "a", buffering=1)

    def emit(self, event, **fields):
        """Append one event; envelope fields are filled in here."""
        if self._handle is None:
            return
        record = {"v": SCHEMA_VERSION, "event": event,
                  "stream": self.stream, "seq": self.seq,
                  "fp": self.fp, "t_wall": round(time.time(), 3)}
        record.update(fields)
        self._handle.write(canonical_json(record) + "\n")
        self.seq += 1

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
