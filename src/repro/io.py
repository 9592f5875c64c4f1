"""The canonical JSON format, the atomic file publish and the float
sum, in one place.

Every fingerprint, cache key, journal crc, report and golden in the
repo is computed over :func:`canonical_json` text, so that byte format
is decided here and nowhere else. Every float total that can reach
those bytes is added by :func:`left_sum`, so they are the same on every
Python version. :func:`atomic_write` is the one tmp+rename publish
behind the grid result cache, the fleet shard checkpoints, the lease
journal's snapshots and compaction, and the reports: the fleet report
(``repro.fleet.report.write_report``), the scenario report of ``repro
scenarios``, the failure manifest (``FailureManifest.write``) and the
chaos repro bundles (``repro.faults.bundle.write_bundle``). A reader,
or a process killed mid-write, never sees a torn file, and a write that
fails keeps the previous file.
"""

import json
import os
import tempfile

from functools import reduce
from operator import add


def canonical_json(obj):
    """``obj`` as key-sorted, compact JSON text (ASCII-escaped)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def left_sum(values, start=0):
    """``start + v0 + v1 + ...``, added left to right.

    The builtin ``sum()`` compensates float rounding since Python 3.12
    (Neumaier summation), so with three or more float terms its last
    digits depend on the interpreter. This is the plain left fold that
    ``sum()`` computed up to Python 3.11, including its int ``0`` for
    no terms.
    """
    return reduce(add, values, start)


def atomic_write(path, text, durable=False):
    """Replace the file at ``path`` with ``text`` in one rename.

    The text goes to a temporary file in the same directory, which is
    then renamed over ``path``. On ``OSError`` the temporary file is
    removed and the error propagates; the old file stays intact.
    ``durable=True`` fsyncs the temporary file before the rename, so
    the new content also survives a power cut.
    """
    handle = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(path), suffix=".tmp", delete=False)
    try:
        with handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except OSError:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
