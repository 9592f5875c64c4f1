"""App exception tracking -- the libcore ``ExceptionNoteHandler`` analog.

The paper's generic low-utility signal for wakelocks is "the frequency of
severe exceptions raised in apps" (Section 3.3); implementing it required
a libcore hook (Section 6). Here app framework helpers note every raised
simulated exception with this handler, and the lease manager reads the
count over each term window.

Exception classes for simulated failures also live here so app code can
catch them the way real apps catch ``IOException``.
"""

import bisect
from collections import defaultdict


class AppException(Exception):
    """Base for all simulated in-app exceptions."""

    severe = True


class NetworkException(AppException):
    """Base for network failures."""


class NoRouteException(NetworkException):
    """No connectivity at all (airplane mode, dropped network)."""


class ServerErrorException(NetworkException):
    """The server answered, but with an error status."""


class SocketTimeoutException(NetworkException):
    """The connection attempt or transfer timed out."""


class ExceptionNoteHandler:
    """Global handler counting severe exceptions per app over time.

    Mirrors the paper's libcore ``ExceptionNoteHandler`` (Section 6): set
    once during runtime init, notified on every throw, queried by the
    lease manager for per-term windows.
    """

    def __init__(self, sim):
        self.sim = sim
        self._times = defaultdict(list)  # uid -> sorted throw timestamps

    def note(self, uid, exception):
        """Record that ``uid`` raised ``exception`` now."""
        if getattr(exception, "severe", True):
            self._times[uid].append(self.sim.now)

    def count_in_window(self, uid, start, end):
        """Number of severe exceptions by ``uid`` in ``[start, end)``."""
        times = self._times[uid]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, end)
        return hi - lo

    def total(self, uid):
        return len(self._times[uid])
