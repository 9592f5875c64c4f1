"""App framework: base class, lifecycle, and framework helpers.

Apps are written the way the paper's Figure 8 sketches them: a class with
one or more generator *processes* that acquire resources through app-side
descriptors (``WakeLock``, ``LocationRegistration``...), do work
(``yield from self.compute(...)``, ``yield from self.http(...)``), and
(hopefully) release them. The framework also tracks the signals the
generic utility metrics consume: UI updates, user interactions and raised
exceptions (Section 3.3).
"""

from bisect import bisect_left

from repro.sim.events import Timeout


def count_in(times, start, end):
    """How many of the sorted ``times`` lie in ``[start, end)``."""
    return max(0, bisect_left(times, end) - bisect_left(times, start))


class AppContext:
    """Everything the framework exposes to an installed app."""

    def __init__(self, phone):
        self.phone = phone
        self.sim = phone.sim
        self.profile = phone.profile
        self.env = phone.env
        self.monitor = phone.monitor
        self.cpu = phone.cpu
        self.ipc = phone.ipc
        self.exceptions = phone.exceptions
        self.power = phone.power
        self.display = phone.display
        self.location = phone.location
        self.sensors = phone.sensors
        self.wifi = phone.wifi
        self.audio = phone.audio
        self.bluetooth = phone.bluetooth
        self.net = phone.net
        self.alarms = phone.alarms
        self.jobs = phone.jobs
        self.broadcasts = phone.broadcasts


class App:
    """Base class for all workload apps.

    Subclasses override :meth:`run` (the main service loop, a generator)
    and optionally :meth:`on_touch` (handle a user interaction) and
    :meth:`on_start` (synchronous setup once installed).
    """

    #: Default metadata, overridden by subclasses.
    app_name = None
    category = "tool"
    #: Apps running a foreground service (music players, fitness trackers)
    #: are partially exempt from Doze, like on real Android.
    foreground_service = False

    def __init__(self, name=None):
        self.uid = None  # assigned by Phone.install
        self.name = name or self.app_name or type(self).__name__
        self.ctx = None
        self.rng = None
        self.processes = []
        self.started = False
        self.foreground = False
        self.ui_update_times = []
        self.notification_times = []
        self.interaction_times = []
        self.data_write_times = []
        self.disruptions = []  # (time, description) usability incidents
        #: One read-only Timeout per distinct delay, shared by every
        #: sleep and compute step of the app.
        self._timeouts = {}

    # -- lifecycle (called by Phone) ----------------------------------------

    def install(self, ctx, rng):
        self.ctx = ctx
        self.rng = rng

    def start(self):
        """Run setup and spawn the main loop."""
        if self.started:
            raise RuntimeError("app {!r} already started".format(self.name))
        self.started = True
        self.on_start()
        main = self.run()
        if main is not None:
            self.spawn(main, name="{}.main".format(self.name))

    def on_start(self):
        """Synchronous setup hook (onCreate analog)."""

    def run(self):
        """Main background loop; return a generator or None."""
        return None

    def on_touch(self):
        """React to a user interaction (button click, etc.)."""

    def stop(self):
        """Kill all of this app's processes (the Phone cleans services)."""
        for proc in self.processes:
            proc.kill()
        self.processes = []
        self.started = False

    # -- processes ---------------------------------------------------------

    def spawn(self, generator, name=None):
        """Start an app process; frozen immediately if the device sleeps."""
        proc = self.ctx.sim.spawn(
            generator, name=name or "{}.worker".format(self.name)
        )
        self.processes = [p for p in self.processes if p.alive]
        self.processes.append(proc)
        if self.ctx.phone.suspend.suspended:
            proc.pause()
        return proc

    def alive_processes(self):
        self.processes = [p for p in self.processes if p.alive]
        return list(self.processes)

    # -- framework helpers -------------------------------------------------

    def ipc(self, service, method, extra_latency_s=0.0):
        """Record one binder transaction; returns its modelled latency."""
        return self.ctx.ipc.record(self.uid, service, method, extra_latency_s)

    def sleep(self, seconds):
        """Yieldable: sleep for ``seconds`` of (awake) simulated time."""
        timeout = self._timeouts.get(seconds)
        if timeout is None:
            timeout = self._timeouts[seconds] = Timeout(seconds)
        return timeout

    def compute(self, cpu_seconds, cores=1.0):
        """Generator: burn CPU for ``cpu_seconds`` of work.

        Wall time scales with the device's speed factor (slow phones take
        longer, as the paper's cross-phone study observes); energy is
        attributed to this app. Must be ``yield from``-ed.
        """
        cpu = self.ctx.cpu
        wall = cpu_seconds / self.ctx.profile.speed_factor
        cpu.begin_compute(self.uid, cores)
        try:
            yield self.sleep(wall)
        finally:
            cpu.end_compute(self.uid, cores)

    def http(self, server, payload_s=0.0):
        """Generator: one network request (see ConnectivityService)."""
        return self.ctx.net.request(self, server, payload_s)

    def note_exception(self, exception):
        """Report a caught exception to the libcore handler."""
        self.ctx.exceptions.note(self.uid, exception)

    def set_utility_counter(self, rtype, counter):
        """Register an optional custom utility counter (paper Fig. 6).

        A no-op on systems without LeaseOS installed, so apps using the
        API stay compatible with vanilla Android.
        """
        manager = self.ctx.phone.lease_manager
        if manager is not None:
            self.ipc("lease", "setUtility")
            manager.set_utility(self.uid, rtype, counter)

    # -- utility signals -----------------------------------------------------

    def post_ui_update(self):
        """The app refreshed something the user can see."""
        self.ui_update_times.append(self.ctx.sim.now)

    def post_notification(self, text=""):
        """The app posted a notification: user-visible value even with
        the app in the background (counts toward generic utility)."""
        self.notification_times.append((self.ctx.sim.now, text))
        self.ui_update_times.append(self.ctx.sim.now)

    def user_touch(self):
        """Called by the Phone when the user interacts with this app."""
        self.interaction_times.append(self.ctx.sim.now)
        self.on_touch()

    def note_data_write(self, count=1):
        """The app persisted useful data (tracking points, messages...)."""
        self.data_write_times.extend([self.ctx.sim.now] * count)

    def record_disruption(self, description):
        """The app's core function was visibly interrupted (usability)."""
        self.disruptions.append((self.ctx.sim.now, description))

    # The signal lists are appended at ``sim.now``, so they are sorted
    # and a window count is two binary searches.

    def ui_updates_in(self, start, end):
        return count_in(self.ui_update_times, start, end)

    def interactions_in(self, start, end):
        return count_in(self.interaction_times, start, end)

    def data_writes_in(self, start, end):
        return count_in(self.data_write_times, start, end)

    def __repr__(self):
        return "{}(uid={}, {!r})".format(type(self).__name__, self.uid, self.name)
