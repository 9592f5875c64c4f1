"""The Phone facade: one simulated device, fully wired.

Construct a Phone, install apps, optionally install a mitigation
(:mod:`repro.mitigation`), then run simulated time::

    phone = Phone(profile=PIXEL_XL, seed=7, mitigation=LeaseOSMitigation())
    phone.install(K9Mail(scenario="bad_server"))
    mark = phone.energy_mark()
    phone.run_for(minutes=30)
    print(phone.power_since(mark, uid=app.uid), "mW")
"""

import itertools
import random

from repro.device.battery import Battery
from repro.device.power import PowerMonitor, SYSTEM_UID
from repro.device.profiles import PIXEL_XL
from repro.droid.alarms import AlarmManager
from repro.droid.app import AppContext
from repro.droid.audio import AudioService
from repro.droid.broadcasts import BroadcastManager
from repro.droid.bluetooth import BluetoothService
from repro.droid.connectivity import ConnectivityService
from repro.droid.cpu import CpuPowerModel
from repro.droid.display import DisplayService
from repro.droid.exceptions import ExceptionNoteHandler
from repro.droid.ipc import IpcBus
from repro.droid.jobs import JobScheduler
from repro.droid.location import LocationManagerService
from repro.droid.power_manager import PowerManagerService
from repro.droid.sensors import SensorManagerService
from repro.droid.suspend import SuspendController
from repro.droid.wifi import WifiService
from repro.env.environment import Environment
from repro.env.user import UserModel
from repro.sim.engine import Simulator


class EnergyMark:
    """Snapshot of the ledger at an instant, for interval power math."""

    __slots__ = ("time", "by_app", "total")

    def __init__(self, time, by_app, total):
        self.time = time
        self.by_app = by_app
        self.total = total


class Phone:
    """A simulated device: hardware + OS services + installed apps."""

    #: How long launching an app holds the device awake so the app's
    #: startup code can run and acquire its first resources.
    LAUNCH_WINDOW_S = 5.0
    #: How long one touch keeps the device awake.
    USER_ACTIVITY_WINDOW_S = 5.0

    def __init__(self, profile=PIXEL_XL, seed=1, mitigation=None,
                 connected=True, network_kind="wifi", gps_quality=0.9,
                 movement_mps=0.0, battery_level=1.0, ambient=True,
                 ambient_mean_s=300.0, dvfs=None):
        self.sim = Simulator()
        self.profile = profile
        self.rng = random.Random(seed)
        self.battery = Battery.for_profile(profile, battery_level)
        self.monitor = PowerMonitor(self.sim, profile, self.battery)
        self.env = Environment(
            self.sim, connected=connected, network_kind=network_kind,
            gps_quality=gps_quality, movement_mps=movement_mps,
        )
        self.ipc = IpcBus(self.sim, profile.ipc_latency_s)
        self.exceptions = ExceptionNoteHandler(self.sim)
        self.cpu = CpuPowerModel(self.sim, self.monitor, profile,
                                 dvfs=dvfs)
        self.suspend = SuspendController(self.sim, self.cpu)
        self.display = DisplayService(self.sim, self.monitor, profile,
                                      self.suspend)
        self.power = PowerManagerService(self.sim, self.cpu, self.suspend,
                                         self.display)
        self.location = LocationManagerService(
            self.sim, self.monitor, profile, self.env,
            random.Random(seed + 101),
        )
        self.sensors = SensorManagerService(
            self.sim, self.monitor, profile, random.Random(seed + 202)
        )
        self.wifi = WifiService(self.sim, self.monitor, profile, self.env)
        self.audio = AudioService(self.sim, self.monitor, profile)
        self.bluetooth = BluetoothService(
            self.sim, self.monitor, profile, random.Random(seed + 505)
        )
        #: Every service that owns kernel objects, in app-death order.
        self.kernel_services = (self.power, self.location, self.sensors,
                                self.wifi, self.bluetooth, self.audio)
        self.net = ConnectivityService(
            self.sim, self.monitor, profile, self.env, self.exceptions,
            self.suspend,
        )
        self.net.wifi_service = self.wifi
        self.alarms = AlarmManager(self.sim, self.suspend)
        self.jobs = JobScheduler(self.sim, self)
        self.broadcasts = BroadcastManager(self.sim, self.suspend)
        self.env.network.on_change(
            lambda connected, kind: self.broadcasts.publish(
                BroadcastManager.CONNECTIVITY_CHANGE,
                {"connected": connected, "kind": kind},
            )
        )
        self.apps = {}
        self._uids = itertools.count(10000)  # app uids, in install order
        self.foreground_uid = None
        self.lease_manager = None  # set by the LeaseOS mitigation
        self.user_activity_listeners = []  # callback() on touch/screen-on
        #: Ambient device events (pushes, connectivity chatter, handling):
        #: brief wakeups that exist under every mitigation. They are what
        #: makes system-wide deferral (Doze) fragile -- "any non-trivial
        #: activity can interrupt the deferral" (paper §7.3) -- while
        #: per-lease deferral does not care.
        self.ambient_listeners = []
        self._ambient_rng = random.Random(seed + 404)
        self._ambient_mean_s = ambient_mean_s
        if ambient:
            self._schedule_ambient()
        self.user = UserModel(self.sim, self, random.Random(seed + 303))
        self.suspend.set_process_provider(self._app_processes)
        self.env.network.on_change(lambda *_: self._refresh_baseline())
        self._refresh_baseline()
        # Boot state: screen off, nothing held -> deep sleep.
        self.suspend._reevaluate()
        self.mitigation = mitigation
        if mitigation is not None:
            mitigation.install(self)

    # -- app management -------------------------------------------------------

    def install(self, app, start=True, seed=None):
        """Install (and by default start) an app; assigns its uid."""
        if app.uid is not None:
            raise ValueError("app {!r} already installed".format(app.name))
        app.uid = next(self._uids)
        app_seed = seed if seed is not None else self.rng.randrange(2 ** 31)
        app.install(AppContext(self), random.Random(app_seed))
        self.apps[app.uid] = app
        if start:
            # Launching keeps the device awake long enough for startup.
            self.suspend.hold_awake(
                "launch:{}".format(app.uid), self.LAUNCH_WINDOW_S
            )
            app.start()
        return app

    def kill_app(self, uid):
        """Terminate an app; services clean its kernel objects (§4.3),
        the scheduler cancels its jobs and the alarm manager its
        alarms."""
        app = self.apps[uid]
        app.stop()
        for service in self.kernel_services:
            service.kill_app(uid)
        self.jobs.kill_app(uid)
        self.alarms.kill_app(uid)
        self.broadcasts.unregister_app(uid)

    def restart_app(self, uid):
        """Restart a previously killed app (crash-restart semantics).

        The app keeps its uid and installed context; ``on_start`` runs
        again and the main loop is respawned, acquiring fresh kernel
        objects -- the old ones were cleaned by :meth:`kill_app`. Like a
        launch, the restart holds the device awake for the startup
        window.
        """
        app = self.apps[uid]
        if app.started:
            return app
        self.suspend.hold_awake(
            "launch:{}".format(app.uid), self.LAUNCH_WINDOW_S
        )
        app.start()
        return app

    def _app_processes(self):
        for app in self.apps.values():
            for proc in app.alive_processes():
                yield proc

    # -- user input -----------------------------------------------------------

    def screen_on(self):
        self.display.set_user_screen(True)
        self._fire_user_activity()

    def screen_off(self):
        self.display.set_user_screen(False)

    def set_foreground(self, uid):
        if self.foreground_uid is not None:
            previous = self.apps.get(self.foreground_uid)
            if previous is not None:
                previous.foreground = False
        self.foreground_uid = uid
        if uid is not None and uid in self.apps:
            self.apps[uid].foreground = True

    def touch(self, uid=None):
        """One user interaction with ``uid`` (default: foreground app).

        The touch wakes the device either way; only a started app's
        code handles it, so a killed app stays dead until restarted.
        """
        target = uid if uid is not None else self.foreground_uid
        self.display.note_interaction()
        self.power.note_interaction()
        self.suspend.hold_awake("user", self.USER_ACTIVITY_WINDOW_S)
        self._fire_user_activity()
        app = self.apps.get(target)
        if app is not None and app.started:
            app.user_touch()

    def _fire_user_activity(self):
        for listener in list(self.user_activity_listeners):
            listener()

    def _schedule_ambient(self):
        delay = self._ambient_rng.expovariate(1.0 / self._ambient_mean_s)
        self.sim.schedule(delay, self._ambient_event)

    def _ambient_event(self):
        self.suspend.hold_awake("ambient", 2.0)
        for listener in list(self.ambient_listeners):
            listener()
        self._schedule_ambient()

    # -- time ---------------------------------------------------------------

    def run_for(self, seconds=None, minutes=None, hours=None):
        total = (seconds or 0.0) + 60.0 * (minutes or 0.0) \
            + 3600.0 * (hours or 0.0)
        self.sim.run_until(self.sim.now + total)
        self.monitor.settle()

    def run_until(self, when):
        self.sim.run_until(when)
        self.monitor.settle()

    # -- measurement ------------------------------------------------------------

    def energy_mark(self):
        self.monitor.settle()
        return EnergyMark(
            self.sim.now, self.monitor.ledger.by_app(),
            self.monitor.ledger.total_mj(),
        )

    def power_since(self, mark, uid=None):
        """Average draw in mW since ``mark``: per-app or whole-system."""
        self.monitor.settle()
        elapsed = self.sim.now - mark.time
        if elapsed <= 0:
            return 0.0
        if uid is None:
            return (self.monitor.ledger.total_mj() - mark.total) / elapsed
        current = self.monitor.ledger.by_app().get(uid, 0.0)
        return (current - mark.by_app.get(uid, 0.0)) / elapsed

    def dumpsys_batterystats(self, top=10):
        """A ``dumpsys batterystats``-style per-app blame report."""
        self.monitor.settle()
        now = self.sim.now
        if now <= 0:
            return "batterystats: no time elapsed"
        lines = [
            "Battery stats since boot ({:.0f} s, {:.0f}% remaining):".format(
                now, self.battery.level * 100.0),
            "  total: {:.1f} mW average draw".format(
                self.monitor.ledger.total_mj() / now),
        ]
        blame = sorted(self.monitor.ledger.by_app().items(),
                       key=lambda item: item[1], reverse=True)
        for uid, energy in blame[:top]:
            app = self.apps.get(uid)
            name = app.name if app else (
                "system" if uid == SYSTEM_UID else "uid:{}".format(uid))
            lines.append("  {:24s} {:8.1f} mW  ({:7.0f} mJ)".format(
                name, energy / now, energy))
        suspended_pct = 100.0 * self.suspend.suspended_time() / now
        lines.append("  deep sleep: {:.0f}% of uptime, {} suspends".format(
            suspended_pct, self.suspend.suspend_count))
        return "\n".join(lines)

    # -- internals -------------------------------------------------------------

    def _refresh_baseline(self):
        """Constant radio idle draws (system-attributed)."""
        network = self.env.network
        wifi_idle = self.profile.wifi_idle_mw if network.kind == "wifi" else 0.0
        self.monitor.set_rail("wifi_idle", wifi_idle, ())
        self.monitor.set_rail("radio_idle", self.profile.radio_idle_mw, ())

    @property
    def system_uid(self):
        return SYSTEM_UID
