"""PowerManagerService: wakelocks (partial and screen-bright).

Any honoured partial wakelock keeps the CPU awake, any honoured screen
wakelock keeps the display on. Gates, revoke/restore, listeners and app
death come from :class:`~repro.droid.resources.KernelObjectService`.
"""

import enum

from repro.droid.resources import (
    KernelObject,
    KernelObjectService,
    ResourceType,
)


class WakeLockLevel(enum.Enum):
    PARTIAL = "partial"  # CPU stays awake
    SCREEN_BRIGHT = "screen_bright"  # screen and CPU stay on


class WakeLockRecord(KernelObject):
    """Kernel-side record of one wakelock."""

    def __init__(self, sim, uid, name, level):
        rtype = (
            ResourceType.SCREEN
            if level is WakeLockLevel.SCREEN_BRIGHT
            else ResourceType.WAKELOCK
        )
        super().__init__(sim, uid, rtype, name)
        self.level = level
        self.interactions = 0  # user touches while a screen lock is honoured
        self.pretended_acquires = 0


class WakeLock:
    """App-side descriptor bound 1:1 to a :class:`WakeLockRecord`.

    Mirrors ``android.os.PowerManager.WakeLock``: ``acquire`` and
    ``release`` are IPCs into the service. Reference-counted like the real
    thing: nested acquires need as many releases.
    """

    def __init__(self, service, record, app):
        self._service = service
        self._record = record
        self._app = app
        self._ref_count = 0
        self._timeout_timer = None

    def acquire(self, timeout_s=None):
        """Acquire the lock; with ``timeout_s`` it self-releases later,
        like ``WakeLock.acquire(long timeout)`` on Android -- the API the
        well-behaved apps use to bound their own mistakes."""
        self._app.ipc("power", "acquire")
        self._ref_count += 1
        if self._ref_count == 1:
            self._service.acquire(self._record)
        # Any acquire supersedes a previously armed timeout: a plain
        # acquire must not be killed by a stale timer.
        if self._timeout_timer is not None:
            self._timeout_timer.cancel()
            self._timeout_timer = None
        if timeout_s is not None:
            self._timeout_timer = self._service.sim.schedule(
                timeout_s, self._timeout_release
            )

    def _timeout_release(self):
        self._timeout_timer = None
        if self._ref_count > 0:
            self.release()

    def release(self):
        if self._ref_count == 0:
            raise RuntimeError(
                "wakelock {!r} released more times than acquired".format(
                    self._record.name
                )
            )
        self._app.ipc("power", "release")
        self._ref_count -= 1
        if self._ref_count == 0:
            if self._timeout_timer is not None:
                self._timeout_timer.cancel()
                self._timeout_timer = None
            self._service.release(self._record)

    @property
    def held(self):
        """The app's view: does it believe it holds the lock?"""
        return self._ref_count > 0

    def __repr__(self):
        return "WakeLock({!r}, refs={})".format(self._record.name, self._ref_count)


class PowerManagerService(KernelObjectService):
    """Owns wakelock kernel objects and the device awake state."""

    name = "power"
    kind = "wakelock"

    def __init__(self, sim, cpu, suspend, display):
        super().__init__(sim)
        self.cpu = cpu
        self.suspend = suspend
        self.display = display

    # -- app-facing API ------------------------------------------------------

    def new_wakelock(self, app, name, level=WakeLockLevel.PARTIAL):
        app.ipc("power", "newWakeLock")
        record = self._register(
            WakeLockRecord(self.sim, app.uid, name, level))
        return WakeLock(self, record, app)

    # -- kernel-side operations ------------------------------------------------

    def acquire(self, record):
        if record.dead:
            raise RuntimeError("acquire on dead wakelock {!r}".format(record.name))
        if not self._admit(record, "on_wakelock_acquire"):
            record.pretended_acquires += 1

    def release(self, record):
        self._release(record, "on_wakelock_release")

    # -- internals ----------------------------------------------------------

    def _activate(self, record):
        if record.os_active:
            return
        self._mark_honoured(record, True)
        self._update_device_state()

    def _deactivate(self, record):
        if not record.os_active:
            return
        self._mark_honoured(record, False)
        self._update_device_state()

    def _update_device_state(self):
        cpu_holders = sorted(
            {r.uid for r in self._honoured}
        )  # any honoured lock keeps the CPU awake
        if cpu_holders:
            self.suspend.add_reason("wakelock")
        else:
            self.suspend.remove_reason("wakelock")
        self.cpu.set_awake_owners(cpu_holders)
        screen_records = [
            r for r in self._honoured if r.level is WakeLockLevel.SCREEN_BRIGHT
        ]
        self.display.set_screen_wakelocks(screen_records)

    def note_interaction(self):
        """Touches credit utilization of honoured screen locks."""
        for record in self._honoured:
            if record.level is WakeLockLevel.SCREEN_BRIGHT:
                record.interactions += 1
