"""Android-style Battery Saver: a threshold-triggered blanket mode.

Another real runtime mechanism in the paper's design space: when the
battery falls below a threshold, the saver restricts background work
(wakelocks, location, jobs, background network) and dims the screen
until charge recovers (or, here, until disabled). Like Doze it is
utility-blind -- it punishes the K-9s and the RunKeepers alike -- which
is why it complements rather than replaces the lease mechanism.
"""

from repro.droid.power_manager import WakeLockLevel
from repro.mitigation.base import Mitigation


class BatterySaver(Mitigation):
    """Activates below a battery threshold; restricts background work."""

    name = "battery-saver"

    CHECK_INTERVAL_S = 30.0

    def __init__(self, threshold_level=0.15, dim_screen=True):
        self.threshold_level = threshold_level
        self.dim_screen = dim_screen
        self.active = False
        self.activations = 0
        self._revoked = []
        self._last_remaining_mj = None

    def install(self, phone):
        self.phone = phone
        self.sim = phone.sim
        phone.power.gates.append(self._gate_wakelock)
        phone.location.gates.append(self._gate_generic)
        phone.net.restrictor = self._network_allowed
        phone.jobs.policy = self
        self.sim.every(self.CHECK_INTERVAL_S, self._check)

    # -- hooks ---------------------------------------------------------------

    def _exempt(self, uid):
        app = self.phone.apps.get(uid)
        if app is None:
            return True
        return app.foreground_service or app.foreground

    def _gate_wakelock(self, record):
        if not self.active or self._exempt(record.uid):
            return True
        if record.level is WakeLockLevel.SCREEN_BRIGHT:
            return True
        self._revoked.append(record)
        return False

    def _gate_generic(self, record):
        if not self.active or self._exempt(record.uid):
            return True
        self._revoked.append(record)
        return False

    def _network_allowed(self, uid):
        return not self.active or self._exempt(uid)

    def intercept_job(self, job):
        return self.active and not self._exempt(job.app.uid)

    # -- state ---------------------------------------------------------------

    def _check(self):
        # The battery only moves at settle points; an unchanged charge
        # re-evaluates to the exact decision the previous check made.
        remaining = self.phone.battery.remaining_mj
        if remaining == self._last_remaining_mj:
            return
        self._last_remaining_mj = remaining
        should_be_active = self.phone.battery.level <= self.threshold_level
        if should_be_active and not self.active:
            self._activate()
        elif not should_be_active and self.active:
            self._deactivate()

    def _activate(self):
        self.active = True
        self.activations += 1
        power = self.phone.power
        for record in power.honoured_records():
            if record.level is WakeLockLevel.SCREEN_BRIGHT:
                continue
            if self._exempt(record.uid):
                continue
            power.revoke(record)
            self._revoked.append(record)
        for record in list(self.phone.location.records):
            if record.os_active and not self._exempt(record.uid):
                self.phone.location.revoke(record)
                self._revoked.append(record)
        if self.dim_screen:
            self.phone.display.set_dimmed(True)
        self.phone.broadcasts.publish("battery-low",
                                      {"level": self.phone.battery.level})

    def _deactivate(self):
        self.active = False
        revoked, self._revoked = self._revoked, []
        for record in revoked:
            record.service.restore(record)
        if self.dim_screen:
            self.phone.display.set_dimmed(False)
        self.phone.jobs.flush_pending()
