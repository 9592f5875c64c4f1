"""Android Doze reimplementation (paper §7.3 baseline).

Doze is a *system-wide* idle mode: when the device has been unused for a
while (or immediately, in the paper's forced-aggressive variant), it
ignores background partial wakelocks, stops background location and
sensor delivery, defers background network and wakeup alarms, and only
periodically opens a maintenance window. Crucially it is all-or-nothing:
any non-trivial device activity (user touch, ambient events) interrupts
the deferral for everything, which is why the paper finds it much less
effective than per-lease deferral -- and why it cannot help at all with
screen wakelocks (Table 5: ConnectBot-screen 0.57%).
"""

import enum
import random

from repro.droid.power_manager import WakeLockLevel
from repro.mitigation.base import Mitigation


class DozeState(enum.Enum):
    ACTIVE = "active"  # not dozing
    DOZING = "dozing"
    MAINTENANCE = "maintenance"


class Doze(Mitigation):
    """System-wide background deferral with maintenance windows."""

    name = "doze"

    def __init__(self, aggressive=False, idle_threshold_s=1800.0,
                 reentry_delay_s=60.0, maintenance_interval_s=900.0,
                 maintenance_window_s=30.0, interruption_min_s=10.0,
                 interruption_max_s=30.0):
        self.aggressive = aggressive
        self.idle_threshold_s = idle_threshold_s
        self.reentry_delay_s = reentry_delay_s
        self.maintenance_interval_s = maintenance_interval_s
        self.maintenance_window_s = maintenance_window_s
        self.interruption_min_s = interruption_min_s
        self.interruption_max_s = interruption_max_s
        self.state = DozeState.ACTIVE
        self.doze_entries = 0
        self._revoked = []  # records we revoked or denied
        self._queued_alarms = []
        self._reentry_timer = None
        self._maintenance_timer = None

    # -- installation ---------------------------------------------------------

    def install(self, phone):
        self.phone = phone
        self.sim = phone.sim
        self._rng = random.Random(20190413)
        self._last_activity = self.sim.now
        phone.user_activity_listeners.append(self._on_user_activity)
        phone.ambient_listeners.append(self._on_ambient_event)
        phone.alarms.policy = self
        phone.jobs.policy = self
        phone.net.restrictor = self._network_allowed
        phone.power.gates.append(self._gate_wakelock)
        phone.location.gates.append(self._gate_generic)
        phone.sensors.gates.append(self._gate_generic)
        phone.wifi.gates.append(self._gate_generic)
        phone.bluetooth.gates.append(self._gate_generic)
        self.sim.every(30.0, self._idle_check)
        if self.aggressive:
            # The paper forces Doze on at the start of each experiment.
            self.sim.schedule(0.0, self._enter_doze)

    # -- exemptions ------------------------------------------------------------

    def _exempt(self, uid):
        app = self.phone.apps.get(uid)
        if app is None:
            return True  # system
        if app.foreground_service or app.foreground:
            return True
        return False

    # -- gates & policy hooks ------------------------------------------------------

    def _gate_wakelock(self, record):
        if self.state is not DozeState.DOZING:
            return True
        if record.level is WakeLockLevel.SCREEN_BRIGHT:
            return True  # Doze does not manage the screen
        if self._exempt(record.uid):
            return True
        self._revoked.append(record)
        return False

    def _gate_generic(self, record):
        if self.state is not DozeState.DOZING:
            return True
        if self._exempt(record.uid):
            return True
        self._revoked.append(record)
        return False

    def _network_allowed(self, uid):
        if self.state is not DozeState.DOZING:
            return True
        return self._exempt(uid)

    def intercept_alarm(self, alarm):
        """AlarmManager policy: defer background wakeups while dozing."""
        if self.state is not DozeState.DOZING:
            return False
        if self._exempt(alarm.uid):
            return False
        self._queued_alarms.append(alarm)
        return True

    def intercept_job(self, job):
        """JobScheduler policy: defer background jobs while dozing."""
        if self.state is not DozeState.DOZING:
            return False
        return not self._exempt(job.app.uid)

    # -- doze lifecycle ----------------------------------------------------------

    def _idle_check(self):
        if self.state is not DozeState.ACTIVE:
            return
        idle_for = self.sim.now - self._last_activity
        threshold = (self.reentry_delay_s if self.aggressive
                     else self.idle_threshold_s)
        if idle_for < threshold:
            return  # cheapest predicate first: most checks end here
        if self.phone.env.gps.speed_mps < 0.1 \
                and not self.phone.display.screen_on:
            self._enter_doze()

    def _enter_doze(self):
        if self.state is DozeState.DOZING:
            return
        if self.phone.display.screen_on and not self.aggressive:
            return
        self.state = DozeState.DOZING
        self.doze_entries += 1
        self._revoke_background()
        self._schedule_maintenance()

    def _exit_doze(self):
        if self.state is DozeState.ACTIVE:
            return
        self.state = DozeState.ACTIVE
        self._cancel_maintenance()
        self._restore_all()
        self._flush_alarms()
        self._last_activity = self.sim.now

    def _on_user_activity(self):
        self._last_activity = self.sim.now
        if self.state is not DozeState.ACTIVE:
            self._exit_doze()

    def _on_ambient_event(self):
        """Non-trivial device activity interrupts the deferral (§7.3)."""
        if self.state is DozeState.DOZING:
            self._exit_doze()
            # The activity keeps the device "in use" for a short while;
            # the idle check re-enters doze once it has been quiet for the
            # (re-entry) threshold again.
            hold = self._rng.uniform(self.interruption_min_s,
                                     self.interruption_max_s)
            self._last_activity = self.sim.now + hold

    # -- maintenance windows ------------------------------------------------------

    def _schedule_maintenance(self):
        self._maintenance_timer = self.sim.schedule(
            self.maintenance_interval_s, self._begin_maintenance
        )

    def _cancel_maintenance(self):
        if self._maintenance_timer is not None:
            self._maintenance_timer.cancel()
            self._maintenance_timer = None

    def _begin_maintenance(self):
        if self.state is not DozeState.DOZING:
            return
        self.state = DozeState.MAINTENANCE
        self._restore_all()
        self._flush_alarms()
        self.phone.suspend.hold_awake("doze-maintenance",
                                      self.maintenance_window_s)
        self._maintenance_timer = self.sim.schedule(
            self.maintenance_window_s, self._end_maintenance
        )

    def _end_maintenance(self):
        if self.state is not DozeState.MAINTENANCE:
            return
        self.state = DozeState.DOZING
        self._revoke_background()
        self._schedule_maintenance()

    # -- revocation bookkeeping ------------------------------------------------------

    def _revoke_background(self):
        power = self.phone.power
        for record in power.honoured_records():
            if record.level is WakeLockLevel.SCREEN_BRIGHT:
                continue
            if self._exempt(record.uid):
                continue
            power.revoke(record)
            self._revoked.append(record)
        for service in (self.phone.location, self.phone.sensors,
                        self.phone.wifi, self.phone.bluetooth):
            for record in list(service.records):
                if record.os_active and not self._exempt(record.uid):
                    service.revoke(record)
                    self._revoked.append(record)

    def _restore_all(self):
        revoked, self._revoked = self._revoked, []
        for record in revoked:
            record.service.restore(record)

    def _flush_alarms(self):
        queued, self._queued_alarms = self._queued_alarms, []
        for alarm in queued:
            self.phone.alarms.deliver_now(alarm)
        self.phone.jobs.flush_pending()
