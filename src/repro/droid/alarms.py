"""AlarmManager: timed callbacks that may wake the device.

Background apps (mail pollers, scanners) schedule wakeup alarms; when one
fires while the device is suspended the device briefly wakes (the handling
window) so the app can run -- usually it immediately takes a wakelock.
Doze interposes on alarms through the ``policy`` hook to defer background
wakeups to maintenance windows.
"""


class Alarm:
    __slots__ = ("id", "uid", "callback", "wakeup", "cancelled", "interval")

    def __init__(self, ident, uid, callback, wakeup, interval=None):
        self.id = ident
        self.uid = uid
        self.callback = callback
        self.wakeup = wakeup
        self.cancelled = False
        self.interval = interval  # set for repeating alarms

    def cancel(self):
        self.cancelled = True

    def __repr__(self):
        kind = "wakeup" if self.wakeup else "non-wakeup"
        return "Alarm#{}(uid={}, {})".format(self.id, self.uid, kind)


class AlarmManager:
    """Schedules app alarms on the simulator with an interception hook."""

    #: How long a firing wakeup alarm holds the device awake so the app can
    #: start handling it (apps then keep themselves awake with wakelocks).
    HANDLING_WINDOW_S = 1.0

    def __init__(self, sim, suspend):
        self.sim = sim
        self.suspend = suspend
        #: Optional ``policy.intercept_alarm(alarm) -> bool``; returning
        #: True means the policy swallowed the firing (e.g. Doze deferring
        #: it to a maintenance window and re-delivering later via
        #: :meth:`deliver_now`).
        self.policy = None
        self.fired_count = 0
        #: uid -> set of its live alarms. A one-shot leaves on delivery,
        #: a cancelled alarm at its next firing: the record stays bounded.
        self._live = {}

    def set(self, uid, delay, callback, wakeup=True):
        """One-shot alarm after ``delay`` seconds. Returns the Alarm."""
        alarm = self._track(Alarm(next(self.sim.ids), uid, callback, wakeup))
        self.sim.schedule(delay, lambda: self._fire(alarm))
        return alarm

    def set_repeating(self, uid, interval, callback, wakeup=True):
        """Repeating alarm every ``interval`` seconds. Returns the Alarm."""
        if interval <= 0:
            raise ValueError("alarm interval must be positive")
        alarm = self._track(Alarm(next(self.sim.ids), uid, callback, wakeup,
                                  interval=interval))
        self.sim.schedule(interval, lambda: self._fire(alarm))
        return alarm

    def kill_app(self, uid):
        """App death: cancel the app's alarms, so neither their next
        firing nor a delivery a policy queued (Doze) runs its code. A
        restart's ``on_start`` sets fresh alarms."""
        for alarm in self._live.pop(uid, ()):
            alarm.cancel()

    def _track(self, alarm):
        self._live.setdefault(alarm.uid, set()).add(alarm)
        return alarm

    def _forget(self, alarm):
        live = self._live.get(alarm.uid)
        if live is not None:
            live.discard(alarm)
            if not live:
                del self._live[alarm.uid]

    def _fire(self, alarm):
        if alarm.cancelled:
            self._forget(alarm)
            return
        if alarm.interval is not None:
            # Re-arm first so a policy deferral cannot kill the series.
            self.sim.schedule(alarm.interval, lambda: self._fire(alarm))
        if self.policy is not None and self.policy.intercept_alarm(alarm):
            return
        self.deliver_now(alarm)

    def deliver_now(self, alarm):
        """Deliver an alarm immediately (also used by Doze maintenance)."""
        if alarm.interval is None:
            self._forget(alarm)  # a one-shot is done, delivered or not
        if alarm.cancelled:
            return
        self.fired_count += 1
        if alarm.wakeup:
            self.suspend.hold_awake(
                "alarm:{}".format(alarm.id), self.HANDLING_WINDOW_S
            )
        alarm.callback()
