"""DefDroid-style fine-grained throttling (paper §7.3 baseline).

DefDroid watches *per-app* resource holding and throttles apps whose use
of a resource class has run "too long": it forcibly pauses long-held
wakelocks / screen locks for a penalty period and duty-cycles
long-running GPS / sensor use. Accounting is per (app, resource class) --
an app cannot dodge the throttle by recycling fresh registrations (the
WHERE pattern).

Settings are deliberately conservative (the paper: "the mechanism
inherently cannot distinguish legitimate behavior from misbehavior so its
settings have to be conservative"), which is why it lags LeaseOS:
misbehaving apps run unthrottled until the threshold trips, and GPS
duty-cycling must stay gentle to avoid breaking navigation apps.
"""

from collections import defaultdict
from dataclasses import dataclass

from repro.droid.resources import ResourceType
from repro.mitigation.base import Mitigation, QuiescenceGuard


@dataclass(frozen=True)
class ThrottleRule:
    """After ``threshold_s`` of honoured holding (accumulated per app and
    resource class), revoke the app's objects of that class for
    ``revoke_s``, then restore and start accumulating again."""

    rtype: ResourceType
    threshold_s: float
    revoke_s: float


#: Conservative defaults, tuned per resource class like DefDroid's
#: per-resource policies. GPS is throttled most gently (duty cycling a
#: navigation app hard would break it), which is exactly why DefDroid is
#: weakest on the GPS rows of Table 5.
DEFAULT_RULES = {
    ResourceType.WAKELOCK: ThrottleRule(ResourceType.WAKELOCK, 60.0, 300.0),
    ResourceType.SCREEN: ThrottleRule(ResourceType.SCREEN, 60.0, 300.0),
    ResourceType.GPS: ThrottleRule(ResourceType.GPS, 70.0, 50.0),
    ResourceType.SENSOR: ThrottleRule(ResourceType.SENSOR, 60.0, 150.0),
    ResourceType.WIFI: ThrottleRule(ResourceType.WIFI, 60.0, 300.0),
    ResourceType.BLUETOOTH: ThrottleRule(ResourceType.BLUETOOTH, 60.0,
                                         150.0),
}


class DefDroid(Mitigation):
    """Per-app holding-time-threshold throttling."""

    name = "defdroid"

    SCAN_INTERVAL_S = 10.0

    def __init__(self, rules=None):
        self.rules = dict(DEFAULT_RULES)
        if rules:
            self.rules.update(rules)
        self.throttle_events = 0
        self._markers = defaultdict(float)  # (uid, rtype) -> settled s
        self._throttled = set()  # (uid, rtype) currently revoked

    def install(self, phone):
        self.phone = phone
        self.sim = phone.sim
        self._services = (phone.power, phone.location, phone.sensors,
                          phone.wifi, phone.bluetooth)
        for service in self._services:
            service.gates.append(self._gate)
        self._guard = QuiescenceGuard(self._services)
        self.sim.every(self.SCAN_INTERVAL_S, self._scan)

    def _gate(self, record):
        """Deny (pretend-succeed) acquires while the class is throttled."""
        return (record.uid, record.rtype) not in self._throttled

    # -- internals ----------------------------------------------------------

    def _all_records(self):
        for service in self._services:
            yield from service.records

    def _records_of(self, key):
        uid, rtype = key
        return [record for record in self._all_records()
                if record.uid == uid and record.rtype is rtype]

    def _aggregate_active(self, key):
        total = 0.0
        for record in self._records_of(key):
            record.settle()
            total += record.active_time
        return total

    def _scan(self):
        if not self._guard.should_scan():
            return
        seen = set()
        for record in self._all_records():
            key = (record.uid, record.rtype)
            if key in seen or key in self._throttled or record.dead:
                continue
            seen.add(key)
            rule = self.rules.get(record.rtype)
            if rule is None:
                continue
            used = self._aggregate_active(key) - self._markers[key]
            if used >= rule.threshold_s:
                self._throttle(key, rule)

    def _throttle(self, key, rule):
        for record in self._records_of(key):
            if record.os_active:
                record.service.revoke(record)
        self._throttled.add(key)
        self.throttle_events += 1
        self.sim.schedule(rule.revoke_s, lambda: self._restore(key))

    def _restore(self, key):
        self._throttled.discard(key)
        for record in self._records_of(key):
            if not record.dead:
                record.service.restore(record)
        self._markers[key] = self._aggregate_active(key)
