"""Mitigation interface: something installed into a Phone at boot."""

from repro.droid.power_manager import WakeLockLevel


class Mitigation:
    """Base class; a mitigation hooks phone services when installed."""

    name = "mitigation"

    def install(self, phone):
        raise NotImplementedError

    def __repr__(self):
        return "{}()".format(type(self).__name__)


class QuiescenceGuard:
    """Dirty-flag early-out for periodic resource scans.

    Governors that poll the services every few seconds (DefDroid,
    TimedThrottle) pay the full record walk even on a completely idle
    device. This guard answers "could this scan possibly act?" in O(#services):

    - if any service has an *active* (honoured) record, holding time is
      still accruing, so a threshold may trip -- scan;
    - otherwise, if any service gained records or flipped a record's
      honoured state since the last scan (the ``(len(records),
      transitions)`` fingerprint changed), aggregates may have moved --
      scan once more;
    - otherwise every per-record quantity the scan reads is frozen at
      values the previous scan already judged, so the scan is provably a
      no-op -- skip it.

    Skipped scans are *exactly* no-ops, not approximately: scans only act
    on accumulated ``active_time`` (frozen while nothing is active) and
    record-set membership (covered by the fingerprint).
    """

    def __init__(self, services):
        self._services = tuple(services)
        self._seen = None

    def should_scan(self):
        fingerprint = tuple(
            (len(s.records), s.transitions) for s in self._services
        )
        if fingerprint != self._seen:
            self._seen = fingerprint
            return True
        return any(s.active_count for s in self._services)


class BackgroundRestriction(Mitigation):
    """A utility-blind, system-wide restriction of background work (§7).

    While :meth:`_restricting` holds, every background acquire of a
    wakelock or of a ``governed`` service is denied (pretend-succeeded),
    background network requests fail and background jobs wait. Screen
    locks pass, and system uids and foreground and foreground-service
    apps are exempt. A subclass says when it restricts, names the
    phone services it governs besides wakelocks, and calls
    :meth:`_revoke_background` when a restriction begins and
    :meth:`_restore_all` when it ends.
    """

    #: Phone services governed besides the power manager, in gate and
    #: revocation order.
    governed = ()

    def __init__(self):
        self._revoked = []  # records we revoked or denied

    def install(self, phone):
        self.phone = phone
        self.sim = phone.sim
        self._services = tuple(getattr(phone, name) for name in self.governed)
        phone.jobs.policy = self
        phone.net.restrictor = self._network_allowed
        phone.power.gates.append(self._gate_wakelock)
        for service in self._services:
            service.gates.append(self._gate_generic)

    def _restricting(self):
        raise NotImplementedError

    def _exempt(self, uid):
        app = self.phone.apps.get(uid)
        if app is None:
            return True  # system
        return app.foreground_service or app.foreground

    # -- gates & policy hooks ------------------------------------------------

    def _gate_wakelock(self, record):
        if record.level is WakeLockLevel.SCREEN_BRIGHT:
            return True  # the screen is not restricted
        return self._gate_generic(record)

    def _gate_generic(self, record):
        if not self._restricting() or self._exempt(record.uid):
            return True
        self._revoked.append(record)
        return False

    def _network_allowed(self, uid):
        return not self._restricting() or self._exempt(uid)

    def intercept_job(self, job):
        """JobScheduler policy: defer background jobs while restricting."""
        return self._restricting() and not self._exempt(job.app.uid)

    # -- revocation bookkeeping ----------------------------------------------

    def _revoke_background(self):
        """Revoke the honoured background records: wakelocks first, in
        the order they were honoured, then each governed service's in
        registration order."""
        power = self.phone.power
        for record in power.honoured_records():
            if record.level is not WakeLockLevel.SCREEN_BRIGHT \
                    and not self._exempt(record.uid):
                power.revoke(record)
                self._revoked.append(record)
        for service in self._services:
            for record in list(service.records):
                if record.os_active and not self._exempt(record.uid):
                    service.revoke(record)
                    self._revoked.append(record)

    def _restore_all(self):
        """Restore every revoked or denied record, in that order."""
        revoked, self._revoked = self._revoked, []
        for record in revoked:
            record.service.restore(record)
