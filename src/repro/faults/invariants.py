"""Always-on simulation invariants.

The fault injector is allowed to make the *workload* miserable; it is
never allowed to make the *simulator* wrong. These checkers pin down
what "wrong" means, independent of any policy under test:

- **energy conservation** -- the ledger's O(1) running totals must equal
  the integral of the rails (the raw (uid, rail) map), and the battery
  must have drained exactly what the ledger settled;
- **lease state-machine legality** -- every lease state change goes
  through :meth:`~repro.core.lease.Lease.transition` and respects the
  Fig. 5 rules; direct ``state`` mutation is detected by shadowing;
- **monotonic simulated time** -- the clock never runs backwards, even
  under event-delivery jitter;
- **no resource honoured after process death** -- once an app's process
  is killed, none of its kernel objects, in any kernel-object service
  (wakelocks, location, sensors, Wi-Fi locks, Bluetooth, audio), may
  stay honoured.

A checker is attached to one phone and samples periodically on the
phone's own simulator (plus an observer on the phone's lease manager,
where sampling could miss), so it is itself deterministic and costs
nothing when everything holds. It observes without perturbing: its
ticks bypass event-delivery jitter, and it reads the ledger and battery
as they stood at their last settle instead of settling them, so a
checked day computes exactly what an unchecked one does.
"""

from dataclasses import dataclass, field

from repro.core.lease import LeaseState


#: Legal single transitions, mirroring (not importing the private table
#: of) ``core/lease.py`` -- the checker must keep its own copy so a bug
#: that corrupts the enforcement table is still caught here.
_LEGAL = {
    (LeaseState.ACTIVE, LeaseState.ACTIVE),
    (LeaseState.ACTIVE, LeaseState.DEFERRED),
    (LeaseState.ACTIVE, LeaseState.INACTIVE),
    (LeaseState.DEFERRED, LeaseState.ACTIVE),
    (LeaseState.INACTIVE, LeaseState.ACTIVE),
}


@dataclass
class InvariantViolation:
    """One detected violation, with enough detail to debug it."""

    invariant: str
    time: float
    detail: str
    data: dict = field(default_factory=dict)

    def as_dict(self):
        return {"invariant": self.invariant, "time": self.time,
                "detail": self.detail, "data": dict(self.data)}

    def __repr__(self):
        return "InvariantViolation({}, t={:.1f}: {})".format(
            self.invariant, self.time, self.detail)


class InvariantChecker:
    """Continuously validates one phone's simulation invariants."""

    #: Absolute float-noise floor for energy comparisons, in mJ.
    ENERGY_ABS_TOL_MJ = 1e-3
    #: Relative tolerance on top (summation-order noise over long runs).
    ENERGY_REL_TOL = 1e-9

    def __init__(self, phone, interval_s=30.0):
        self.phone = phone
        self.sim = phone.sim
        self.violations = []
        self.checks_run = 0
        self._last_now = self.sim.now
        self._shadow = {}  # id(lease) -> (lease, LeaseState)
        self._dead_uids = set()
        # Energy is measured as a delta from the last settle before
        # attach, so a checker can be attached to a phone that already
        # ran. The ledger and battery move together at every settle.
        self._ledger_baseline_mj = phone.monitor.ledger.total_mj()
        self._battery_baseline_mj = phone.battery.remaining_mj
        #: The lease manager whose transitions this checker observes
        #: (None on a phone without leases).
        self._manager = phone.lease_manager
        if self._manager is not None:
            self._manager.transition_observers.append(
                self._on_lease_transition)
        self._interval_s = interval_s
        self._timer = self.sim.schedule(interval_s, self._tick)

    # -- lifecycle ---------------------------------------------------------

    def detach(self):
        """Stop checking; safe to call more than once."""
        if self._manager is not None:
            self._manager.transition_observers.remove(
                self._on_lease_transition)
            self._manager = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        if self.ok:
            return "invariants: OK ({} checks)".format(self.checks_run)
        lines = ["invariants: {} violation(s) over {} checks".format(
            len(self.violations), self.checks_run)]
        lines.extend("  " + repr(v) for v in self.violations)
        return "\n".join(lines)

    # -- process-death tracking (fed by the injector / scenarios) ----------

    def note_app_dead(self, uid):
        """An app's process was killed; its kernel objects must not stay
        honoured."""
        self._dead_uids.add(uid)
        self._check_after_death()

    def note_app_alive(self, uid):
        """The app restarted; new kernel objects are legitimate again."""
        self._dead_uids.discard(uid)

    # -- the checks --------------------------------------------------------

    def _tick(self):
        self.check_now()
        self._timer = self.sim.reschedule(self._timer, self._interval_s)

    # The jitter fault (repro.faults.jitter) delivers the tick on time
    # and draws nothing for it: watching a day must not move it.
    _tick.exact_delivery = True

    def check_now(self):
        """Run every sampled invariant at the current instant."""
        self.checks_run += 1
        self._check_monotonic_time()
        self._check_energy_conservation()
        self._check_lease_states()
        self._check_after_death()

    def _report(self, invariant, detail, **data):
        self.violations.append(InvariantViolation(
            invariant, self.sim.now, detail, data))

    def _check_monotonic_time(self):
        now = self.sim.now
        if now < self._last_now:
            self._report(
                "monotonic_time",
                "simulated time ran backwards: {} -> {}".format(
                    self._last_now, now),
                previous=self._last_now, current=now)
        self._last_now = max(self._last_now, now)

    def _check_energy_conservation(self):
        # As of the last settle: settling here would split the
        # monitor's integration segments and move the day's last digits.
        ledger = self.phone.monitor.ledger
        total = ledger.total_mj()
        tol = self.ENERGY_ABS_TOL_MJ + self.ENERGY_REL_TOL * abs(total)
        drift = ledger.consistency_error_mj()
        if drift > tol:
            self._report(
                "energy_conservation",
                "ledger running totals diverged from the raw (uid, rail) "
                "map by {:.6g} mJ".format(drift), drift_mj=drift)
        battery = self.phone.battery
        if battery is not None and not battery.empty:
            drained = self._battery_baseline_mj - battery.remaining_mj
            settled = total - self._ledger_baseline_mj
            if abs(drained - settled) > tol:
                self._report(
                    "energy_conservation",
                    "battery drained {:.6g} mJ but the ledger settled "
                    "{:.6g} mJ since attach".format(drained, settled),
                    drained_mj=drained, settled_mj=settled)

    def _on_lease_transition(self, lease, old_state, new_state):
        key = id(lease)
        shadow = self._shadow.get(key)
        if shadow is not None and shadow[1] is not old_state:
            self._report(
                "lease_state_machine",
                "lease #{} was {} at the last legal transition but "
                "claims to come from {}: state was mutated without "
                "transition()".format(lease.descriptor, shadow[1].value,
                                      old_state.value),
                descriptor=lease.descriptor,
                shadow=shadow[1].value, claimed=old_state.value)
        if new_state is not LeaseState.DEAD \
                and (old_state, new_state) not in _LEGAL:
            self._report(
                "lease_state_machine",
                "illegal lease transition {} -> {} on lease #{}".format(
                    old_state.value, new_state.value, lease.descriptor),
                descriptor=lease.descriptor,
                old=old_state.value, new=new_state.value)
        if new_state is LeaseState.DEAD:
            self._shadow.pop(key, None)
        else:
            self._shadow[key] = (lease, new_state)

    def _check_lease_states(self):
        manager = self.phone.lease_manager
        if manager is None:
            return
        for lease in manager.leases.values():
            key = id(lease)
            shadow = self._shadow.get(key)
            if shadow is None:
                # First sighting: trust the current state as baseline.
                self._shadow[key] = (lease, lease.state)
            elif shadow[1] is not lease.state:
                self._report(
                    "lease_state_machine",
                    "lease #{} is {} but its last transition() left it "
                    "{}: state was mutated directly".format(
                        lease.descriptor, lease.state.value,
                        shadow[1].value),
                    descriptor=lease.descriptor,
                    observed=lease.state.value, shadow=shadow[1].value)
                self._shadow[key] = (lease, lease.state)

    def _check_after_death(self):
        if not self._dead_uids:
            return
        for service in self.phone.kernel_services:
            for record in service.records:
                if record.os_active and record.uid in self._dead_uids:
                    self._report(
                        "wakelock_after_death",
                        "{} {!r} of dead uid {} is still honoured".format(
                            record.rtype.value, record.name, record.uid),
                        uid=record.uid, name=record.name,
                        resource=record.rtype.value)


# -- service-recovery invariants ---------------------------------------------
#
# The crash-safe lease authority (repro.service) runs these after every
# recovery; they operate on plain canonical-state dicts (and the replayed
# journal records) so this module needs no service import. What "wrong"
# means for a recovery, independent of any storage backend:
#
# - no_resurrected_lease  -- a lease the snapshot saw RELEASED/EXPIRED
#   can never come back ACTIVE;
# - no_lost_active_lease  -- a lease the snapshot saw at all can never
#   vanish from the recovered table;
# - monotonic_lease_ids   -- ids only grow: next_lease_id covers every
#   lease in the table and never regresses from the snapshot;
# - stats_moments_merge   -- rebuilding the per-key utility moments by
#   replaying the journal's folds over the snapshot's moments must be
#   *bitwise* identical to the recovered stats (same reducer, same float
#   order), and merging the per-key moments must agree with the
#   independent global accumulator (exact count, near-exact moments --
#   the merge itself is float-order sensitive, hence the tolerance).

#: Relative tolerance for the per-key-merge vs global-fold comparison.
STATS_MERGE_REL_TOL = 1e-9


def _moments_close(a, b, rel=STATS_MERGE_REL_TOL):
    if a["count"] != b["count"]:
        return False
    for field_name in ("mean", "m2"):
        x, y = a[field_name], b[field_name]
        if x != y and abs(x - y) > rel * max(abs(x), abs(y), 1.0):
            return False
    return True


def _shadow_stats(snapshot, records):
    """Per-key Moments rebuilt from the snapshot + journal folds.

    Mirrors (without importing) the fold in
    ``repro.service.state.ServiceState``: release-with-utility and
    note_utility each Welford-add one value to the lease's
    ``consumer|resource`` key. An independent re-derivation, so a
    reducer bug that corrupts stats is caught instead of replayed.
    """
    from repro.fleet.stats import Moments

    stats = {key: Moments.from_dict(entry)
             for key, entry in snapshot.get("stats", {}).items()}
    leases = {key: dict(lease)
              for key, lease in snapshot.get("leases", {}).items()}
    next_id = snapshot.get("next_lease_id", 1)
    for record in records:
        op, data = record["op"], record["data"]
        if op == "acquire":
            leases["{:08d}".format(next_id)] = {
                "consumer": data["consumer"],
                "resource": data["resource"]}
            next_id += 1
            continue
        value = None
        if op == "release" and data.get("utility") is not None:
            value = float(data["utility"])
        elif op == "note_utility":
            value = float(data["value"])
        if value is None:
            continue
        lease = leases.get("{:08d}".format(int(data["lease"])))
        if lease is None:
            continue
        key = "{}|{}".format(lease["consumer"], lease["resource"])
        if key not in stats:
            stats[key] = Moments()
        stats[key].add(value)
    return {key: moments.to_dict() for key, moments in stats.items()}


def check_service_recovery(snapshot, records, recovered):
    """Validate one service recovery; returns InvariantViolations.

    ``snapshot`` is the canonical state the recovery started from (the
    genesis state when there was no snapshot), ``records`` the replayed
    journal records, ``recovered`` the canonical state after replay.
    """
    from repro.fleet.stats import Moments

    violations = []

    def report(invariant, detail, **data):
        violations.append(InvariantViolation(
            invariant, 0.0, detail, data))

    recovered_leases = recovered.get("leases", {})
    for key, lease in snapshot.get("leases", {}).items():
        after = recovered_leases.get(key)
        if after is None:
            report("no_lost_active_lease",
                   "lease {} ({}) present in the snapshot is missing "
                   "after recovery".format(key, lease["state"]),
                   lease=key, state=lease["state"])
            continue
        if lease["state"] in ("released", "expired") \
                and after["state"] == "active":
            report("no_resurrected_lease",
                   "lease {} was {} in the snapshot but recovered "
                   "ACTIVE".format(key, lease["state"]),
                   lease=key, before=lease["state"],
                   after=after["state"])

    next_id = recovered.get("next_lease_id", 1)
    if next_id < snapshot.get("next_lease_id", 1):
        report("monotonic_lease_ids",
               "next_lease_id regressed from {} to {}".format(
                   snapshot.get("next_lease_id", 1), next_id),
               before=snapshot.get("next_lease_id", 1), after=next_id)
    for key, lease in recovered_leases.items():
        if lease["id"] >= next_id:
            report("monotonic_lease_ids",
                   "lease id {} is not below next_lease_id {}".format(
                       lease["id"], next_id),
                   lease=key, next_lease_id=next_id)
        if "{:08d}".format(lease["id"]) != key:
            report("monotonic_lease_ids",
                   "lease table key {} does not match id {}".format(
                       key, lease["id"]),
                   lease=key)

    shadow = _shadow_stats(snapshot, records)
    recovered_stats = recovered.get("stats", {})
    if shadow != recovered_stats:
        differing = sorted(
            set(shadow) ^ set(recovered_stats)
            | {key for key in set(shadow) & set(recovered_stats)
               if shadow[key] != recovered_stats[key]})
        report("stats_moments_merge",
               "replayed utility moments differ bitwise from the "
               "recovered stats for key(s): {}".format(
                   ", ".join(differing) or "?"),
               keys=differing)
    merged = Moments()
    for key in sorted(recovered_stats):
        merged = merged.merge(Moments.from_dict(recovered_stats[key]))
    if not _moments_close(merged.to_dict(),
                          recovered.get("stats_all", Moments().to_dict())):
        report("stats_moments_merge",
               "merging the per-key moments disagrees with the global "
               "stats_all accumulator",
               merged=merged.to_dict(),
               stats_all=recovered.get("stats_all"))
    return violations
