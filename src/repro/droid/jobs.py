"""JobScheduler: constraint-based background jobs.

The modern Android idiom for background work (and Doze's primary
deferral surface): apps schedule periodic jobs with constraints
(network required, charging required); the scheduler runs each job
holding a system wakelock on the app's behalf and releases it when the
job's process finishes. Well-behaved apps in this codebase use either
alarms or jobs; jobs get constraint checking and Doze integration for
free.
"""


class JobInfo:
    """One scheduled job."""

    def __init__(self, ident, app, interval_s, runner,
                 requires_network=False, requires_charging=False):
        self.id = ident
        self.app = app
        self.interval_s = interval_s
        self.runner = runner  # callable returning a generator (the work)
        self.requires_network = requires_network
        self.requires_charging = requires_charging
        self.cancelled = False
        self.run_count = 0
        self.deferred_count = 0
        self._lock = None  # scheduler-held wakelock, set by the service

    def cancel(self):
        self.cancelled = True

    def __repr__(self):
        return "JobInfo#{}(uid={}, every {:.0f}s)".format(
            self.id, self.app.uid, self.interval_s
        )


class JobScheduler:
    """Runs periodic jobs under their constraints."""

    name = "jobs"

    #: When constraints are unmet at the due time, retry this much later.
    RETRY_DELAY_S = 60.0

    def __init__(self, sim, phone):
        self.sim = sim
        self.phone = phone
        self.jobs = []
        #: Optional policy hook: ``policy.intercept_job(job) -> bool``.
        #: True means the policy swallowed this run (Doze queues it).
        self.policy = None
        self._pending = []  # jobs swallowed by the policy

    # -- app-facing API ------------------------------------------------------

    def schedule(self, app, interval_s, runner, requires_network=False,
                 requires_charging=False):
        """Schedule ``runner`` (a generator function) every ``interval_s``."""
        app.ipc("jobs", "schedule")
        job = JobInfo(next(self.sim.ids), app, interval_s, runner,
                      requires_network=requires_network,
                      requires_charging=requires_charging)
        # One scheduler-held wakelock per job, like the real service.
        job._lock = self.phone.power.new_wakelock(
            app, "job:{}".format(job.id)
        )
        self.jobs.append(job)
        self.sim.schedule(interval_s, lambda: self._due(job))
        return job

    def kill_app(self, uid):
        """App death: cancel the app's jobs, so neither their next due
        run nor a policy-queued one acquires the scheduler wakelock that
        died with the app. A restart's ``on_start`` schedules fresh jobs.
        """
        for job in self.jobs:
            if job.app.uid == uid:
                job.cancel()
        self.jobs = [job for job in self.jobs if job.app.uid != uid]

    # -- policy integration -------------------------------------------------------

    def flush_pending(self):
        """Run every policy-deferred job now (Doze maintenance window)."""
        pending, self._pending = self._pending, []
        for job in pending:
            self._execute(job)

    # -- internals -------------------------------------------------------------

    def _due(self, job):
        if job.cancelled:
            return
        # Always re-arm the period first.
        self.sim.schedule(job.interval_s, lambda: self._due(job))
        if self.policy is not None and self.policy.intercept_job(job):
            job.deferred_count += 1
            self._queue_pending(job)
            return
        if not self._constraints_met(job):
            job.deferred_count += 1
            self.sim.schedule(self.RETRY_DELAY_S,
                              lambda: self._retry(job))
            return
        self._execute(job)

    def _queue_pending(self, job):
        # Periodic jobs coalesce: at most one pending run per job.
        if job not in self._pending:
            self._pending.append(job)

    def _retry(self, job):
        if job.cancelled:
            return
        if self.policy is not None and self.policy.intercept_job(job):
            job.deferred_count += 1
            self._queue_pending(job)
            return
        if self._constraints_met(job):
            self._execute(job)

    def _constraints_met(self, job):
        if job.requires_network and not self.phone.env.network.connected:
            return False
        if job.requires_charging:
            return False  # the simulated phone is never on the charger
        return True

    def _execute(self, job):
        if job.cancelled:
            return
        job.run_count += 1
        # The scheduler takes the wakelock *before* starting the job so
        # the work can run even if the device was asleep when it was due.
        job._lock.acquire()
        proc = job.app.spawn(
            job.runner(), name="{}.job{}".format(job.app.name, job.id)
        )

        def release(_result):
            if job._lock.held:
                job._lock.release()

        proc.done_event.add_waiter(release)
