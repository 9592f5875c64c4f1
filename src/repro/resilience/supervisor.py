"""The supervisor: deadlines, retries, quarantine, graceful degradation.

Wraps every dispatched grid/fleet job in a supervised attempt loop:

- **worker lifecycle** -- attempts run in forked worker processes, at
  most ``workers`` live at a time. A worker receives one attempt per
  message over its duplex pipe and, while it stays healthy, waits for
  the next one instead of exiting: a batch forks once per worker, not
  once per job. Any failed attempt (error, budget abort, crash,
  timeout) retires its worker, so every retry starts on a fresh fork.
  A worker never outlives the :meth:`Supervisor.execute` call that
  forked it: idle workers are told to stop when the call returns or
  is interrupted, so the next call's workers inherit the environment
  of that call. Each worker closes its inherited copy of the
  supervisor's end of its pipe, so a supervisor killed outright leaves
  its idle workers at EOF instead of blocked in ``recv`` forever;
- **watchdog** -- each attempt has a wall-clock deadline; a hung
  worker is killed and the attempt becomes a structured
  :class:`~repro.resilience.errors.JobTimeout`;
- **crash isolation** -- a worker that dies (segfault, ``os._exit``,
  OOM kill) takes down only its own job; the attempt becomes a
  :class:`~repro.resilience.errors.WorkerCrash` and the job is requeued
  on a fresh worker;
- **deterministic retries** -- failed attempts back off per the seeded
  :class:`~repro.resilience.policy.RetryPolicy` (jitter derived from
  the job label, never from shared RNG state), so a rerun makes the
  same scheduling decisions;
- **quarantine + degradation** -- a job that exhausts its attempts is
  quarantined: recorded in the :class:`~repro.resilience.manifest.
  FailureManifest` with its spec, seed and full attempt history, while
  the rest of the run completes. ``fail_fast=True`` restores
  stop-on-first-quarantine semantics;
- **runaway budgets** -- an optional :class:`~repro.sim.engine.
  RunBudget` is armed ambiently, fresh for each attempt, so a
  simulation that would spin forever aborts with kernel diagnostics
  instead.

When worker processes are unavailable (sandboxes without
``/dev/shm``, restricted seccomp profiles) the supervisor degrades to
in-process serial attempts: crash/hang harness faults are then
*synthesised* as their structured failures -- which keeps the whole
retry/quarantine state machine testable in any environment -- and the
wall-clock deadline is enforced by fusing it into the ambient
:class:`RunBudget` (a runaway simulation still gets cut; a job stuck
outside the sim kernel cannot be preempted without a process).
"""

import gc
import sys
import time
import traceback

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.resilience.errors import (
    InjectedFault,
    JobQuarantined,
    JobTimeout,
    RunInterrupted,
    WorkerCrash,
)
from repro.resilience.hooks import HarnessFaults, apply_in_worker
from repro.resilience.manifest import (
    AttemptRecord,
    FailureManifest,
    FailureRecord,
    seed_of,
)
from repro.resilience.policy import RetryPolicy
from repro.sim.engine import RunBudget, ambient_budget, set_ambient_budget

#: Grace period between SIGTERM and SIGKILL when reaping a worker.
_KILL_GRACE_S = 2.0

#: Upper bound on one event-loop wait so deadlines are polled timely.
_MAX_WAIT_S = 0.2


def _worker_loop(conn, supervisor_end, sim_budget, faults):
    """Entry point of a supervised worker process.

    Runs one attempt per ``(label, attempt, spec)`` message until it
    receives ``None``, its pipe reaches EOF, or an attempt fails: a
    failed attempt retires the worker. Ctrl-C (or the supervisor's
    SIGTERM) while idle ends it quietly.
    """
    try:
        # Without this, the copy inherited by fork keeps the pipe open
        # after the supervisor is SIGKILLed: recv() would never see EOF.
        supervisor_end.close()
        # Everything alive now came from the supervisor; frozen, it is
        # left out of the per-attempt collections.
        gc.freeze()
        while True:
            message = conn.recv()
            if message is None or not _attempt_in_worker(
                    conn, sim_budget, faults, *message):
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


def _attempt_in_worker(conn, sim_budget, faults, label, attempt, spec):
    """One attempt in a worker; True when it succeeded.

    Applies any matching harness fault first (which may never return),
    arms a fresh ambient runaway budget, runs the spec, and ships either
    ``("ok", result)`` or ``("error", type, message, traceback)`` back
    through the pipe. A crash before the send is what the supervisor
    observes as EOF + a dead process. Afterwards the job leaves the
    process as a fresh fork would find it: the ambient budget is reset
    and the job's cyclic garbage is collected, as process exit used to.
    """
    previous = ambient_budget()
    try:
        if faults:
            apply_in_worker(faults, label, attempt)
        if sim_budget is not None:
            set_ambient_budget(sim_budget.fresh())
        reply = ("ok", spec.execute())
    except BaseException as exc:  # noqa: BLE001 -- becomes the reply
        reply = ("error", type(exc).__name__, str(exc),
                 traceback.format_exc())
    finally:
        set_ambient_budget(previous)
    try:
        conn.send(reply)
    except Exception as exc:  # unpicklable result: a structured error
        reply = ("error", type(exc).__name__,
                 "result not sendable: {}".format(exc), "")
        conn.send(reply)
    gc.collect()
    return reply[0] == "ok"


@dataclass
class SupervisorStats:
    """Counters over a supervisor's lifetime (summed across runs)."""

    jobs: int = 0
    attempts: int = 0
    succeeded: int = 0
    recovered: int = 0  # succeeded on attempt >= 2
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    quarantined: int = 0
    interrupted: int = 0
    serial_fallbacks: int = 0


class _Job:
    """Mutable dispatch state for one spec."""

    __slots__ = ("spec", "label", "index", "attempt", "eligible_at",
                 "records")

    def __init__(self, spec, label, index):
        self.spec = spec
        self.label = label
        self.index = index
        self.attempt = 0
        self.eligible_at = 0.0
        self.records = []


class _Worker:
    """One live worker process and the attempt it runs, if any."""

    __slots__ = ("proc", "conn", "job", "started", "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.job = None
        self.started = None
        self.deadline = None


class _Failure:
    """A structured attempt failure, pre-manifest."""

    __slots__ = ("outcome", "error", "traceback")

    def __init__(self, outcome, error, tb=""):
        self.outcome = outcome
        self.error = error
        self.traceback = tb


@contextmanager
def sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the enclosed block.

    A supervised run killed by the operator (or a CI timeout) then
    flushes checkpoints and writes its manifest exactly as Ctrl-C
    does. No-op off the main thread (signal handlers cannot be
    installed there).
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _handler(signum, frame):
        raise KeyboardInterrupt()

    signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class Supervisor:
    """Supervised execution of declarative job specs.

    ``job_timeout_s``: per-attempt wall-clock deadline (None = no
    watchdog). ``max_retries``: retries after the first attempt, so a
    job gets ``max_retries + 1`` attempts before quarantine.
    ``fail_fast``: raise :class:`JobQuarantined` on the first
    quarantine instead of degrading. ``sim_budget``: a
    :class:`RunBudget` template armed (fresh per attempt) inside every
    worker. ``harness_faults``: a :class:`HarnessFaults` for
    deterministic supervisor testing; defaults to whatever
    ``REPRO_HARNESS_FAULTS`` carries. ``mode``: ``"auto"`` uses worker
    processes when the platform allows and falls back to serial
    in-process attempts; ``"serial"``/``"process"`` force one.

    In process mode, :meth:`execute` forks up to ``workers`` worker
    processes and hands each new attempt to an idle one, forking only
    when none is left. A worker that reports a failure, crashes or
    times out is retired (its retry runs on a fresh fork), one that
    died while idle is replaced without counting an attempt, and the
    healthy ones are stopped before :meth:`execute` returns.
    """

    def __init__(self, job_timeout_s=None, max_retries=2, fail_fast=False,
                 retry_policy=None, harness_faults=None, sim_budget=None,
                 mode="auto", verbose=False, sleep=time.sleep):
        if mode not in ("auto", "process", "serial"):
            raise ValueError("mode must be auto, process or serial")
        self.job_timeout_s = job_timeout_s
        max_attempts = max(1, int(max_retries) + 1)
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy(max_attempts=max_attempts)
        self.fail_fast = fail_fast
        self.sim_budget = sim_budget
        self.harness_faults = harness_faults if harness_faults is not None \
            else HarnessFaults.from_env()
        self.mode = mode
        self.verbose = verbose
        self.manifest = FailureManifest()
        self.stats = SupervisorStats()
        #: Optional :class:`~repro.telemetry.emit.RunTelemetry`; when a
        #: FleetRunner attaches one, every failed attempt / quarantine
        #: / budget abort also lands in the run's telemetry stream.
        self.telemetry = None
        self._sleep = sleep
        self._serial_logged = False
        self._mp_context = None

    def begin_run(self):
        """Re-arm the serial-fallback warning at the start of a run.

        A supervisor outlives individual runs (lifetime ``stats`` are
        deliberately cumulative), but its warn-once gate must not leak
        between them: without this, a second
        :class:`~repro.fleet.shard.FleetRunner` sharing the supervisor
        in one process never re-prints the serial-fallback warning.
        """
        self._serial_logged = False

    # -- public API --------------------------------------------------------

    def execute(self, specs, labels=None, workers=1, on_result=None):
        """Run ``specs`` supervised; returns ``{spec: result}``.

        Quarantined jobs are absent from the mapping and present in
        :attr:`manifest`. ``labels`` parallels ``specs`` (defaults to
        positional labels); ``on_result(spec, result)`` fires the
        moment each job completes -- cache writes and checkpoints ride
        on it, which is what makes interrupt/degrade flushes exact.
        """
        specs = list(specs)
        if labels is None:
            labels = [self.label_for(spec, index)
                      for index, spec in enumerate(specs)]
        if len(labels) != len(specs):
            raise ValueError("labels must parallel specs")
        jobs = [_Job(spec, label, index)
                for index, (spec, label) in enumerate(zip(specs, labels))]
        self.stats.jobs += len(jobs)
        results = {}
        with sigterm_as_interrupt():
            try:
                if self._use_processes(workers):
                    self._run_processes(jobs, max(1, int(workers)),
                                        results, on_result)
                else:
                    self._run_serial(jobs, results, on_result)
            except KeyboardInterrupt:
                # Only Ctrl-C/SIGTERM: a fail-fast stop is no interrupt.
                outstanding = len(jobs) - len(results)
                self.stats.interrupted += outstanding
                print("supervisor: interrupted with {} job(s) outstanding; "
                      "completed work is flushed".format(outstanding),
                      file=sys.stderr)
                raise RunInterrupted(len(results), outstanding) from None
        return results

    @staticmethod
    def label_for(spec, index):
        token = getattr(spec, "case_key", None)
        if token is None:
            func = getattr(spec, "func", "")
            token = func.rpartition(":")[2] or type(spec).__name__
        return "job:{:04d}:{}".format(index, token)

    # -- mode selection ----------------------------------------------------

    def _use_processes(self, workers):
        if self.mode == "serial":
            return False
        if self._mp_context is not None:
            return True
        try:
            import multiprocessing

            # fork keeps worker start cheap and inherits the warmed
            # interpreter; fall back to the platform default elsewhere.
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = multiprocessing.get_context()
            # Probe the pipe transport now so an unusable platform is
            # one cheap failure here, not one per dispatched job.
            parent, child = context.Pipe()
            parent.close()
            child.close()
        except (ImportError, NotImplementedError, OSError) as exc:
            if self.mode == "process":
                raise
            self._note_serial_fallback(exc)
            return False
        self._mp_context = context
        return True

    def _note_serial_fallback(self, exc):
        self.stats.serial_fallbacks += 1
        reason = "{}: {}".format(type(exc).__name__, exc)
        # Warn once *per run*, not per supervisor lifetime: begin_run
        # re-arms the gate so a second run's operator sees it too.
        if not self._serial_logged:
            self._serial_logged = True
            print("supervisor: worker processes unavailable ({}); "
                  "running jobs in-process -- hung jobs cannot be "
                  "preempted, only budget-aborted".format(reason),
                  file=sys.stderr)

    # -- process mode ------------------------------------------------------

    def _run_processes(self, jobs, workers, results, on_result):
        from multiprocessing.connection import wait as _wait

        pending = deque(jobs)
        waiting = []  # (eligible_at, job) backoff parking lot
        active = {}  # conn -> _Worker running an attempt
        idle = []  # healthy workers waiting for their next attempt
        try:
            while pending or waiting or active:
                now = time.monotonic()
                if waiting:
                    still = []
                    for eligible_at, job in waiting:
                        if eligible_at <= now:
                            pending.append(job)
                        else:
                            still.append((eligible_at, job))
                    waiting = still
                while pending and len(active) < workers:
                    worker = self._dispatch(pending.popleft(), idle)
                    active[worker.conn] = worker
                if not active:
                    if waiting:
                        self._sleep(max(0.0, min(e for e, __ in waiting)
                                        - time.monotonic()))
                    continue
                timeout = _MAX_WAIT_S
                deadlines = [w.deadline for w in active.values()
                             if w.deadline is not None]
                if deadlines:
                    timeout = min(timeout, max(0.0, min(deadlines)
                                               - time.monotonic()))
                for conn in _wait(list(active), timeout=timeout):
                    self._finish(active.pop(conn), idle, pending, waiting,
                                 results, on_result)
                now = time.monotonic()
                for conn, worker in list(active.items()):
                    if worker.deadline is not None \
                            and now >= worker.deadline:
                        del active[conn]
                        self._expire(worker, pending, waiting)
        except BaseException:
            self._reap(active)
            raise
        finally:
            for worker in idle:
                self._retire(worker)

    def _dispatch(self, job, idle):
        """Send the job's next attempt to an idle worker, or to a newly
        forked one when no idle worker is left; returns that worker."""
        message = (job.label, job.attempt + 1, job.spec)
        while idle:
            worker = idle.pop()
            try:
                worker.conn.send(message)
                break
            except OSError:  # died while idle: replaced, no attempt made
                self._retire(worker)
        else:
            worker = self._fork()
            try:
                worker.conn.send(message)
            except OSError:  # died on start: its EOF becomes the crash
                pass
        job.attempt += 1
        self.stats.attempts += 1
        worker.job = job
        worker.started = time.monotonic()
        worker.deadline = worker.started + self.job_timeout_s \
            if self.job_timeout_s is not None else None
        if self.verbose:
            print("supervisor: {} attempt {} started (pid {})".format(
                job.label, job.attempt, worker.proc.pid), file=sys.stderr)
        return worker

    def _fork(self):
        context = self._mp_context
        conn, child = context.Pipe()
        proc = context.Process(
            target=_worker_loop,
            args=(child, conn, self.sim_budget, self.harness_faults),
            daemon=True, name="repro-supervised")
        proc.start()
        child.close()
        return _Worker(proc, conn)

    def _finish(self, worker, idle, pending, waiting, results, on_result):
        """A worker's pipe is ready: success, error, or EOF (crash)."""
        job = worker.job
        elapsed = time.monotonic() - worker.started
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            message = None
        if message is not None and message[0] == "ok":
            worker.job = None
            idle.append(worker)
            self._succeed(job, message[1], results, on_result)
            return
        self._retire(worker)
        if message is None:
            exitcode = worker.proc.exitcode
            crash = WorkerCrash(job.label, job.attempt, exitcode)
            self.stats.crashes += 1
            failure = _Failure("crash", str(crash))
        else:
            __, type_name, text, tb = message
            outcome = "budget" if type_name == "BudgetExceeded" else "error"
            failure = _Failure(outcome,
                               "{}: {}".format(type_name, text), tb)
        self._fail(job, failure, elapsed, pending, waiting)

    def _expire(self, worker, pending, waiting):
        """Deadline passed: kill the worker, record a JobTimeout."""
        job = worker.job
        elapsed = time.monotonic() - worker.started
        self._kill(worker)
        timeout = JobTimeout(job.label, job.attempt, self.job_timeout_s,
                             elapsed)
        self.stats.timeouts += 1
        self._fail(job, _Failure("timeout", str(timeout)), elapsed,
                   pending, waiting)

    def _kill(self, worker):
        """Stop a worker in the middle of an attempt (SIGTERM first)."""
        worker.proc.terminate()
        self._retire(worker)

    @staticmethod
    def _retire(worker):
        """Stop a worker, SIGKILLing it after a grace period.

        By message, not by closing the pipe: workers forked later
        inherit this end of it, so closing it here delivers no EOF.
        """
        try:
            worker.conn.send(None)
        except OSError:  # already gone
            pass
        worker.conn.close()
        worker.proc.join(_KILL_GRACE_S)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(_KILL_GRACE_S)

    def _reap(self, active):
        for worker in active.values():
            self._kill(worker)
            worker.job.records.append(AttemptRecord(
                attempt=worker.job.attempt, outcome="interrupted",
                error="run interrupted while attempt was live",
                elapsed_s=round(time.monotonic() - worker.started, 3)))

    # -- serial mode -------------------------------------------------------

    def _run_serial(self, jobs, results, on_result):
        pending = deque(jobs)
        waiting = []
        while pending or waiting:
            if not pending:
                eligible = min(e for e, __ in waiting)
                self._sleep(max(0.0, eligible - time.monotonic()))
                now = time.monotonic()
                still = []
                for eligible_at, job in waiting:
                    if eligible_at <= now:
                        pending.append(job)
                    else:
                        still.append((eligible_at, job))
                waiting = still
                continue
            job = pending.popleft()
            job.attempt += 1
            self.stats.attempts += 1
            started = time.monotonic()
            outcome = self._attempt_serial(job)
            elapsed = time.monotonic() - started
            if isinstance(outcome, _Failure):
                self._fail(job, outcome, elapsed, pending, waiting)
            else:
                self._succeed(job, outcome[0], results, on_result)

    def _attempt_serial(self, job):
        """One in-process attempt; a ``_Failure`` or ``(result,)``."""
        faults = self.harness_faults
        directive = faults.directive(job.label, job.attempt) \
            if faults else None
        if directive == "crash":
            self.stats.crashes += 1
            crash = WorkerCrash(job.label, job.attempt,
                                "synthesised-serial")
            return _Failure("crash", str(crash))
        if directive == "hang":
            self.stats.timeouts += 1
            timeout = JobTimeout(job.label, job.attempt,
                                 self.job_timeout_s or float("inf"), 0.0)
            return _Failure("timeout", str(timeout))
        budget = None
        if self.sim_budget is not None:
            budget = self.sim_budget.fresh(max_wall_s=self.job_timeout_s)
        elif self.job_timeout_s is not None:
            budget = RunBudget(max_wall_s=self.job_timeout_s)
        previous = set_ambient_budget(budget)
        try:
            if directive == "fail":
                raise InjectedFault(job.label, job.attempt)
            result = job.spec.execute()
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 -- becomes a record
            from repro.sim.engine import BudgetExceeded

            outcome = "budget" if isinstance(exc, BudgetExceeded) \
                else "error"
            return _Failure(outcome,
                            "{}: {}".format(type(exc).__name__, exc),
                            traceback.format_exc())
        finally:
            set_ambient_budget(previous)
        return (result,)

    # -- shared attempt bookkeeping ----------------------------------------

    def _succeed(self, job, result, results, on_result):
        results[job.spec] = result
        self.stats.succeeded += 1
        if job.attempt > 1:
            self.stats.recovered += 1
        if self.verbose and job.attempt > 1:
            print("supervisor: {} recovered on attempt {}".format(
                job.label, job.attempt), file=sys.stderr)
        if on_result is not None:
            on_result(job.spec, result)

    def _fail(self, job, failure, elapsed, pending, waiting):
        record = AttemptRecord(
            attempt=job.attempt, outcome=failure.outcome,
            error=failure.error, traceback=failure.traceback,
            elapsed_s=round(elapsed, 3))
        job.records.append(record)
        if self.telemetry is not None:
            self.telemetry.supervisor_attempt(
                job.label, job.attempt, failure.outcome, failure.error)
            if failure.outcome == "budget":
                self.telemetry.budget(job.label, job.attempt,
                                      failure.error)
        if job.attempt < self.retry_policy.max_attempts:
            delay = self.retry_policy.delay_s(job.label, job.attempt + 1)
            record.delay_s = round(delay, 6)
            self.stats.retries += 1
            if self.verbose:
                print("supervisor: {} attempt {} {} ({}); retrying in "
                      "{:.2f}s".format(job.label, job.attempt,
                                       failure.outcome, failure.error,
                                       delay), file=sys.stderr)
            if delay > 0:
                waiting.append((time.monotonic() + delay, job))
            else:
                pending.append(job)
            return
        self._quarantine(job, failure)

    def _quarantine(self, job, failure):
        spec_token = job.spec.cache_token()
        self.manifest.add(FailureRecord(
            label=job.label, spec=spec_token, seed=seed_of(spec_token),
            attempts=list(job.records), quarantined=True))
        self.stats.quarantined += 1
        if self.telemetry is not None:
            self.telemetry.supervisor_attempt(
                job.label, job.attempt, "quarantined", failure.error)
        print("supervisor: {} quarantined after {} attempt(s); last "
              "error: {}".format(job.label, job.attempt, failure.error),
              file=sys.stderr)
        if self.fail_fast:
            raise JobQuarantined(job.label, job.attempt, failure.error)
