"""The supervisor state machine: watchdog, retries, quarantine, worker
reuse."""

import os
import signal
import subprocess
import sys
import time

from pathlib import Path

import pytest

from repro.experiments.grid import FuncSpec, GridRunner
from repro.resilience import (
    Chunk,
    HarnessFaults,
    JobQuarantined,
    RetryPolicy,
    RunInterrupted,
    Supervisor,
)


def _jobs(n):
    return [FuncSpec.make("json:dumps", obj=i) for i in range(n)]


def _fast_policy(max_attempts):
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.0,
                       jitter=0.0)


def _processes_available():
    try:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        parent, child = context.Pipe(duplex=False)
        parent.close()
        child.close()
        return True
    except (ImportError, NotImplementedError, OSError, ValueError):
        return False


needs_processes = pytest.mark.skipif(
    not _processes_available(),
    reason="worker processes unavailable on this platform")


# -- plain success -----------------------------------------------------------

@pytest.mark.parametrize("mode", ["serial", "process"])
def test_clean_run_returns_every_result(mode):
    if mode == "process" and not _processes_available():
        pytest.skip("no processes")
    supervisor = Supervisor(mode=mode, harness_faults=HarnessFaults())
    specs = _jobs(3)
    results = supervisor.execute(specs, workers=2)
    assert [results[s] for s in specs] == ["0", "1", "2"]
    assert supervisor.stats.succeeded == 3
    assert supervisor.stats.quarantined == 0
    assert not supervisor.manifest


def test_on_result_fires_per_completed_job():
    supervisor = Supervisor(mode="serial", harness_faults=HarnessFaults())
    seen = []
    supervisor.execute(_jobs(2), on_result=lambda s, r: seen.append(r))
    assert sorted(seen) == ["0", "1"]


def test_default_labels_name_index_and_function():
    spec = FuncSpec.make("json:dumps", obj=1)
    assert Supervisor.label_for(spec, 4) == "job:0004:dumps"


# -- crash recovery (acceptance: retry succeeds bitwise-identically) ---------

@needs_processes
def test_worker_crash_retries_and_matches_unfaulted_run():
    specs = _jobs(3)
    clean = Supervisor(mode="process", harness_faults=HarnessFaults())
    expected = clean.execute(specs, workers=2)

    faults = HarnessFaults.from_json('{"crash": {"job:0000:*": [1]}}')
    supervisor = Supervisor(mode="process", harness_faults=faults,
                            retry_policy=_fast_policy(3))
    results = supervisor.execute(specs, workers=2)
    assert results == expected  # bitwise-identical despite the crash
    assert supervisor.stats.crashes == 1
    assert supervisor.stats.recovered == 1
    assert supervisor.stats.retries == 1
    assert not supervisor.manifest


@needs_processes
def test_crash_exit_code_lands_in_the_failure_record():
    from repro.resilience.hooks import CRASH_EXIT_CODE

    faults = HarnessFaults.from_json('{"crash": {"job:0000:*": []}}')
    supervisor = Supervisor(mode="process", harness_faults=faults,
                            retry_policy=_fast_policy(2))
    results = supervisor.execute(_jobs(1))
    assert results == {}
    record = supervisor.manifest.records[0]
    assert [a.outcome for a in record.attempts] == ["crash", "crash"]
    assert str(CRASH_EXIT_CODE) in record.attempts[0].error


# -- watchdog (acceptance: hung job's deadline fires) ------------------------

@needs_processes
def test_hung_job_is_killed_at_the_deadline_and_quarantined():
    import time

    faults = HarnessFaults.from_json('{"hang": {"job:0001:*": []}}')
    supervisor = Supervisor(mode="process", job_timeout_s=0.5,
                            harness_faults=faults,
                            retry_policy=_fast_policy(2))
    specs = _jobs(2)
    started = time.monotonic()
    results = supervisor.execute(specs, workers=2)
    elapsed = time.monotonic() - started
    assert specs[0] in results and specs[1] not in results
    assert supervisor.stats.timeouts == 2  # both attempts expired
    assert supervisor.stats.quarantined == 1
    # two 0.5s deadlines, not the 3600s injected hang
    assert elapsed < 10.0
    record = supervisor.manifest.records[0]
    assert record.label == "job:0001:dumps"
    assert [a.outcome for a in record.attempts] == ["timeout", "timeout"]
    assert record.attempts[0].elapsed_s >= 0.5


# -- quarantine and degradation ----------------------------------------------

@pytest.mark.parametrize("mode", ["serial", "process"])
def test_poison_job_quarantined_after_n_attempts_run_degrades(mode):
    if mode == "process" and not _processes_available():
        pytest.skip("no processes")
    faults = HarnessFaults.from_json('{"fail": {"job:0001:*": []}}')
    supervisor = Supervisor(mode=mode, harness_faults=faults,
                            retry_policy=_fast_policy(3))
    specs = _jobs(3)
    results = supervisor.execute(specs, workers=2)
    # the run completed: every healthy job has a result
    assert [results[s] for s in (specs[0], specs[2])] == ["0", "2"]
    assert specs[1] not in results
    assert supervisor.stats.quarantined == 1
    record = supervisor.manifest.records[0]
    assert len(record.attempts) == 3
    assert all(a.outcome == "error" for a in record.attempts)
    assert "InjectedFault" in record.attempts[0].error


def test_real_exception_is_retried_then_quarantined_with_traceback():
    # math.sqrt rejects keyword arguments: a genuine job bug, no
    # harness fault involved.
    supervisor = Supervisor(mode="serial",
                            harness_faults=HarnessFaults(),
                            retry_policy=_fast_policy(2))
    results = supervisor.execute([FuncSpec.make("math:sqrt", x=2.0)])
    assert results == {}
    record = supervisor.manifest.records[0]
    assert len(record.attempts) == 2
    assert "TypeError" in record.attempts[0].error
    assert "Traceback" in record.attempts[0].traceback


def test_fail_fast_raises_job_quarantined():
    faults = HarnessFaults.from_json('{"fail": {"*": []}}')
    supervisor = Supervisor(mode="serial", fail_fast=True,
                            harness_faults=faults,
                            retry_policy=_fast_policy(1))
    with pytest.raises(JobQuarantined):
        supervisor.execute(_jobs(1))


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_fail_fast_stop_is_not_an_interrupt(mode, capsys):
    if mode == "process" and not _processes_available():
        pytest.skip("no processes")
    supervisor = Supervisor(mode=mode, max_retries=0, fail_fast=True,
                            harness_faults=HarnessFaults())
    specs = [FuncSpec.make("math:sqrt", x=2.0)] + _jobs(4)
    with pytest.raises(JobQuarantined):
        supervisor.execute(specs, workers=2)
    assert supervisor.stats.interrupted == 0
    assert "interrupted" not in capsys.readouterr().err


def _interrupt():
    raise KeyboardInterrupt()


def test_keyboard_interrupt_surfaces_as_run_interrupted(capsys):
    supervisor = Supervisor(mode="serial", harness_faults=HarnessFaults())
    # Two done, then the interrupted job and the two after it.
    specs = _jobs(2) + [FuncSpec.make(_interrupt)] + _jobs(4)[2:]
    completed = []
    with pytest.raises(RunInterrupted) as excinfo:
        supervisor.execute(specs,
                           on_result=lambda spec, result:
                           completed.append(result))
    assert (excinfo.value.completed, excinfo.value.outstanding) == (2, 3)
    assert completed == ["0", "1"]
    assert supervisor.stats.interrupted == 3
    assert "interrupted with 3 job(s) outstanding" in \
        capsys.readouterr().err


def test_retry_delays_are_recorded_and_deterministic():
    faults = HarnessFaults.from_json('{"fail": {"*": []}}')

    def run_once():
        supervisor = Supervisor(
            mode="serial", harness_faults=faults,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                     seed=5),
            sleep=lambda s: None)  # don't actually wait in tests
        supervisor.execute(_jobs(1))
        return [a.delay_s for a in supervisor.manifest.records[0].attempts]

    first = run_once()
    assert first == run_once()  # seeded jitter: reruns schedule alike
    assert first[0] > 0.0 and first[1] > 0.0
    assert first[2] == 0.0  # final attempt grants no further delay


# -- serial synthesis --------------------------------------------------------

def test_serial_mode_synthesises_crash_and_hang_without_processes():
    faults = HarnessFaults.from_json(
        '{"crash": {"job:0000:*": [1]}, "hang": {"job:0001:*": []}}')
    supervisor = Supervisor(mode="serial", harness_faults=faults,
                            retry_policy=_fast_policy(2))
    specs = _jobs(2)
    results = supervisor.execute(specs)
    assert results[specs[0]] == "0"  # crashed once, recovered
    assert specs[1] not in results  # hung both attempts, quarantined
    assert supervisor.stats.crashes == 1
    assert supervisor.stats.timeouts == 2
    outcomes = [a.outcome for a in supervisor.manifest.records[0].attempts]
    assert outcomes == ["timeout", "timeout"]


def test_serial_mode_arms_wall_budget_from_the_job_timeout():
    from repro.sim.engine import ambient_budget

    _PROBED.clear()
    supervisor = Supervisor(mode="serial", job_timeout_s=7.0,
                            harness_faults=HarnessFaults())
    supervisor.execute([FuncSpec.make(_probe_ambient_budget)])
    assert _PROBED["budget"].max_wall_s == 7.0
    assert ambient_budget() is None  # restored after the attempt


# -- sim budget plumbed through workers --------------------------------------

def test_sim_budget_abort_is_a_budget_outcome():
    from repro.sim.engine import RunBudget

    supervisor = Supervisor(
        mode="serial", sim_budget=RunBudget(max_events=10),
        harness_faults=HarnessFaults(), retry_policy=_fast_policy(1))
    results = supervisor.execute([FuncSpec.make(_runaway_sim)])
    assert results == {}
    record = supervisor.manifest.records[0]
    assert record.attempts[0].outcome == "budget"
    assert "max_events" in record.attempts[0].error


@needs_processes
def test_sim_budget_abort_in_a_real_worker():
    from repro.sim.engine import RunBudget

    supervisor = Supervisor(
        mode="process", sim_budget=RunBudget(max_events=10),
        harness_faults=HarnessFaults(), retry_policy=_fast_policy(1))
    results = supervisor.execute([FuncSpec.make(_runaway_sim)])
    assert results == {}
    record = supervisor.manifest.records[0]
    assert record.attempts[0].outcome == "budget"


_PROBED = {}


def _probe_ambient_budget():
    from repro.sim.engine import ambient_budget

    _PROBED["budget"] = ambient_budget()
    return 1


def _runaway_sim():
    from repro.sim.engine import Simulator

    sim = Simulator()

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run_until(1e9)
    return sim.dispatched


# -- grid runner integration -------------------------------------------------

def test_grid_runner_routes_through_the_supervisor(tmp_path):
    faults = HarnessFaults.from_json('{"fail": {"job:0001:*": []}}')
    supervisor = Supervisor(mode="serial", harness_faults=faults,
                            retry_policy=_fast_policy(2))
    runner = GridRunner(cache=str(tmp_path / "cache"),
                        supervisor=supervisor)
    specs = _jobs(3)
    results = runner.run(specs)
    assert results == ["0", None, "2"]  # quarantined spec -> None slot
    assert runner.stats.failed == 1
    # successes were cached; the quarantined one was not
    warm = GridRunner(cache=str(tmp_path / "cache"),
                      supervisor=Supervisor(mode="serial",
                                            harness_faults=HarnessFaults()))
    warm_results = warm.run(specs)
    assert warm.stats.cache_hits == 2
    assert warm.stats.executed == 1  # the poisoned one, now clean
    assert warm_results == ["0", "1", "2"]


def test_supervised_cache_hits_skip_the_supervisor():
    supervisor = Supervisor(mode="serial", harness_faults=HarnessFaults())
    runner = GridRunner(supervisor=supervisor)
    spec = FuncSpec.make("json:dumps", obj=42)
    assert runner.run([spec, spec]) == ["42", "42"]
    assert supervisor.stats.jobs == 1  # deduped before dispatch


# -- per-run scoping ---------------------------------------------------------

def test_serial_fallback_warns_once_per_run(capsys):
    supervisor = Supervisor(mode="auto", harness_faults=HarnessFaults())
    supervisor._note_serial_fallback(OSError("no semaphores"))
    supervisor._note_serial_fallback(OSError("no semaphores"))
    err = capsys.readouterr().err
    assert err.count("worker processes unavailable") == 1
    supervisor.begin_run()  # a new run re-arms the warning
    supervisor._note_serial_fallback(OSError("no semaphores"))
    err = capsys.readouterr().err
    assert err.count("worker processes unavailable") == 1
    assert supervisor.stats.serial_fallbacks == 3


def test_fleet_runner_scopes_the_supervisor_per_run(capsys):
    from repro.fleet.population import PopulationSpec
    from repro.fleet.shard import FleetRunner

    supervisor = Supervisor(mode="serial", harness_faults=HarnessFaults())
    supervisor.execute(_jobs(2))  # counters left over from a prior run
    supervisor._note_serial_fallback(OSError("no semaphores"))
    supervisor._note_serial_fallback(OSError("no semaphores"))
    assert capsys.readouterr().err.count(
        "worker processes unavailable") == 1
    runner = GridRunner(supervisor=supervisor)
    FleetRunner(PopulationSpec(seed=1, devices=2, shard_size=2),
                runner=runner)  # a new run re-arms the warning
    supervisor._note_serial_fallback(OSError("no semaphores"))
    assert capsys.readouterr().err.count(
        "worker processes unavailable") == 1
    # Lifetime counters stay cumulative across runs.
    assert supervisor.stats.succeeded == 2
    assert supervisor.stats.serial_fallbacks == 3


# -- telemetry emission ------------------------------------------------------

class _Recorder:
    def __init__(self):
        self.attempts = []
        self.budgets = []

    def supervisor_attempt(self, label, attempt, outcome, error):
        self.attempts.append((attempt, outcome))

    def budget(self, label, attempt, error):
        self.budgets.append((label, attempt))


def test_failed_attempts_land_in_the_telemetry_stream():
    faults = HarnessFaults.from_json('{"fail": {"job:0001:*": []}}')
    supervisor = Supervisor(mode="serial", harness_faults=faults,
                            retry_policy=_fast_policy(2))
    supervisor.telemetry = recorder = _Recorder()
    supervisor.execute(_jobs(2))
    assert recorder.attempts == [(1, "error"), (2, "error"),
                                 (2, "quarantined")]
    assert recorder.budgets == []


def test_crash_directives_emit_crash_attempt_events():
    faults = HarnessFaults.from_json('{"crash": {"job:0000:*": [1]}}')
    supervisor = Supervisor(mode="serial", harness_faults=faults,
                            retry_policy=_fast_policy(3))
    supervisor.telemetry = recorder = _Recorder()
    results = supervisor.execute(_jobs(1))
    assert list(results.values()) == ["0"]
    assert recorder.attempts == [(1, "crash")]


# -- worker reuse ------------------------------------------------------------

def _worker_pid(index, sleep_s=0.0):
    """One distinct job per ``index``; returns the pid that ran it."""
    time.sleep(sleep_s)
    return os.getpid()


def _pid_jobs(n, sleep_s=0.0):
    return [FuncSpec.make(_worker_pid, index=i, sleep_s=sleep_s)
            for i in range(n)]


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _wait_until(predicate, timeout_s):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="process states are read from /proc")


@needs_processes
def test_a_batch_forks_at_most_one_process_per_worker():
    supervisor = Supervisor(mode="process", harness_faults=HarnessFaults())
    specs = _pid_jobs(6)
    results = supervisor.execute(specs, workers=2)
    assert len(results) == 6
    assert len(set(results.values())) <= 2
    assert os.getpid() not in results.values()
    assert supervisor.stats.attempts == 6


@needs_processes
@pytest.mark.parametrize("kind", ["fail", "crash"])
def test_a_failed_attempt_retires_its_worker(kind):
    faults = HarnessFaults.from_json(
        '{"%s": {"job:0001:*": [1]}}' % kind)
    supervisor = Supervisor(mode="process", harness_faults=faults,
                            retry_policy=_fast_policy(2))
    specs = _pid_jobs(2)
    results = supervisor.execute(specs, workers=1)
    assert supervisor.stats.recovered == 1
    # Job 1's first attempt ran on job 0's worker; its retry did not.
    assert results[specs[1]] != results[specs[0]]


def _probe_specs(count):
    from repro.fleet.fastpath import needed_probes, probe_day
    from repro.fleet.population import PopulationSpec

    population = PopulationSpec(seed=3, devices=12, minutes=2.0,
                                mitigations=("vanilla", "leaseos"))
    return [FuncSpec.make(probe_day, kind=kind, name=name,
                          profile=profile, mitigation=mitigation,
                          minutes=population.minutes, variant=variant,
                          env_json=env_json)
            for kind, name, profile, mitigation, variant, env_json
            in needed_probes(population)[:count]]


@needs_processes
def test_probe_results_do_not_depend_on_the_jobs_a_worker_ran_before():
    specs = _probe_specs(12)
    assert len(specs) == 12

    def run(mode, order):
        supervisor = Supervisor(mode=mode, harness_faults=HarnessFaults())
        return supervisor.execute(order, workers=1)

    serial = run("serial", specs)
    assert len(serial) == 12
    assert run("process", specs) == serial
    assert run("process", specs[::-1]) == serial


@needs_processes
def test_probe_results_do_not_depend_on_the_chunk_they_ran_in():
    specs = _probe_specs(12)
    serial = Supervisor(mode="serial",
                        harness_faults=HarnessFaults()).execute(specs)

    def chunked(order):
        supervisor = Supervisor(mode="process",
                                harness_faults=HarnessFaults())
        results = GridRunner(jobs=1, supervisor=supervisor).run(
            order, chunk=4)
        assert supervisor.stats.attempts == 3
        return dict(zip(order, results))

    assert chunked(specs) == serial
    assert chunked(specs[::-1]) == serial


# -- chunks ------------------------------------------------------------------

def _chunk(specs):
    """One chunk of ``specs``, each under its positional job label."""
    return Chunk(tuple(specs), tuple(Supervisor.label_for(spec, index)
                                     for index, spec in enumerate(specs)))


@pytest.mark.parametrize("mode", ["serial", "process"])
def test_a_chunk_is_one_attempt_that_completes_each_member(mode):
    if mode == "process" and not _processes_available():
        pytest.skip("no processes")
    supervisor = Supervisor(mode=mode, harness_faults=HarnessFaults())
    specs = _jobs(5)
    seen = []
    results = supervisor.execute([_chunk(specs)],
                                 on_result=lambda s, r: seen.append(s))
    assert [results[spec] for spec in specs] == ["0", "1", "2", "3", "4"]
    assert seen == specs
    assert supervisor.stats.attempts == 1
    assert supervisor.stats.jobs == supervisor.stats.succeeded == 5


@pytest.mark.parametrize("mode", ["serial", "process"])
@pytest.mark.parametrize("kind", ["fail", "crash", "hang"])
def test_a_failed_chunk_runs_its_members_as_single_jobs(mode, kind):
    # The fault fires as the third member starts, on every attempt: the
    # chunk's attempt fails, each member runs singly, and the faulted
    # one is the only job lost and the only manifest record, with its
    # own two attempts.
    if mode == "process" and not _processes_available():
        pytest.skip("no processes")
    faults = HarnessFaults.from_json('{"%s": {"job:0002:*": []}}' % kind)
    supervisor = Supervisor(mode=mode, harness_faults=faults,
                            job_timeout_s=0.5,
                            retry_policy=_fast_policy(2))
    specs = _jobs(5)
    results = supervisor.execute([_chunk(specs)])
    assert [results.get(spec) for spec in specs] \
        == ["0", "1", None, "3", "4"]
    assert supervisor.stats.split == 1
    assert supervisor.stats.attempts == 1 + 5 + 1
    assert supervisor.manifest.labels == ["job:0002:dumps"]
    record = supervisor.manifest.records[0]
    assert [a.attempt for a in record.attempts] == [1, 2]
    assert supervisor.stats.quarantined == 1


@needs_processes
def test_a_chunk_crashed_on_a_first_attempt_recovers_every_member():
    faults = HarnessFaults.from_json('{"crash": {"job:0000:*": [1]}}')
    supervisor = Supervisor(mode="process", harness_faults=faults,
                            retry_policy=_fast_policy(2))
    specs = _jobs(4)
    results = supervisor.execute([_chunk(specs)])
    assert [results[spec] for spec in specs] == ["0", "1", "2", "3"]
    assert supervisor.stats.crashes == 2  # the chunk, then job 0 alone
    assert supervisor.stats.recovered == 1
    assert not supervisor.manifest


@needs_processes
def test_chunks_are_cut_so_no_worker_is_left_idle(monkeypatch):
    # Three effective workers even on a smaller host: twelve specs at
    # up to 30 per chunk go out as three chunks of four.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    supervisor = Supervisor(mode="process", harness_faults=HarnessFaults())
    results = GridRunner(jobs=3, supervisor=supervisor).run(_jobs(12),
                                                            chunk=30)
    assert results == [str(i) for i in range(12)]
    assert supervisor.stats.attempts == 3


@needs_processes
def test_a_chunk_deadline_gives_each_member_the_job_timeout():
    supervisor = Supervisor(mode="process", job_timeout_s=0.5,
                            harness_faults=HarnessFaults())
    specs = _pid_jobs(4, sleep_s=0.2)
    results = supervisor.execute([_chunk(specs)])
    assert len(results) == 4
    assert supervisor.stats.timeouts == supervisor.stats.split == 0


@needs_processes
@needs_proc
def test_an_idle_worker_that_died_is_replaced_without_an_attempt():
    supervisor = Supervisor(mode="process", harness_faults=HarnessFaults())
    specs = _pid_jobs(2)
    killed = []

    def kill_the_worker(spec, pid):
        if spec == specs[0]:
            os.kill(pid, signal.SIGKILL)
            killed.append(_wait_until(lambda: not _running(pid), 5.0))

    results = supervisor.execute(specs, workers=1,
                                 on_result=kill_the_worker)
    assert killed == [True]
    assert results[specs[1]] != results[specs[0]]
    assert supervisor.stats.attempts == 2
    assert supervisor.stats.crashes == supervisor.stats.retries == 0
    assert not supervisor.manifest


_ORPHAN_SCRIPT = """
import sys
from repro.resilience import HarnessFaults, Supervisor
from tests.resilience.test_supervisor import _pid_jobs

def report(spec, pid):
    with open(sys.argv[1], "a") as handle:
        handle.write("{}\\n".format(pid))

Supervisor(mode="process", harness_faults=HarnessFaults()).execute(
    _pid_jobs(100, sleep_s=0.1), workers=2, on_result=report)
"""


@needs_processes
@needs_proc
def test_a_sigkilled_supervisor_leaves_no_worker_behind(tmp_path):
    root = Path(__file__).resolve().parents[2]
    pid_file = tmp_path / "pids"

    def pids():
        if not pid_file.exists():
            return set()
        return {int(line) for line in pid_file.read_text().split()}

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    env.pop("REPRO_HARNESS_FAULTS", None)
    supervisor = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT, str(pid_file)],
        cwd=str(root), env=env)
    workers = set()
    try:
        assert _wait_until(lambda: len(pids()) >= 2, 60.0)
        workers = pids()
    finally:
        supervisor.kill()
        supervisor.wait(timeout=10)
    try:
        assert _wait_until(
            lambda: not any(_running(pid) for pid in workers), 5.0)
    finally:
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
