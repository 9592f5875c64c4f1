"""End-to-end benchmark of ``repro fleet`` through its real entry point.

    python3 perfbench/run.py --workload cold-table --seed 2019 \\
        --seconds 20 --trace 0

Runs from the root of a source checkout. Each run:

1. sets up at least twice and reports the median as ``setup_s``:
   byte-compiles ``src/repro`` (forked probe workers import the phone
   stack afresh, from ``.pyc`` if it exists) and makes the workload's
   inputs (see :mod:`workloads`);
2. with ``--trace 0`` runs ``python -m repro fleet ...`` as a
   subprocess, again and again until ``--seconds`` have passed (at
   least :attr:`workloads.Workload.min_runs` times), and reports
   medians of the end-to-end metrics;
   with ``--trace 1`` makes one untraced run and two under
   ``launcher.py``, which times every call into each layer's public
   functions, as often as ``--seconds`` allows (at least once), and
   reports the medians of the per-layer metrics of :mod:`layers`;
3. checks every run's report (:meth:`workloads.Workload.check`), that
   all runs of the seed agree on the report digest and that the count
   metrics of the traced runs repeat exactly. The end-to-end medians
   are over the runs that pass; ``ok_share`` is their share.

Each CLI run is hermetic: ``PYTHONPATH`` is the checkout's ``src``,
every ``REPRO_*`` variable is removed, BLAS/OpenMP pools have one
thread, and the run has a private working directory and ``TMPDIR``
under ``.perfbench/`` with its own cache, checkpoint, report and
telemetry paths; that directory is deleted afterwards, so a run leaves
the checkout as it found it (``__pycache__`` aside). CPU time and peak
RSS come from ``os.wait4`` on the CLI process (in ``spawn.py``, a
small parent of its own), which covers the workers it reaped.

Times are host-normalised seconds. On a small VM shared with other
tenants the same work runs up to twice as slow for minutes at a time,
which no amount of repetition inside one run averages out, and the two
vCPUs slow down independently of each other. So the benchmark pins
itself, and with it every process it starts, to one CPU
(:func:`pin_to_one_cpu`), and while a piece of work is timed a
:class:`HostSpeed` thread on that CPU repeats a fixed, small piece of
benchmark code (:func:`probe_work`, which never changes with the
program) every :data:`SAMPLE_PERIOD_S` and takes its thread CPU time.
The work's wall and CPU time are divided by the CPU's slowdown over
that interval: the harmonic mean of the samples over
:data:`REFERENCE_SAMPLE_S`. A reading is thus the time the work would
take on the host when it is quiet (plus the sampler's few percent); the
raw medians and the slowdown are printed beside the metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {value, unit}}``,
names and units as listed in ``BENCHMARK.json``). Without
``--workload`` every workload runs, traced and untraced.
"""

import argparse
import collections
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from dataclasses import dataclass, field

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench")

#: Traced CLI runs a ``--trace 1`` run makes per untraced one: two, so
#: that its count metrics are seen to repeat exactly.
TRACED_PER_PLAIN = 2

#: Units of the per-layer metrics that must repeat exactly between
#: traced runs of one seed.
COUNT_UNITS = frozenset({"count", "bytes"})

#: Fewest set-ups a ``--trace 0`` run medians over.
SETUP_REPEATS = 2

#: A cheap set-up is repeated until it has taken this long in total, so
#: its median is not one short, noisy timing.
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 15

#: A run gives up on the program (killing the CLI's process group)
#: once this much time has passed, so it ends within 180 seconds.
RUN_DEADLINE_S = 170.0

#: Thread CPU time of one :func:`probe_work` on an idle 2-vCPU VM
#: (Python 3.11); it only fixes the scale of the normalised times.
REFERENCE_SAMPLE_S = 0.003

#: Pause between two host-speed samples: the sampler takes about 3% of
#: the CPU the timed work runs on.
SAMPLE_PERIOD_S = 0.1

#: Units of the per-layer durations, host-normalised like ``wall_s``.
DURATION_UNITS = frozenset({"s", "ms", "us"})

#: Telemetry fields that hold wall-clock readings (as
#: ``repro.telemetry.schema.WALLCLOCK_FIELDS``).
WALLCLOCK_FIELDS = ("t_wall", "elapsed_s", "rate_dd_s", "eta_s")

#: The telemetry event emitted every so many wall-clock seconds.
PROGRESS_EVENT = "shard_progress"

#: Variables that pin numeric libraries to one thread: their spinning
#: helper threads would add CPU time that depends on the neighbours.
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")


@dataclass
class Run:
    """One finished subprocess and what it left behind."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawned_at: float
    run_dir: str
    stderr: str = ""
    report: dict = None
    digest: str = ""
    problems: list = field(default_factory=list)
    layers: dict = None
    #: Host slowdown while the run was in flight (see :class:`HostSpeed`).
    slowdown: float = 1.0


class Bench:
    """Runs hermetic subprocesses under one scratch directory."""

    def __init__(self, scratch, deadline):
        self.scratch = scratch
        self.deadline = deadline
        tmp = os.path.join(scratch, "tmp")
        os.makedirs(tmp)
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")
                    and key != "PYTHONDONTWRITEBYTECODE"}
        self.env.update({name: "1" for name in ONE_THREAD})
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["TMPDIR"] = tmp

    def fresh_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix, dir=self.scratch)

    def python(self, args, cwd):
        """``python ARGS`` in ``cwd``; returns a :class:`Run`."""
        return self._spawn([sys.executable, *args], cwd)

    def cli(self, argv, cwd, trace_dir=None):
        """``repro ARGV`` in ``cwd``, traced into ``trace_dir`` if set."""
        if trace_dir is None:
            command = ["-m", "repro", *argv]
        else:
            command = [os.path.join(HERE, "launcher.py"), trace_dir, *argv]
        run = self.python(command, cwd)
        path = os.path.join(cwd, workloads.REPORT)
        try:
            with open(path) as handle:
                run.report = json.load(handle)
            run.digest = workloads.report_digest(run.report)
        except (OSError, ValueError, KeyError, TypeError):
            run.report = None
        return run

    def _spawn(self, command, cwd):
        """Run ``command`` under ``spawn.py`` in its own process group,
        killed with everything it started at the run's deadline."""
        timeout = max(1.0, self.deadline - time.monotonic())
        usage_path = os.path.join(cwd, ".usage.json")
        err_path = os.path.join(cwd, ".stderr")
        with open(os.path.join(cwd, ".stdout"), "wb") as out, \
                open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "spawn.py"),
                 usage_path, *command],
                cwd=cwd, env=self.env, stdout=out, stderr=err,
                start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                proc.wait()
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
        # Workers the CLI failed to reap would outlive it; stop them.
        _kill_group(proc.pid)
        with open(err_path, errors="replace") as handle:
            stderr = handle.read()
        try:
            with open(usage_path) as handle:
                usage = json.load(handle)
        except (OSError, ValueError):  # spawn.py itself was killed
            return Run(returncode=proc.returncode or -9, wall_s=timeout,
                       cpu_s=0.0, peak_rss_mb=0.0,
                       spawned_at=time.monotonic() - timeout,
                       run_dir=cwd, stderr=stderr)
        return Run(returncode=usage["returncode"], wall_s=usage["wall_s"],
                   cpu_s=usage["cpu_s"], peak_rss_mb=usage["peak_rss_mb"],
                   spawned_at=usage["started"], run_dir=cwd, stderr=stderr)


def probe_work():
    """A fixed mix of allocation, JSON codec and interpreter work."""
    data = {str(i): [i, i * 0.5, "v" * (i % 17)] for i in range(2000)}
    total = 0
    for key, (a, __, c) in json.loads(json.dumps(data)).items():
        total += a * 3 % 7 + len(c) + len(key)
    return total


def pin_to_one_cpu():
    """Restrict this process, and every thread and process it starts
    from now on, to one of the CPUs it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Samples this CPU's speed while the work of a ``with`` block runs.

    The sampler is a thread of the benchmark, pinned with it to the CPU
    the timed subprocesses run on. It measures thread CPU time, so
    waiting for the CPU (or the interpreter lock) does not count, only
    how fast the CPU executes while the thread has it.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        self.samples = []
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while True:
            started = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - started)
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def slowdown(self):
        """Slowdown over the last ``with`` block: the harmonic mean of
        its samples over the reference (the time a piece of work took
        there is its quiet-host time times this)."""
        return len(self.samples) / sum(
            REFERENCE_SAMPLE_S / sample for sample in self.samples)


def _kill_group(pgid, wait_s=2.0):
    """SIGKILL what is left of a CLI's process group and wait (up to
    ``wait_s``) until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def compile_sources():
    """Byte-compile ``src/repro`` afresh."""
    if not compileall.compile_dir(os.path.join(ROOT, "src", "repro"),
                                  force=True, quiet=1):
        raise RuntimeError("byte-compiling src/repro failed")


def dir_usage(path, exclude=()):
    """``(files, bytes)`` under ``path``, skipping names in ``exclude``."""
    files = size = 0
    for directory, __, names in os.walk(path):
        for name in names:
            if name in exclude:
                continue
            files += 1
            size += os.path.getsize(os.path.join(directory, name))
    return files, size


def telemetry_usage(path):
    """``(events, bytes)`` of the telemetry stream under ``path``, less
    its time-gated progress snapshots and wall-clock fields, so both
    repeat exactly between runs of one seed; the bytes are those of the
    events in compact JSON."""
    events = size = 0
    for directory, __, names in os.walk(path):
        for name in names:
            with open(os.path.join(directory, name)) as handle:
                for line in handle:
                    event = json.loads(line)
                    if event.get("event") == PROGRESS_EVENT:
                        continue
                    for key in WALLCLOCK_FIELDS:
                        event.pop(key, None)
                    events += 1
                    size += len(json.dumps(event,
                                           separators=(",", ":"))) + 1
    return events, size


def set_up(bench, workload, seed, repeats, speed):
    """Set up at least ``repeats`` times, and until :data:`SETUP_MIN_S`
    have been spent (at most :data:`SETUP_MAX_REPEATS` times); returns
    the median normalised seconds and the last repetition's inputs."""
    times = []
    spent = 0.0
    inputs = None
    while len(times) < repeats or (spent < SETUP_MIN_S
                                   and len(times) < SETUP_MAX_REPEATS):
        directory = bench.fresh_dir("setup-")
        with speed:
            started = time.monotonic()
            compile_sources()
            inputs = workload.setup(bench, seed, directory)
            elapsed = time.monotonic() - started
        spent += elapsed
        times.append(elapsed / speed.slowdown())
    return statistics.median(times), inputs


def invoke(bench, workload, seed, inputs, speed, trace=False):
    """One checked CLI run of ``workload`` in a fresh directory."""
    run_dir = bench.fresh_dir("run-")
    workload.prepare(run_dir, inputs)
    before = set(os.listdir(os.path.join(run_dir, workloads.CACHE_DIR))) \
        if os.path.isdir(os.path.join(run_dir, workloads.CACHE_DIR)) \
        else set()
    trace_dir = None
    if trace:
        trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(trace_dir)
    with speed:
        run = bench.cli(workload.argv(seed, inputs), run_dir, trace_dir)
    run.slowdown = speed.slowdown()
    run.problems = workload.check(run, seed)
    if trace and run.report is not None:
        cache = dir_usage(os.path.join(run_dir, workloads.CACHE_DIR),
                          exclude=before)
        checkpoints = dir_usage(os.path.join(run_dir,
                                             workloads.CHECKPOINT_DIR))
        telemetry = telemetry_usage(os.path.join(
            run_dir, workloads.TELEMETRY_DIR))
        run.layers = layers.layer_metrics(trace_dir, {
            "report": run.report, "spawned_at": run.spawned_at,
            "wall_s": run.wall_s, "cache_bytes": cache[1],
            "checkpoint_files": checkpoints[0],
            "checkpoint_bytes": checkpoints[1],
            "telemetry_events": telemetry[0],
            "telemetry_bytes": telemetry[1]})
    shutil.rmtree(run_dir, ignore_errors=True)
    return run


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(bench, workload, seed, seconds, trace, units):
    """One benchmark run: ``(metrics, runs)``; ``units`` maps each
    metric of the mode to its unit in ``BENCHMARK.json``."""
    speed = HostSpeed()
    setup_s, inputs = set_up(bench, workload, seed,
                             SETUP_REPEATS if not trace else 1, speed)
    runs = []
    started = time.monotonic()
    if not trace:
        while len(runs) < workload.min_runs \
                or time.monotonic() - started < seconds:
            runs.append(invoke(bench, workload, seed, inputs, speed))
            if runs[-1].returncode < 0:
                break  # killed at the deadline
        flag_odd_digests(seed, runs)
        good = [r for r in runs if not r.problems]
        # A failed or killed run times something else; with no good run
        # at all the result is marked incorrect and any numbers will do.
        timed = good or runs
        wall = statistics.median(r.wall_s / r.slowdown for r in timed)
        device_days = workload.devices * len(workload.mitigations)
        return {
            "wall_s": wall,
            "device_days_per_s": device_days / wall,
            "cpu_s": statistics.median(r.cpu_s / r.slowdown for r in timed),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
            "setup_s": setup_s,
            "ok_share": len(good) / len(runs),
        }, runs
    plain, traced = [], []
    while not plain or time.monotonic() - started < seconds:
        plain.append(invoke(bench, workload, seed, inputs, speed))
        traced += [invoke(bench, workload, seed, inputs, speed, trace=True)
                   for __ in range(TRACED_PER_PLAIN)]
        runs = plain + traced
        if min(r.returncode for r in runs) < 0:
            break
    per_run = [{name: value / r.slowdown
                if value is not None and units[name] in DURATION_UNITS
                else value for name, value in (r.layers or {}).items()}
               for r in traced]
    metrics = {name: _median_or_none([m.get(name) for m in per_run])
               for name in layers.METRIC_NAMES}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s / r.slowdown for r in traced)
        / statistics.median(r.wall_s / r.slowdown for r in plain))
    flag_odd_digests(seed, runs)
    return metrics, runs


def flag_odd_digests(seed, runs):
    """Add a problem to each run whose report digest is not the one
    most runs of the seed agree on. At :data:`workloads.DEFAULT_SEED`
    :meth:`workloads.Workload.check` holds every run to the pinned
    digest instead."""
    if seed == workloads.DEFAULT_SEED:
        return
    counts = collections.Counter(run.digest for run in runs
                                 if run.report is not None)
    if not counts:
        return
    majority = counts.most_common(1)[0][0]
    for run in runs:
        if run.report is not None and run.digest != majority:
            run.problems.append("report digest {} != {} of most runs"
                                .format(run.digest, majority))


def verdict(runs, units):
    """``(correct, failed, notes)`` over all runs of one workload;
    ``units`` maps the mode's metrics to their units."""
    notes = []
    failed = 0
    for index, run in enumerate(runs):
        if run.problems:
            failed += 1
            notes.append("run {}: {}".format(index, "; ".join(run.problems)))
    traced = [run.layers for run in runs if run.layers is not None]
    unsteady = sorted(
        name for name, unit in units.items() if unit in COUNT_UNITS
        and len({layer.get(name) for layer in traced}) > 1)
    for name in unsteady:
        notes.append("traced runs disagree on {}: {}".format(
            name, [layer.get(name) for layer in traced]))
    return failed == 0 and not unsteady, failed, notes


def environment():
    """Facts about the host and sources the numbers were taken on."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for directory, dirs, names in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"python": platform.python_version(), "numpy": numpy,
            "cpu_count": os.cpu_count(), "commit": _git_commit(),
            "source_sha256": digest.hexdigest()}


def _git_commit():
    """HEAD's commit when the checkout has a ``.git`` directory."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as handle:
                head = handle.read().strip()
        return head
    except OSError:
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_units(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(correct, attempted, failed, metrics, units):
    if set(metrics) != set(units):
        raise RuntimeError("metrics {} do not match BENCHMARK.json".format(
            sorted(set(metrics) ^ set(units))))
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}})


def run_one(workload, seed, seconds, trace, spec):
    """Measure one workload in one mode; prints its table, returns
    ``(correct, attempted, failed, metrics)``."""
    units = metric_units(spec, trace)
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)
    try:
        bench = Bench(scratch, time.monotonic() + RUN_DEADLINE_S)
        metrics, runs = measure(bench, workload, seed, seconds, trace,
                                units)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass
    correct, failed, notes = verdict(runs, units)
    print("{} ({}, seed {}): {} CLI run(s), {} failed, digest {}".format(
        workload.name, "traced" if trace else "untraced", seed, len(runs),
        failed, runs[0].digest or "-"))
    for note in notes:
        print("  FAIL " + note)
    print("  host slowdown x{:.3f}, raw wall {:.4f} s, raw cpu {:.4f} s "
          "(medians over the CLI runs)".format(
              statistics.median(r.slowdown for r in runs),
              statistics.median(r.wall_s for r in runs),
              statistics.median(r.cpu_s for r in runs)))
    print("  per CLI run, normalised wall s (slowdown): " + ", ".join(
        "{:.3f} (x{:.2f})".format(r.wall_s / r.slowdown, r.slowdown)
        for r in runs))
    for name in units:
        value = metrics.get(name)
        shown = "null" if value is None else "{:.6g}".format(value)
        print("  {:<34} {:>14} {}".format(name, shown, units[name]))
    return correct, len(runs), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, traced and not)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under {}; run from a source "
              "checkout".format(ROOT), file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    facts = environment()
    facts["pinned_cpu"] = pin_to_one_cpu()
    print("environment: " + json.dumps(facts, sort_keys=True))
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for name in names:
        for trace in modes:
            results.append((name, trace, run_one(
                workloads.WORKLOADS[name], args.seed, seconds,
                bool(trace), spec)))
    if len(results) == 1:
        __, trace, (correct, attempted, failed, metrics) = results[0]
        print(result_line(correct, attempted, failed, metrics,
                          metric_units(spec, trace)))
        return 0
    combined, units = {}, {}
    for name, trace, (__, __, __, metrics) in results:
        for metric, unit in metric_units(spec, trace).items():
            combined[name + "." + metric] = metrics[metric]
            units[name + "." + metric] = unit
    print(result_line(all(r[2][0] for r in results),
                      sum(r[2][1] for r in results),
                      sum(r[2][2] for r in results), combined, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
