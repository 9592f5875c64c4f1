"""Span recorder for the benchmark's traced run.

Wraps the public functions of each layer of ``repro fleet`` (the
:data:`TARGETS`, named ``"module:Qual.name"``) and records one span per
call: name, start, end, pid, span id, parent span id and a few
per-target counts. Nothing under ``src/`` changes: targets are patched
from here, each one the moment its module is first imported, so a run
imports exactly what the untraced CLI imports, in the same processes.
That matters: supervised workers are forked, and a phone stack imported
early in the parent would hide the import cost every fresh worker pays.

Spans stay in memory until the process's outermost span closes, then
go to ``spans-<pid>.jsonl`` in the trace directory. Supervised workers
leave through ``os._exit`` (no atexit), which is why the flush happens
on span close. A forked child starts with an empty stack whose parent
is the span that was open in the forking process, so parent links
cross processes; every time is ``time.monotonic()``, one system-wide
clock, so self time can be computed across processes.

A target that cannot be resolved (moved or deleted by a refactor) is
reported as missing with a warning instead of failing the run.
"""

import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time

#: The wrapped layer entry points.
TARGETS = (
    # CLI and transition table
    "repro.cli:main",
    "repro.fleet.fastpath:build_table",
    "repro.fleet.fastpath:needed_probes",
    "repro.fleet.fastpath:probe_day",
    "repro.fleet.fastpath:TransitionTable.to_json",
    "repro.fleet.fastpath:TransitionTable.from_json",
    # dispatch and cache
    "repro.experiments.grid:ResultCache.load",
    "repro.experiments.grid:ResultCache.store",
    "repro.resilience.supervisor:Supervisor.execute",
    "repro.experiments.grid:FuncSpec.execute",
    # shards and kernel
    "repro.fleet.shard:run_shard",
    "repro.fleet.shard:build_device_phone",
    "repro.fleet.shard:simulate_device_day",
    "repro.droid.phone:Phone.run_for",
    # replay and folding
    "repro.fleet.population:PopulationSpec.sample_columns",
    "repro.fleet.population:PopulationSpec.device",
    "repro.fleet.vector:compose_shard",
    "repro.fleet.vector:replay_shard_vector",
    "repro.fleet.stats:FleetStats.observe",
    "repro.fleet.stats:FleetStats.observe_many",
    "repro.fleet.stats:FleetStats.merge",
    "repro.fleet.shard:FleetRunner.merged_stats",
    # output
    "repro.fleet.report:build_report",
    "repro.fleet.report:write_report",
    "repro.telemetry.emit:shard_telemetry",
    "repro.telemetry.emit:ShardTelemetry.started",
    "repro.telemetry.emit:ShardTelemetry.observe",
    "repro.telemetry.emit:ShardTelemetry.observe_batch",
    "repro.telemetry.emit:ShardTelemetry.observe_families",
    "repro.telemetry.emit:ShardTelemetry.device_done",
    "repro.telemetry.emit:ShardTelemetry.fallback",
    "repro.telemetry.emit:ShardTelemetry.finished",
    "repro.telemetry.emit:ShardTelemetry.close",
    "repro.telemetry.emit:RunTelemetry.__init__",
    "repro.telemetry.emit:RunTelemetry.run_started",
    "repro.telemetry.emit:RunTelemetry.shard_finished",
    "repro.telemetry.emit:RunTelemetry.supervisor_attempt",
    "repro.telemetry.emit:RunTelemetry.budget",
    "repro.telemetry.emit:RunTelemetry.run_finished",
    "repro.telemetry.emit:RunTelemetry.close",
)

#: Name of the per-run file listing each target's resolution status.
TARGETS_FILE = "targets.json"

#: Span name of the tracer's own writes.
FLUSH = "trace.flush"


def _distinct_probes(table):
    """Distinct probe results per (kind, app, profile, mitigation,
    variant), against the number of probes: the table's useful work."""
    groups = {}
    for key, entry in table.entries.items():
        group = tuple(key.split("|", 5)[:5])
        groups.setdefault(group, set()).add(
            json.dumps(entry, sort_keys=True))
    return {"entries": len(table.entries),
            "distinct": sum(len(results) for results in groups.values())}


def _job_count(args, kwargs):
    specs = args[1] if len(args) > 1 else kwargs.get("specs", ())
    return {"jobs": len(specs)} if hasattr(specs, "__len__") else {}


#: Per-target counts recorded with the span: ``target -> (before,
#: after)``; ``before(args, kwargs)`` runs on entry and its value is
#: passed to ``after(args, kwargs, result, before)``, which returns the
#: span's extra dict (``result`` is None when the call raised).
EXTRAS = {
    "repro.droid.phone:Phone.run_for": (
        lambda args, kwargs: args[0].sim.dispatched,
        lambda args, kwargs, result, before:
            {"events": args[0].sim.dispatched - before}),
    "repro.fleet.fastpath:needed_probes": (
        None, lambda args, kwargs, result, before:
            {"probes": len(result or ())}),
    "repro.fleet.fastpath:build_table": (
        None, lambda args, kwargs, result, before:
            _distinct_probes(result) if result is not None else {}),
    "repro.fleet.fastpath:TransitionTable.to_json": (
        None, lambda args, kwargs, result, before:
            {"bytes": len(result or "")}),
    "repro.experiments.grid:ResultCache.load": (
        None, lambda args, kwargs, result, before:
            {"hit": int(result is not None)}),
    "repro.experiments.grid:ResultCache.store": (
        None, lambda args, kwargs, result, before:
            {"stored": int(bool(result))}),
    "repro.resilience.supervisor:Supervisor.execute": (
        lambda args, kwargs: _job_count(args, kwargs),
        lambda args, kwargs, result, before: before),
}


def split_target(target):
    """``"pkg.mod:Qual.name"`` -> ``("pkg.mod", ["Qual", "name"])``."""
    module, __, qualname = target.partition(":")
    return module, qualname.split(".")


def resolve(target):
    """``(owner, attribute, raw descriptor)`` for a target, importing
    its module; raises ImportError/AttributeError when it is gone."""
    module_name, parts = split_target(target)
    owner = importlib.import_module(module_name)
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        raise AttributeError("{} has no attribute {!r}".format(
            owner.__name__, attr))
    return owner, attr, getattr(owner, attr)


def target_status(target):
    """``"ok"``, or why the target cannot be resolved."""
    try:
        resolve(target)
    except (ImportError, AttributeError) as exc:
        return "missing: {}: {}".format(type(exc).__name__, exc)
    return "ok"


class Tracer:
    """Per-process span buffer plus the wrappers that feed it."""

    def __init__(self, out_dir, targets=TARGETS):
        self.out_dir = out_dir
        self.targets = tuple(targets)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.fork_parent = None
        self.counter = 0
        self._by_module = {}
        for target in self.targets:
            module, __ = split_target(target)
            self._by_module.setdefault(module, []).append(target)

    # -- recording ---------------------------------------------------------

    def _after_fork_in_child(self):
        if self.stack:
            self.fork_parent = self.stack[-1]
        self.pid = os.getpid()
        self.stack = []
        self.spans = []
        self.counter = 0

    def wrap(self, name, func):
        """``func`` recording one span named ``name`` per call."""
        tracer = self
        before_hook, after_hook = EXTRAS.get(name, (None, None))
        monotonic = time.monotonic

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer.counter += 1
            span_id = (tracer.pid << 32) | tracer.counter
            stack = tracer.stack
            parent = stack[-1] if stack else tracer.fork_parent
            stack.append(span_id)
            before = before_hook(args, kwargs) if before_hook else None
            result = None
            start = monotonic()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = monotonic()
                stack.pop()
                extra = after_hook(args, kwargs, result, before) \
                    if after_hook else None
                tracer.spans.append((name, start, end, tracer.pid,
                                     span_id, parent, extra))
                if not stack:
                    tracer.flush()

        traced.__wrapped_target__ = name
        return traced

    def flush(self):
        """Append this process's closed spans to its span file, then a
        ``trace.flush`` span for the write itself: in a worker the
        forking process waits through it, and it is the tracer's cost,
        not the supervisor's."""
        if not self.spans:
            return
        start = time.monotonic()
        path = os.path.join(self.out_dir,
                            "spans-{}.jsonl".format(self.pid))
        lines = "".join(json.dumps(span, separators=(",", ":")) + "\n"
                        for span in self.spans)
        with open(path, "a") as handle:
            handle.write(lines)
            self.counter += 1
            handle.write(json.dumps(
                (FLUSH, start, time.monotonic(), self.pid,
                 (self.pid << 32) | self.counter, self.fork_parent, None),
                separators=(",", ":")) + "\n")
        self.spans = []

    # -- patching ----------------------------------------------------------

    def patch(self, target):
        """Replace ``target`` with its traced wrapper (idempotent)."""
        owner, attr, raw = resolve(target)
        if isinstance(raw, (classmethod, staticmethod)):
            func = raw.__func__
            if getattr(func, "__wrapped_target__", None):
                return
            setattr(owner, attr, type(raw)(self.wrap(target, func)))
        else:
            if getattr(raw, "__wrapped_target__", None):
                return
            setattr(owner, attr, self.wrap(target, raw))

    def patch_module(self, module_name):
        for target in self._by_module.get(module_name, ()):
            try:
                self.patch(target)
            except (ImportError, AttributeError) as exc:
                print("perfbench: cannot trace {} ({}: {})".format(
                    target, type(exc).__name__, exc), file=sys.stderr)

    def install(self):
        """Patch loaded target modules now, the rest on first import,
        and re-root span trees in forked children."""
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        sys.meta_path.insert(0, _PatchOnImport(self))
        for module_name in self._by_module:
            if module_name in sys.modules:
                self.patch_module(module_name)

    def write_target_status(self):
        """Resolve every target (importing as needed, after the run)
        and write ``targets.json``; warn about each missing one."""
        status = {target: target_status(target) for target in self.targets}
        for target, state in sorted(status.items()):
            if state != "ok":
                print("perfbench: trace target {} {}; its metrics are "
                      "null".format(target, state), file=sys.stderr)
        with open(os.path.join(self.out_dir, TARGETS_FILE), "w") as handle:
            json.dump(status, handle, indent=1, sort_keys=True)
        return status


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Finds target modules on the normal path and patches them right
    after they execute, before any importer can bind their names."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in self.tracer._by_module:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_patch(module):
            exec_module(module)
            tracer.patch_module(fullname)

        spec.loader.exec_module = exec_and_patch
        return spec
