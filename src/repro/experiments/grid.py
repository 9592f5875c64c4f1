"""Parallel experiment grid runner with deterministic result caching.

Every headline artifact of the reproduction (Table 5, the sweeps, the
robustness seeds, the battery projection) is a grid of *independent*
simulations. This module makes that structure first-class:

- a job is a declarative, hashable spec -- either a :class:`JobSpec`
  (one ``run_case`` invocation, referenced by case key and mitigation
  name) or a :class:`FuncSpec` (a module-level function plus scalar
  kwargs);
- :class:`GridRunner` runs a batch in process when it has one worker
  (the ``jobs`` argument; default 1) and otherwise fans it out over
  the reused fork workers of a
  :class:`~repro.resilience.supervisor.Supervisor` -- the runner's
  own, or :func:`default_supervisor`'s, which stops at the first failed
  job. Results always come back in *spec order*, regardless of
  completion order;
- completed jobs are memoised in a content-addressed on-disk cache
  (JSON files under ``results/.cache/`` by default) keyed by a stable
  hash of the spec plus the package's source digest
  (:func:`repro.version.code_digest`), so re-running an unchanged sweep
  is near-instant and a result simulated by other code is never served.

Only the *scalar* fields of a case run cross process boundaries (see
:class:`JobResult`); app and phone objects stay worker-local. Callers
that need live objects (e.g. ``lease_activity`` sampling the lease
manager) call :func:`repro.experiments.runner.run_case` directly.
"""

import hashlib
import importlib
import json
import os

from dataclasses import dataclass, fields, is_dataclass
from enum import Enum

from repro.io import atomic_write, canonical_json
from repro.version import code_digest

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")


def _mitigation_factories():
    """Name -> factory for every mitigation a grid job can name.

    Resolved lazily (and in the worker process) so importing this module
    stays cheap and the registry never pickles factory callables.
    """
    from repro.mitigation import (
        Amplify,
        BatterySaver,
        DefDroid,
        Doze,
        LeaseOS,
        TimedThrottle,
    )

    return {
        "vanilla": None,
        "leaseos": LeaseOS,
        "doze": Doze,
        "doze-aggressive": lambda: Doze(aggressive=True),
        "defdroid": DefDroid,
        "amplify": Amplify,
        "throttle": TimedThrottle,
        "battery-saver": BatterySaver,
        "battery-saver-full": lambda: BatterySaver(threshold_level=0.15),
    }


MITIGATION_NAMES = (
    "vanilla", "leaseos", "doze", "doze-aggressive", "defdroid",
    "amplify", "throttle", "battery-saver", "battery-saver-full",
)


def resolve_case(key):
    """Look a case key up in the shared case registry (worker-side).

    Covers all three tiers -- Table 5, extensions, and generated
    scenario cases (the latter require the catalog to have been
    instantiated in this process first).
    """
    from repro.apps.buggy import resolve_case as registry_resolve

    return registry_resolve(key)


def resolve_mitigation_factory(name):
    factories = _mitigation_factories()
    if name not in factories:
        raise KeyError("unknown mitigation {!r}; known: {}".format(
            name, ", ".join(sorted(factories))))
    return factories[name]


def _import_obj(path):
    """Import ``"package.module:Qual.Name"`` back into an object."""
    module_name, __, qualname = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _obj_path(obj):
    return "{}:{}".format(obj.__module__, obj.__qualname__)


# -- JSON codec for results ---------------------------------------------------
#
# Cache files are JSON; results may contain tuples, enums, frozensets and
# flat dataclasses (rows). The codec round-trips those through tagged
# dicts so a cache hit reconstructs exactly what the worker returned.

#: Exact types :func:`encode_result` returns unchanged, so a list of
#: them encodes as a plain copy.
_JSON_SCALARS = frozenset((type(None), bool, int, float, str))


def encode_result(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Enum):
        return {"__enum__": _obj_path(type(value)), "name": value.name}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_result(v) for v in value]}
    if isinstance(value, list):
        if _JSON_SCALARS.issuperset(map(type, value)):
            return list(value)
        return [encode_result(v) for v in value]
    if isinstance(value, (frozenset, set)):
        items = sorted((encode_result(v) for v in value), key=repr)
        return {"__frozenset__": items}
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": _obj_path(type(value)),
            "fields": {
                f.name: encode_result(getattr(value, f.name))
                for f in fields(value)
            },
        }
    if isinstance(value, dict):
        return {"__map__": [[encode_result(k), encode_result(v)]
                            for k, v in value.items()]}
    raise TypeError("cannot encode {!r} for the result cache".format(value))


def decode_result(value):
    if isinstance(value, list):
        return [decode_result(v) for v in value]
    if not isinstance(value, dict):
        return value
    if "__enum__" in value:
        return getattr(_import_obj(value["__enum__"]), value["name"])
    if "__tuple__" in value:
        return tuple(decode_result(v) for v in value["__tuple__"])
    if "__frozenset__" in value:
        return frozenset(decode_result(v) for v in value["__frozenset__"])
    if "__dataclass__" in value:
        cls = _import_obj(value["__dataclass__"])
        return cls(**{k: decode_result(v)
                      for k, v in value["fields"].items()})
    if "__map__" in value:
        return {decode_result(k): decode_result(v)
                for k, v in value["__map__"]}
    return {k: decode_result(v) for k, v in value.items()}


# -- job specs ----------------------------------------------------------------

@dataclass(frozen=True)
class JobResult:
    """The scalar fields of a ``CaseRun`` -- all that crosses processes."""

    case_key: str
    mitigation: str
    app_power_mw: float
    system_power_mw: float
    disruptions: int
    observed_behaviors: frozenset = frozenset()


@dataclass(frozen=True)
class JobSpec:
    """One declarative ``run_case`` invocation, hashable and cacheable.

    ``phone_overrides`` is a sorted tuple of ``(name, value)`` pairs with
    JSON-scalar values; device profiles are referenced by name so the
    spec never captures live objects.
    """

    case_key: str
    mitigation: str = "vanilla"
    minutes: float = 30.0
    seed: int = 7
    warmup_s: float = 0.0
    phone_overrides: tuple = ()

    @classmethod
    def make(cls, case, mitigation="vanilla", minutes=30.0, seed=7,
             warmup_s=0.0, **phone_overrides):
        """Build a spec from a case (object or key) plus overrides."""
        key = case if isinstance(case, str) else case.key
        normalized = []
        for name, value in sorted(phone_overrides.items()):
            if name == "profile" and not isinstance(value, str):
                value = value.name
            if not isinstance(value, (type(None), bool, int, float, str)):
                raise TypeError(
                    "phone override {}={!r} is not a JSON scalar; pass "
                    "profiles by name and keep overrides declarative"
                    .format(name, value))
            normalized.append((name, value))
        return cls(case_key=key, mitigation=mitigation,
                   minutes=float(minutes), seed=int(seed),
                   warmup_s=float(warmup_s),
                   phone_overrides=tuple(normalized))

    def cache_token(self):
        return {
            "kind": "case",
            "case_key": self.case_key,
            "mitigation": self.mitigation,
            "minutes": self.minutes,
            "seed": self.seed,
            "warmup_s": self.warmup_s,
            "phone_overrides": [list(pair) for pair in self.phone_overrides],
        }

    def _resolved_overrides(self):
        from repro.device.profiles import PROFILES

        overrides = dict(self.phone_overrides)
        if isinstance(overrides.get("profile"), str):
            overrides["profile"] = PROFILES[overrides["profile"]]
        return overrides

    def execute(self):
        """Run the case; its scalar fields as a :class:`JobResult`."""
        from repro.experiments.runner import run_case

        case = resolve_case(self.case_key)
        factory = resolve_mitigation_factory(self.mitigation)
        result = run_case(case, factory, minutes=self.minutes,
                          seed=self.seed, warmup_s=self.warmup_s,
                          **self._resolved_overrides())
        return JobResult(
            case_key=result.case_key,
            mitigation=result.mitigation,
            app_power_mw=result.app_power_mw,
            system_power_mw=result.system_power_mw,
            disruptions=result.disruptions,
            observed_behaviors=result.observed_behaviors,
        )


@dataclass(frozen=True)
class FuncSpec:
    """A module-level function plus scalar kwargs, as a declarative job.

    The function is referenced by import path (``module:qualname``), so
    the spec pickles cheaply and hashes stably; the callable itself is
    resolved inside the worker.
    """

    func: str
    kwargs: tuple = ()

    @classmethod
    def make(cls, func, **kwargs):
        path = func if isinstance(func, str) else _obj_path(func)
        if not isinstance(func, str):
            try:
                resolved = _import_obj(path)
            except (ImportError, AttributeError):
                resolved = None
            if resolved is not func:
                raise ValueError(
                    "{!r} is not importable as {!r}; grid jobs must be "
                    "module-level functions".format(func, path))
        for name, value in kwargs.items():
            if not isinstance(value, (type(None), bool, int, float, str,
                                      tuple)):
                raise TypeError(
                    "kwarg {}={!r} is not declarative (scalars and "
                    "tuples of scalars only)".format(name, value))
        return cls(func=path, kwargs=tuple(sorted(kwargs.items())))

    def cache_token(self):
        return {
            "kind": "func",
            "func": self.func,
            "kwargs": [[k, list(v) if isinstance(v, tuple) else v]
                       for k, v in self.kwargs],
        }

    def execute(self):
        return _import_obj(self.func)(**dict(self.kwargs))


# -- the cache ----------------------------------------------------------------

class ResultCache:
    """Content-addressed JSON store for completed grid jobs."""

    def __init__(self, directory=DEFAULT_CACHE_DIR):
        self.directory = directory

    def key_for(self, spec):
        """The spec's entry name: its token hashed with the code digest,
        so an edit to any package source misses every entry before it."""
        token = canonical_json(
            {"code": code_digest(), "spec": spec.cache_token()})
        return hashlib.sha256(token.encode("utf-8")).hexdigest()[:32]

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def load(self, spec):
        """The decoded cached result, or None on miss/corruption.

        A miss (no file) is silent; a *corrupt or undecodable* file is
        discarded on the spot so the entry is rebuilt cleanly instead of
        being re-parsed (and re-failed) on every subsequent lookup.
        """
        path = self._path(self.key_for(spec))
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._discard(path)
            return None
        try:
            return decode_result(payload["result"])
        except (ValueError, KeyError, AttributeError, ImportError,
                TypeError):
            self._discard(path)
            return None

    @staticmethod
    def _discard(path):
        try:
            os.unlink(path)
        except OSError:
            pass

    def store(self, spec, result):
        try:
            payload = {"spec": spec.cache_token(),
                       "result": encode_result(result)}
        except TypeError:
            return False  # result not cache-serialisable; run uncached
        # Atomic publish so concurrent runners never read a torn file.
        # An unusable directory, like a failed write, leaves the run
        # uncached rather than failing a job that has already computed.
        try:
            os.makedirs(self.directory, exist_ok=True)
            atomic_write(self._path(self.key_for(spec)),
                         json.dumps(payload))
        except OSError:
            return False
        return True


# -- the runner ---------------------------------------------------------------

@dataclass
class RunnerStats:
    """Counters for one runner's lifetime (summed over ``run`` calls)."""

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    failed: int = 0  # supervised jobs that ended in quarantine

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def default_supervisor():
    """The supervisor an unsupervised :class:`GridRunner` runs a batch
    with more than one effective worker on.

    No retries: the first failed job stops the batch with
    :class:`~repro.resilience.errors.JobQuarantined`. No harness faults
    (``REPRO_HARNESS_FAULTS`` is for supervised runs) and no sim budget.
    """
    from repro.resilience.hooks import HarnessFaults
    from repro.resilience.supervisor import Supervisor

    return Supervisor(max_retries=0, fail_fast=True,
                      harness_faults=HarnessFaults())


class GridRunner:
    """Fans declarative job specs out over workers, with memoisation.

    ``jobs``: worker count (``None`` or 1 == serial in-process).
    ``cache``: ``None``/``False`` disables caching, ``True`` uses the
    default directory, a string is a directory, or pass a
    :class:`ResultCache`.
    ``supervisor``: an optional :class:`~repro.resilience.supervisor.
    Supervisor`; when set, every executed batch runs under its
    deadline/retry/quarantine state machine and jobs that end in
    quarantine come back as ``None`` entries (recorded in
    ``supervisor.manifest``) instead of failing the whole run.

    Without one, a batch that gets one effective worker runs in process
    and a job's exception propagates unchanged; a batch that gets more
    runs on a :func:`default_supervisor`, so its first failed job raises
    :class:`~repro.resilience.errors.JobQuarantined`.
    """

    def __init__(self, jobs=None, cache=None, supervisor=None):
        self.jobs = 1 if jobs is None else max(1, int(jobs))
        if cache is True:
            cache = ResultCache()
        elif isinstance(cache, str):
            cache = ResultCache(cache)
        elif cache is False:
            cache = None
        self.cache = cache
        self.supervisor = supervisor
        self.stats = RunnerStats()
        self._default_supervisor = None

    def run(self, specs, labels=None, on_result=None, chunk=1):
        """Execute ``specs``; results come back in spec order.

        ``labels`` (parallel to ``specs``) names jobs for supervision
        and harness-fault matching. ``on_result(index, spec, result)``
        fires per completed spec -- for cache hits immediately, for
        fresh results the moment they are computed and cached, so
        callers can checkpoint incrementally and an interrupted run
        keeps everything that finished. Under a supervisor, quarantined
        specs yield ``None`` results and never fire ``on_result``.

        ``chunk``: a batch dispatched to worker processes goes out in
        :class:`~repro.resilience.supervisor.Chunk` s of up to ``chunk``
        cache misses, each run by one worker attempt with one reply
        (fewer per chunk when that would leave a worker idle). Cache
        lookups and stores, ``on_result``, dedup and :attr:`stats` stay
        per spec, and a failed chunk's specs are retried as single
        jobs. An in-process batch ignores it.
        """
        specs = list(specs)
        self.stats.submitted += len(specs)
        results = [None] * len(specs)
        pending = {}  # spec -> [indices]; dedups repeats within a batch
        label_for = {}
        for index, spec in enumerate(specs):
            if self.cache is not None and spec not in pending:
                cached = self.cache.load(spec)
                if cached is not None:
                    self.stats.cache_hits += 1
                    results[index] = cached
                    if on_result is not None:
                        on_result(index, spec, cached)
                    continue
                self.stats.cache_misses += 1
            pending.setdefault(spec, []).append(index)
            if labels is not None:
                label_for.setdefault(spec, labels[index])

        if pending:
            def _complete(spec, result):
                if self.cache is not None:
                    self.cache.store(spec, result)
                if on_result is not None:
                    for index in pending[spec]:
                        on_result(index, spec, result)

            fresh = self._execute(list(pending), label_for, _complete,
                                  chunk)
            for spec, result in fresh.items():
                for index in pending[spec]:
                    results[index] = result
        return results

    def run_one(self, spec):
        return self.run([spec])[0]

    # -- internals ---------------------------------------------------------

    @property
    def effective_jobs(self):
        """Worker count after clamping to the machine's core count.

        Fanning four workers out on a single core only adds fork and
        pickling overhead on top of the same serial compute (observed as
        a bogus <1.0 "speedup" in BENCH_grid.json on 1-core machines).
        """
        return min(self.jobs, os.cpu_count() or 1)

    def _execute(self, specs, label_for, on_complete, chunk=1):
        """Run deduped specs; ``{spec: result}`` for the successes.

        ``on_complete(spec, result)`` is invoked exactly once per
        successful spec, in completion order (it writes the cache and
        feeds the caller's ``on_result``).
        """
        supervisor = self.supervisor
        if supervisor is None:
            if min(self.effective_jobs, len(specs)) <= 1:
                out = {}
                for spec in specs:
                    result = spec.execute()
                    self.stats.executed += 1
                    out[spec] = result
                    on_complete(spec, result)
                return out
            # One for the runner's lifetime: a host without worker
            # processes then warns once, not once per batch.
            if self._default_supervisor is None:
                self._default_supervisor = default_supervisor()
            supervisor = self._default_supervisor
        labels = [label_for.get(spec, supervisor.label_for(spec, index))
                  for index, spec in enumerate(specs)]
        workers = self.effective_jobs
        batch, batch_labels = _chunked(
            specs, labels, min(chunk, -(-len(specs) // workers)))
        out = supervisor.execute(batch, labels=batch_labels,
                                 workers=workers, on_result=on_complete)
        self.stats.executed += len(out)
        self.stats.failed += len(specs) - len(out)
        return out


def _chunked(specs, labels, size):
    """``specs`` and their ``labels`` grouped in order into
    :class:`~repro.resilience.supervisor.Chunk` s of up to ``size``, as
    the two parallel lists ``Supervisor.execute`` takes; unchanged for a
    ``size`` of 1."""
    if size <= 1:
        return specs, labels
    from repro.resilience.supervisor import Chunk

    chunks = [Chunk(tuple(specs[start:start + size]),
                    tuple(labels[start:start + size]))
              for start in range(0, len(specs), size)]
    return chunks, [chunk.label for chunk in chunks]


def runner_from_args(args):
    """Build a runner from CLI args (``--jobs/--no-cache/--cache-dir``).

    The CLI caches by default (under ``results/.cache``); library calls
    that construct ``GridRunner()`` themselves default to uncached so
    programmatic behaviour is unchanged unless opted in. Subcommands
    that declare supervision flags (``--job-timeout``, ``--max-retries``,
    ``--fail-fast``/``--degrade``: currently ``chaos`` and ``fleet``)
    get a supervised runner; the rest run unsupervised.
    """
    no_cache = getattr(args, "no_cache", False)
    cache_dir = getattr(args, "cache_dir", None)
    cache = None if no_cache else (cache_dir or True)
    return GridRunner(jobs=getattr(args, "jobs", None), cache=cache,
                      supervisor=supervisor_from_args(args))


def supervisor_from_args(args):
    """A Supervisor from CLI supervision flags, or ``None``.

    Only subcommands whose parser declared the flags (marked by the
    ``supervised`` attribute) run supervised; plain grid commands get
    :class:`GridRunner`'s unsupervised dispatch.
    """
    if not getattr(args, "supervised", False):
        return None
    from repro.resilience.hooks import HarnessFaults
    from repro.resilience.supervisor import Supervisor
    from repro.sim.engine import RunBudget

    faults_json = getattr(args, "harness_faults", None)
    faults = HarnessFaults.from_json(faults_json) if faults_json else None
    max_events = getattr(args, "max_events", None)
    budget = RunBudget(max_events=max_events) if max_events else None
    return Supervisor(
        job_timeout_s=getattr(args, "job_timeout", None),
        max_retries=getattr(args, "max_retries", 2),
        fail_fast=getattr(args, "fail_fast", False),
        harness_faults=faults,
        sim_budget=budget,
        verbose=getattr(args, "supervise_verbose", False),
    )
