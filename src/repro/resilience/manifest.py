"""The failure manifest: partial results, fully accounted for.

A degraded run must say *exactly* what it did not compute. The
manifest records, for every job that ended in quarantine, the job's
declarative spec (its ``cache_token()``), the seed that reproduces it,
and the complete attempt history (outcome, error, traceback, timings,
backoff delays). Written as ``results/failures_<fp>.json``, it doubles
as a repro bundle: ``python -m repro chaos --replay`` accepts a
manifest and re-runs its failed chaos jobs directly.
"""

import json
import os

from dataclasses import asdict, dataclass, field

from repro.io import atomic_write
from repro.version import __version__

MANIFEST_KIND = "failure_manifest"

#: Default directory manifests are written under.
DEFAULT_DIRECTORY = "results"


@dataclass
class AttemptRecord:
    """One attempt of one job, as the supervisor saw it."""

    attempt: int
    outcome: str  # "timeout" | "crash" | "error" | "budget" | "interrupted"
    error: str = ""
    traceback: str = ""
    elapsed_s: float = 0.0
    #: Backoff granted before the *next* attempt (0 for the last one).
    delay_s: float = 0.0


@dataclass
class FailureRecord:
    """One failed job: spec, seed, and its whole attempt history."""

    label: str
    spec: dict  # the spec's cache_token(): kind + declarative fields
    seed: int = None
    attempts: list = field(default_factory=list)  # of AttemptRecord
    quarantined: bool = True

    def as_dict(self):
        data = asdict(self)
        data["attempts"] = [asdict(a) if not isinstance(a, dict) else a
                            for a in self.attempts]
        return data


def seed_of(spec_token):
    """Best-effort seed extraction from a spec's cache token.

    Case jobs carry ``seed`` directly; func jobs may carry it as a
    kwarg; fleet shard jobs embed it in ``population_json``. Returns
    ``None`` when the spec has no recognisable seed.
    """
    if not isinstance(spec_token, dict):
        return None
    if isinstance(spec_token.get("seed"), int):
        return spec_token["seed"]
    kwargs = dict_kwargs(spec_token)
    if isinstance(kwargs.get("seed"), int):
        return kwargs["seed"]
    population_json = kwargs.get("population_json")
    if isinstance(population_json, str):
        try:
            seed = json.loads(population_json).get("seed")
        except ValueError:
            return None
        if isinstance(seed, int):
            return seed
    return None


def dict_kwargs(spec_token):
    """A func-spec token's kwargs as a plain dict (lists -> tuples)."""
    kwargs = {}
    for name, value in spec_token.get("kwargs", ()):
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return kwargs


class FailureManifest:
    """Accumulates :class:`FailureRecord` entries across a run."""

    def __init__(self, run_fingerprint=""):
        self.run_fingerprint = run_fingerprint
        self.records = []

    def add(self, record):
        self.records.append(record)
        return record

    def __len__(self):
        return len(self.records)

    def __bool__(self):
        return bool(self.records)

    @property
    def labels(self):
        return [record.label for record in self.records]

    def fingerprint(self):
        """The run fingerprint, derived from the records if unset."""
        if self.run_fingerprint:
            return self.run_fingerprint
        import hashlib

        token = "|".join(sorted(
            json.dumps(record.as_dict()["spec"], sort_keys=True)
            for record in self.records))
        return hashlib.sha256(token.encode("utf-8")).hexdigest()[:12]

    def to_dict(self):
        return {
            "kind": MANIFEST_KIND,
            "version": __version__,
            "fingerprint": self.fingerprint(),
            "failed_jobs": len(self.records),
            "records": [record.as_dict() for record in self.records],
        }

    def write(self, directory=DEFAULT_DIRECTORY, path=None):
        """Write ``failures_<fp>.json``; returns the path."""
        if path is None:
            path = os.path.join(directory, "failures_{}.json".format(
                self.fingerprint()))
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        atomic_write(path, json.dumps(self.to_dict(), indent=2,
                                      sort_keys=True) + "\n")
        return path

    @classmethod
    def from_dict(cls, data):
        if data.get("kind") != MANIFEST_KIND:
            raise ValueError("not a failure manifest: kind={!r}".format(
                data.get("kind")))
        manifest = cls(run_fingerprint=data.get("fingerprint", ""))
        for entry in data.get("records", ()):
            manifest.add(FailureRecord(
                label=entry["label"],
                spec=entry["spec"],
                seed=entry.get("seed"),
                attempts=[AttemptRecord(**a)
                          for a in entry.get("attempts", ())],
                quarantined=entry.get("quarantined", True),
            ))
        return manifest

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_dict(json.load(handle))
