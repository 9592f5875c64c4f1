"""Declarative fault plans: what goes wrong, when, and for how long.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultEvent` records.
Plans are pure data -- JSON round-trippable, hashable, and safe to ship
across process boundaries as a :class:`~repro.experiments.grid.FuncSpec`
kwarg -- so the same plan replays bit-identically on any worker.

Plans are usually *sampled*: :meth:`FaultPlan.sample` draws a plan from
``random.Random(seed)`` alone, so a seed number in a CI log is a
complete description of the chaos a run experienced.
"""

import json
import random

from dataclasses import dataclass

from repro.io import canonical_json

#: Every fault kind the injector understands, with the semantics of the
#: ``param`` field for each.
FAULT_KINDS = (
    "ipc_latency",    # param = extra seconds added to every binder call
    "ipc_failure",    # param = per-transaction failure probability
    "gps_dropout",    # total signal loss (quality 0) for the window
    "gps_degraded",   # param = signal quality during the window (<0.3 => never fixes)
    "net_flap",       # connectivity lost for the window
    "server_storm",   # every known server answers with errors (param>=1: down)
    "app_crash",      # target app process killed; restarts after the window
    "rail_noise",     # param = mW of spurious system draw for the window
    "battery_jitter",  # param = mJ of one-shot battery-model noise
    "event_jitter",   # param = per-event delivery-delay probability for the window
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled perturbation.

    ``at_s`` is seconds from the start of the run, ``duration_s`` is how
    long the fault persists before the injector restores the previous
    state (0 for one-shot faults like ``battery_jitter``), and ``param``
    is the kind-specific magnitude documented in :data:`FAULT_KINDS`.
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind {!r}; known: {}".format(
                self.kind, ", ".join(FAULT_KINDS)))
        if self.at_s < 0 or self.duration_s < 0:
            raise ValueError(
                "fault times must be non-negative, got at_s={}, "
                "duration_s={}".format(self.at_s, self.duration_s))

    def as_dict(self):
        return {"kind": self.kind, "at_s": self.at_s,
                "duration_s": self.duration_s, "param": self.param}


class FaultPlan:
    """An immutable, ordered collection of fault events."""

    def __init__(self, events=(), seed=None):
        events = tuple(sorted(events, key=lambda e: (e.at_s, e.kind)))
        self.events = events
        #: The sampling seed, if this plan was drawn by :meth:`sample`
        #: (informational; the events alone define the plan).
        self.seed = seed

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other):
        return isinstance(other, FaultPlan) and self.events == other.events

    def __hash__(self):
        return hash(self.events)

    def __repr__(self):
        kinds = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        summary = ", ".join("{}x{}".format(n, k)
                            for k, n in sorted(kinds.items()))
        return "FaultPlan({} events{}{})".format(
            len(self.events),
            ": " + summary if summary else "",
            ", seed={}".format(self.seed) if self.seed is not None else "")

    def kinds(self):
        """The distinct fault kinds this plan exercises, sorted."""
        return tuple(sorted({e.kind for e in self.events}))

    # -- serialisation -----------------------------------------------------

    def to_json(self):
        """Compact, key-sorted JSON -- stable input for cache keys."""
        payload = {"events": [e.as_dict() for e in self.events]}
        if self.seed is not None:
            payload["seed"] = self.seed
        return canonical_json(payload)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        events = [FaultEvent(**fields) for fields in payload["events"]]
        return cls(events, seed=payload.get("seed"))

    # -- sampling ----------------------------------------------------------

    @classmethod
    def sample(cls, seed, horizon_s, kinds=None, events_per_hour=12.0):
        """Draw a deterministic plan from ``seed`` over ``horizon_s``.

        Fault start times land in the first 90% of the horizon so every
        fault has room to act; durations are drawn per kind (dropouts
        are tens of seconds to minutes, jitter windows shorter).
        ``events_per_hour`` scales density; at least one event is drawn
        for any positive horizon.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        rng = random.Random(seed)
        kinds = tuple(kinds) if kinds is not None else FAULT_KINDS
        count = max(1, int(round(events_per_hour * horizon_s / 3600.0)))
        events = []
        for __ in range(count):
            kind = kinds[rng.randrange(len(kinds))]
            at_s = rng.uniform(0.02, 0.9) * horizon_s
            events.append(cls._draw_event(rng, kind, at_s, horizon_s))
        return cls(events, seed=seed)

    @staticmethod
    def _draw_event(rng, kind, at_s, horizon_s):
        window = lambda lo, hi: min(rng.uniform(lo, hi),  # noqa: E731
                                    max(1.0, horizon_s - at_s))
        if kind == "ipc_latency":
            return FaultEvent(kind, at_s, window(10.0, 120.0),
                              param=rng.uniform(0.005, 0.05))
        if kind == "ipc_failure":
            return FaultEvent(kind, at_s, window(10.0, 120.0),
                              param=rng.uniform(0.05, 0.5))
        if kind == "gps_dropout":
            return FaultEvent(kind, at_s, window(30.0, 300.0))
        if kind == "gps_degraded":
            return FaultEvent(kind, at_s, window(60.0, 600.0),
                              param=rng.uniform(0.05, 0.25))
        if kind == "net_flap":
            return FaultEvent(kind, at_s, window(15.0, 240.0))
        if kind == "server_storm":
            return FaultEvent(kind, at_s, window(60.0, 600.0),
                              param=float(rng.random() < 0.3))
        if kind == "app_crash":
            return FaultEvent(kind, at_s, rng.uniform(5.0, 30.0))
        if kind == "rail_noise":
            return FaultEvent(kind, at_s, window(10.0, 120.0),
                              param=rng.uniform(5.0, 80.0))
        if kind == "battery_jitter":
            return FaultEvent(kind, at_s, 0.0,
                              param=rng.uniform(10.0, 500.0))
        if kind == "event_jitter":
            return FaultEvent(kind, at_s, window(10.0, 90.0),
                              param=rng.uniform(0.02, 0.10))
        raise ValueError("unknown fault kind {!r}".format(kind))
