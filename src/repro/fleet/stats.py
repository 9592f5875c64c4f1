"""Mergeable streaming statistics for fleet-scale aggregation.

A fleet run produces one summary *per device-day*, but a million-device
run must never hold a million summaries: every shard folds its devices
into constant-size accumulators the moment they finish, and the fleet
runner merges the per-shard accumulators in O(shards) memory. Three
accumulator kinds cover the report's needs:

- :class:`Moments` -- count / mean / M2 (Welford updates, Chan et al.
  parallel merge) plus min/max, for means and standard deviations;
- :class:`Histogram` -- fixed, pre-declared bins with integer counts
  (exact, and therefore trivially associative and commutative);
- :class:`QuantileDigest` -- a small deterministic quantile sketch: a
  bounded list of (value, weight) entries compacted by deterministic
  pairwise averaging, no randomness anywhere.

Merge guarantees (relied on by checkpoint/resume -- see docs/fleet.md):

- every accumulator's ``merge`` is **bitwise commutative**:
  ``merge(a, b)`` and ``merge(b, a)`` serialise to identical JSON.
  ``Moments.merge`` achieves this by canonically ordering its operands
  before applying the (float, order-sensitive) Chan formula; the other
  two are exact by construction.
- the fleet runner additionally folds shards in **shard-index order**,
  so a resumed run replays the exact float-op sequence of an
  uninterrupted run and the final report is byte-identical.
- serialisation is lossless: Python's JSON float round-trip is exact,
  so ``from_dict(to_dict(x))`` reproduces ``x`` bit-for-bit.

Batch folds (``add_many`` / ``observe_many``) are *batch-merge* folds,
not replays of the per-value loop: the batch is summarised with a
fixed pairwise halving tree (sums for :class:`Moments`, weighted-mean
sketch points for :class:`QuantileDigest`) and merged into the current
state exactly as a shard merge would be. The tree shape depends only
on the batch length, so the result is deterministic, bit-identical
between the numpy and pure-python backends, and -- because the table
paths fold exactly one batch per metric per shard -- byte-stable
across resume for the same shard boundaries. The kernel path folds
per value (``add``/``observe``) and is untouched by batching.
"""

import math
import os

from repro.io import left_sum

#: Below this many values the numpy histogram path costs more in array
#: conversion than it saves; the pure loop is used either way.
_NUMPY_BATCH_MIN = 64


def _numpy():
    """The numpy module, or None (absent, or disabled via env).

    numpy is an *optional* accelerator: every batch operation has a
    pure-python implementation that produces bit-identical accumulator
    state, and only exact computations (elementwise float64 ops, which
    IEEE-754 guarantees match Python's scalar arithmetic, plus integer
    bin counting) are delegated to numpy. ``REPRO_FASTPATH_NUMPY=0``
    forces the pure path, which the parity tests use to prove the two
    implementations byte-identical.
    """
    if os.environ.get("REPRO_FASTPATH_NUMPY", "1") == "0":
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def numpy_backend():
    """Public alias for :func:`_numpy`: the numpy module the fleet's
    batched paths (stats accumulators, the vector engine) will use, or
    ``None`` when numpy is absent or disabled via
    ``REPRO_FASTPATH_NUMPY=0``. Mode selection (``repro fleet --mode
    auto``) and tests key off this single gate so every layer degrades
    together."""
    return _numpy()


def _tree_sum_pure(values):
    """Pairwise-halving sum of a non-empty list of floats.

    Adjacent pairs are added, an odd tail is carried to the end of the
    next level, and the process repeats until one value remains. The
    tree shape is a function of ``len(values)`` alone, so the float-op
    sequence -- and therefore the result, bit for bit -- matches
    :func:`_tree_sum_numpy` on the same values.
    """
    while len(values) > 1:
        nxt = [a + b for a, b in zip(values[0::2], values[1::2])]
        if len(values) % 2:
            nxt.append(values[-1])
        values = nxt
    return values[0]


def _tree_sum_numpy(arr, np):
    """Numpy twin of :func:`_tree_sum_pure`: same halving tree, same
    odd-tail carry, elementwise float64 adds -- bit-identical result."""
    while arr.shape[0] > 1:
        if arr.shape[0] % 2:
            tail = arr[-1:]
            arr = np.concatenate([arr[0:-1:2] + arr[1::2], tail])
        else:
            arr = arr[0::2] + arr[1::2]
    return float(arr[0])


class Moments:
    """Streaming count/mean/M2 with exact-merge bookkeeping."""

    __slots__ = ("count", "mean", "m2", "min", "max")

    def __init__(self, count=0, mean=0.0, m2=0.0, min=None, max=None):
        self.count = count
        self.mean = mean
        self.m2 = m2
        self.min = min
        self.max = max

    def add(self, value):
        """Welford update with one observation."""
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def add_many(self, values):
        """Batch-merge fold: summarise the batch, Chan-merge it in.

        The per-value Welford recurrence is inherently sequential, so
        the batch is instead summarised with a pairwise halving tree
        (sum for the mean, sum of squared deviations for M2 -- both
        exact elementwise float64 ops with a length-determined tree
        shape) and merged like a shard. The numpy and pure paths
        produce bit-identical state; which one runs is a speed choice
        only.
        """
        n = len(values)
        if n == 0:
            return
        np = _numpy() if n >= _NUMPY_BATCH_MIN else None
        if np is not None:
            arr = np.asarray(values, dtype=np.float64)
            lo = float(arr.min())
            hi = float(arr.max())
            mean = _tree_sum_numpy(arr, np) / n
            delta = arr - mean
            m2 = _tree_sum_numpy(delta * delta, np)
        else:
            vals = [float(value) for value in values]
            lo = min(vals)
            hi = max(vals)
            mean = _tree_sum_pure(vals) / n
            m2 = _tree_sum_pure(
                [(value - mean) * (value - mean) for value in vals])
        merged = self.merge(Moments(n, mean, m2, lo, hi))
        self.count, self.mean, self.m2 = merged.count, merged.mean, merged.m2
        self.min, self.max = merged.min, merged.max

    @property
    def variance(self):
        """Population variance (0 for fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self.m2 / self.count

    @property
    def stdev(self):
        return math.sqrt(self.variance)

    def _key(self):
        return (self.count, self.mean, self.m2,
                self.min if self.min is not None else 0.0,
                self.max if self.max is not None else 0.0)

    def merge(self, other):
        """Chan et al. parallel merge, bitwise commutative.

        The formula is order-sensitive in float arithmetic, so the two
        operands are first put into a canonical order; swapping the
        arguments therefore produces a bit-identical result.
        """
        if self.count == 0:
            return Moments(other.count, other.mean, other.m2,
                           other.min, other.max)
        if other.count == 0:
            return Moments(self.count, self.mean, self.m2,
                           self.min, self.max)
        a, b = (self, other) if self._key() <= other._key() else (other, self)
        count = a.count + b.count
        delta = b.mean - a.mean
        mean = a.mean + delta * (b.count / count)
        m2 = a.m2 + b.m2 + delta * delta * (a.count * b.count / count)
        return Moments(
            count, mean, m2,
            min(a.min, b.min), max(a.max, b.max),
        )

    def to_dict(self):
        return {"count": self.count, "mean": self.mean, "m2": self.m2,
                "min": self.min, "max": self.max}

    @classmethod
    def from_dict(cls, data):
        return cls(data["count"], data["mean"], data["m2"],
                   data["min"], data["max"])


class Histogram:
    """Fixed-bin histogram with under/overflow buckets (exact merge)."""

    __slots__ = ("lo", "hi", "bins", "underflow", "overflow")

    def __init__(self, lo, hi, nbins, bins=None, underflow=0, overflow=0):
        if not nbins > 0 or not hi > lo:
            raise ValueError("need hi > lo and nbins > 0")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = list(bins) if bins is not None else [0] * nbins
        if len(self.bins) != nbins:
            raise ValueError("bins length {} != nbins {}".format(
                len(self.bins), nbins))
        self.underflow = underflow
        self.overflow = overflow

    def add(self, value, weight=1):
        value = float(value)
        if value < self.lo:
            self.underflow += weight
        elif value >= self.hi:
            self.overflow += weight
        else:
            span = (value - self.lo) / (self.hi - self.lo)
            index = min(int(span * len(self.bins)),
                                 len(self.bins) - 1)
            self.bins[index] += weight

    def add_many(self, values):
        """Count a batch of unit-weight values; exact either way.

        Binning is pure integer counting on top of elementwise float64
        index arithmetic, so the numpy path (vectorised compare +
        ``bincount``) lands every value in the same bin as the scalar
        loop and produces identical counts -- it is an accelerator, not
        an approximation.
        """
        np = _numpy() if len(values) >= _NUMPY_BATCH_MIN else None
        if np is None:
            for value in values:
                self.add(value)
            return
        arr = np.asarray(values, dtype=np.float64)
        under = arr < self.lo
        over = arr >= self.hi
        self.underflow += int(under.sum())
        self.overflow += int(over.sum())
        mid = arr[~(under | over)]
        if mid.size:
            nbins = len(self.bins)
            span = (mid - self.lo) / (self.hi - self.lo)
            index = np.minimum((span * nbins).astype(np.int64), nbins - 1)
            counts = np.bincount(index, minlength=nbins)
            for i, extra in enumerate(counts.tolist()):
                if extra:
                    self.bins[i] += extra

    @property
    def total(self):
        return sum(self.bins) + self.underflow + self.overflow

    def merge(self, other):
        if (other.lo, other.hi, len(other.bins)) != \
                (self.lo, self.hi, len(self.bins)):
            raise ValueError("histogram shapes differ; cannot merge")
        return Histogram(
            self.lo, self.hi, len(self.bins),
            bins=[a + b for a, b in zip(self.bins, other.bins)],
            underflow=self.underflow + other.underflow,
            overflow=self.overflow + other.overflow,
        )

    def to_dict(self):
        return {"lo": self.lo, "hi": self.hi, "bins": list(self.bins),
                "underflow": self.underflow, "overflow": self.overflow}

    @classmethod
    def from_dict(cls, data):
        return cls(data["lo"], data["hi"], len(data["bins"]),
                   bins=data["bins"], underflow=data["underflow"],
                   overflow=data["overflow"])


class QuantileDigest:
    """A small deterministic mergeable quantile sketch.

    Holds at most ``2 * capacity`` weighted points; past that, adjacent
    points (in value order) are pairwise-combined into their weighted
    mean, halving the list. Compaction uses no randomness and depends
    only on the sorted point set, so the digest is deterministic and its
    merge is bitwise commutative (merge = concatenate, sort, compact).
    Quantile error is bounded by the local bucket width -- ample for
    population reporting, tiny on the wire (<= capacity pairs).
    """

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity=128, entries=()):
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.capacity = capacity
        self.entries = [(float(v), float(w)) for v, w in entries]

    def add(self, value, weight=1.0):
        self.entries.append((float(value), float(weight)))
        if len(self.entries) > 2 * self.capacity:
            self._compact()

    def add_many(self, values):
        """Batch-merge fold: sketch the batch, merge it in.

        The batch is sorted and pairwise-halved down to ``capacity``
        weighted points -- the same adjacent-pair weighted-mean step
        :meth:`_compact` uses, with the same odd-tail carry -- then
        folded into the digest exactly as :meth:`merge` would fold
        another digest. Sorting, pairing and weighted means are exact
        elementwise float64 ops over a length-determined tree, so the
        numpy and pure paths produce bit-identical entries.
        """
        n = len(values)
        if n == 0:
            return
        np = _numpy() if n >= _NUMPY_BATCH_MIN else None
        capacity = self.capacity
        if np is not None:
            vals = np.sort(np.asarray(values, dtype=np.float64))
            weights = np.ones(n, dtype=np.float64)
            while vals.shape[0] > capacity:
                odd = vals.shape[0] % 2
                stop = vals.shape[0] - odd or None
                wsum = weights[0:stop:2] + weights[1::2]
                pair = (vals[0:stop:2] * weights[0:stop:2]
                        + vals[1::2] * weights[1::2]) / wsum
                if odd:
                    pair = np.concatenate([pair, vals[-1:]])
                    wsum = np.concatenate([wsum, weights[-1:]])
                vals, weights = pair, wsum
            batch = list(zip(vals.tolist(), weights.tolist()))
        else:
            batch = [(float(value), 1.0) for value in values]
            batch.sort()
            while len(batch) > capacity:
                combined = [
                    ((v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2)
                    for (v1, w1), (v2, w2) in zip(batch[0::2], batch[1::2])
                ]
                if len(batch) % 2:
                    combined.append(batch[-1])
                batch = combined
        self.entries = sorted(self.entries + batch)
        if len(self.entries) > 2 * capacity:
            self._compact()

    def _compact(self):
        self.entries.sort()
        while len(self.entries) > self.capacity:
            combined = []
            pairs = zip(self.entries[::2], self.entries[1::2])
            for (v1, w1), (v2, w2) in pairs:
                weight = w1 + w2
                combined.append(((v1 * w1 + v2 * w2) / weight, weight))
            if len(self.entries) % 2:
                combined.append(self.entries[-1])
            self.entries = combined

    def quantile(self, q):
        """The value at cumulative-weight fraction ``q`` (0..1)."""
        if not self.entries:
            return None
        entries = sorted(self.entries)
        target = min(max(float(q), 0.0), 1.0) \
            * left_sum(w for __, w in entries)
        cumulative = 0.0
        for value, weight in entries:
            cumulative += weight
            if cumulative >= target:
                return value
        return entries[-1][0]

    def merge(self, other):
        if other.capacity != self.capacity:
            raise ValueError("digest capacities differ; cannot merge")
        merged = QuantileDigest(self.capacity,
                                sorted(self.entries + other.entries))
        if len(merged.entries) > 2 * merged.capacity:
            merged._compact()
        return merged

    def to_dict(self):
        return {"capacity": self.capacity,
                "entries": [[v, w] for v, w in sorted(self.entries)]}

    @classmethod
    def from_dict(cls, data):
        return cls(data["capacity"], data["entries"])


#: Histogram bounds per fleet metric: (lo, hi, nbins). Metrics without
#: an entry get DEFAULT_BOUNDS. Fixed up front so every shard bins
#: identically and merges stay exact.
METRIC_BOUNDS = {
    "battery_life_h": (0.0, 240.0, 48),
    "system_power_mw": (0.0, 2000.0, 50),
    "buggy_power_mw": (0.0, 1000.0, 50),
    "waste_reduction_pct": (-100.0, 100.0, 40),
    "disruptions": (0.0, 50.0, 25),
    "deferrals": (0.0, 200.0, 40),
}

DEFAULT_BOUNDS = (0.0, 1000.0, 50)


class MetricSummary:
    """One metric's full accumulator set: moments + histogram + digest."""

    __slots__ = ("name", "moments", "histogram", "digest")

    def __init__(self, name, moments=None, histogram=None, digest=None):
        lo, hi, nbins = METRIC_BOUNDS.get(name, DEFAULT_BOUNDS)
        self.name = name
        self.moments = moments if moments is not None else Moments()
        self.histogram = histogram if histogram is not None \
            else Histogram(lo, hi, nbins)
        self.digest = digest if digest is not None else QuantileDigest()

    def add(self, value):
        self.moments.add(value)
        self.histogram.add(value)
        self.digest.add(value)

    def add_many(self, values):
        np = _numpy() if len(values) >= _NUMPY_BATCH_MIN else None
        if np is not None:
            # One list->array conversion shared by all three
            # accumulators (asarray on an ndarray is a no-copy pass).
            values = np.asarray(values, dtype=np.float64)
        self.moments.add_many(values)
        self.histogram.add_many(values)
        self.digest.add_many(values)

    def merge(self, other):
        return MetricSummary(
            self.name,
            moments=self.moments.merge(other.moments),
            histogram=self.histogram.merge(other.histogram),
            digest=self.digest.merge(other.digest),
        )

    def to_dict(self):
        return {"moments": self.moments.to_dict(),
                "histogram": self.histogram.to_dict(),
                "digest": self.digest.to_dict()}

    @classmethod
    def from_dict(cls, name, data):
        return cls(
            name,
            moments=Moments.from_dict(data["moments"]),
            histogram=Histogram.from_dict(data["histogram"]),
            digest=QuantileDigest.from_dict(data["digest"]),
        )


class FleetStats:
    """Everything one mitigation accumulated across its device-days.

    ``metrics`` maps metric name -> :class:`MetricSummary`;
    ``counters`` maps counter name -> int. Both merge by union, so
    shards that never saw a metric (e.g. no buggy app sampled) still
    merge cleanly.
    """

    __slots__ = ("metrics", "counters")

    def __init__(self, metrics=None, counters=None):
        self.metrics = metrics if metrics is not None else {}
        self.counters = counters if counters is not None else {}

    def observe(self, name, value):
        if name not in self.metrics:
            self.metrics[name] = MetricSummary(name)
        self.metrics[name].add(value)

    def observe_many(self, name, values):
        """Fold one batch of observations via the accumulators'
        batch-merge folds (see the module docstring); the table paths
        call this exactly once per metric per shard, which is what
        makes their reports byte-stable across resume. Accepts a list
        or a 1-D numpy array.

        An empty batch is a no-op -- it must not create the metric,
        or a shard that never saw it would merge differently from one
        that observed nothing.
        """
        if len(values) == 0:
            return
        if name not in self.metrics:
            self.metrics[name] = MetricSummary(name)
        self.metrics[name].add_many(values)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge(self, other):
        metrics = {}
        for name in sorted(set(self.metrics) | set(other.metrics)):
            mine = self.metrics.get(name)
            theirs = other.metrics.get(name)
            if mine is None:
                metrics[name] = MetricSummary.from_dict(
                    name, theirs.to_dict())
            elif theirs is None:
                metrics[name] = MetricSummary.from_dict(name, mine.to_dict())
            else:
                metrics[name] = mine.merge(theirs)
        counters = dict(self.counters)
        for name, amount in other.counters.items():
            counters[name] = counters.get(name, 0) + amount
        return FleetStats(metrics, counters)

    def to_dict(self):
        return {
            "metrics": {name: summary.to_dict()
                        for name, summary in sorted(self.metrics.items())},
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            metrics={name: MetricSummary.from_dict(name, entry)
                     for name, entry in data["metrics"].items()},
            counters=dict(data["counters"]),
        )


def merge_shards(mitigations, shard_stats):
    """Fold shard summaries into one :class:`FleetStats` per mitigation.

    ``shard_stats`` yields, in shard-index order, each shard's
    ``{mitigation: FleetStats dict}`` or ``None`` for a missing shard.
    Merging in that one order is what fixes a report's float bytes, so
    the fleet runner and ``repro watch`` both fold through here.
    Returns ``(merged, missing shard indices)``.
    """
    merged = {name: FleetStats() for name in mitigations}
    missing = []
    for shard_index, stats in enumerate(shard_stats):
        if stats is None:
            missing.append(shard_index)
            continue
        for name, data in stats.items():
            merged[name] = merged[name].merge(FleetStats.from_dict(data))
    return merged, missing


def wilson_interval(successes, trials, z=1.96):
    """Wilson score 95% CI for a binomial rate; (0, 0, 0) on no trials."""
    if trials <= 0:
        return 0.0, 0.0, 0.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return phat, max(0.0, center - margin), \
        min(1.0, center + margin)
