"""Fig. 12: waste-reduction ratio vs λ for intermittent misbehaviour (§7.5).

The paper's method: generate 1000 misbehaviour slices and 1000 normal
slices, each of random length in (0, 10 min]; a combined trace is one
test case. Generate 1000 test cases, evaluate the reduction ratio of
wasted (misbehaving) holding time under λ in 1..5, and average. Paper
values: λ=1 -> 0.49, 2 -> 0.66, 3 -> 0.74, 4 -> 0.78, 5 -> 0.82 --
tracking the §5.1 closed form λ/(1+λ) with a small intermittency loss.

We implement the same evaluation with an analytic walk of the lease
state machine over a slice trace (fast enough for the full 1000x1000
setup), plus a simulator-backed cross-check used by the tests.
"""

import bisect
import random

from repro.apps.synthetic import random_slices
from repro.core.policy import waste_reduction_ratio
from repro.experiments.grid import FuncSpec, GridRunner
from repro.experiments.runner import format_table
from repro.io import left_sum

PAPER_FIG12 = {1: 0.49, 2: 0.66, 3: 0.74, 4: 0.78, 5: 0.82}


class _Trace:
    """Slice trace with prefix sums for O(log n) misbehaviour queries."""

    def __init__(self, slices):
        self.bounds = [0.0]
        self.waste_prefix = [0.0]
        for kind, duration in slices:
            self.bounds.append(self.bounds[-1] + duration)
            waste = duration if kind == "misbehavior" else 0.0
            self.waste_prefix.append(self.waste_prefix[-1] + waste)
        self.total = self.bounds[-1]

    def _waste_before(self, t):
        index = bisect.bisect_right(self.bounds, t) - 1
        index = min(index, len(self.bounds) - 2)
        waste = self.waste_prefix[index]
        # partial slice [bounds[index], t)
        if self.waste_prefix[index + 1] > self.waste_prefix[index]:
            waste += max(0.0, min(t, self.bounds[index + 1])
                         - self.bounds[index])
        return waste

    def misbehavior_in(self, start, end):
        """Seconds of misbehaviour-slice time inside [start, end)."""
        if end <= start:
            return 0.0
        return self._waste_before(end) - self._waste_before(start)


def _misbehavior_in(slices, start, end):
    """Compatibility helper for one-off queries (tests)."""
    return _Trace(slices).misbehavior_in(start, end)


def trace_reduction(slices, term_s, deferral_s):
    """Analytic lease walk over a slice trace.

    Time alternates between ACTIVE terms (resource honoured; holding time
    accrues) and DEFERRED intervals (revoked; waste avoided). A term is
    judged misbehaving if most of its window lay in misbehaviour slices.
    Returns the reduction ratio of wasted holding time.
    """
    trace = slices if isinstance(slices, _Trace) else _Trace(slices)
    total = trace.total
    total_waste = trace.misbehavior_in(0.0, total)
    if total_waste <= 0:
        return 0.0
    incurred = 0.0
    clock = 0.0
    while clock < total:
        term_end = min(clock + term_s, total)
        waste = trace.misbehavior_in(clock, term_end)
        incurred += waste
        misbehaving = waste > 0.5 * (term_end - clock)
        clock = term_end
        if misbehaving:
            clock = min(clock + deferral_s, total)  # revoked: waste skipped
    return 1.0 - incurred / total_waste


def _lambda_job(lam, cases, slices_per_case, term_s, seed, max_slice_s):
    """One λ's average reduction ratio (a grid job; rebuilds the seeded
    trace set worker-locally, so every λ walks identical traces)."""
    rng = random.Random(seed)
    traces = [_Trace(random_slices(rng, slices_per_case, max_slice_s))
              for __ in range(cases)]
    deferral = lam * term_s
    ratios = [trace_reduction(trace, term_s, deferral)
              for trace in traces]
    return left_sum(ratios) / len(ratios)


def run(cases=200, slices_per_case=200, lams=(1, 2, 3, 4, 5),
        term_s=5.0, seed=2019, max_slice_s=600.0, runner=None):
    """Average reduction ratio per λ. Returns {λ: ratio}.

    Defaults are scaled down from the paper's 1000x1000 (the estimator
    concentrates quickly, and the 5 s term makes the full-size walk
    expensive in pure Python); pass ``cases=1000,
    slices_per_case=1000`` to run the paper-size experiment.
    """
    runner = runner if runner is not None else GridRunner()
    specs = [
        FuncSpec.make(_lambda_job, lam=lam, cases=cases,
                      slices_per_case=slices_per_case, term_s=term_s,
                      seed=seed, max_slice_s=max_slice_s)
        for lam in lams
    ]
    ratios = runner.run(specs)
    return dict(zip(lams, ratios))


def render(results):
    rows = []
    for lam in sorted(results):
        rows.append([
            lam,
            "{:.3f}".format(results[lam]),
            "{:.2f}".format(PAPER_FIG12.get(lam, float("nan"))),
            "{:.3f}".format(waste_reduction_ratio(lam)),
        ])
    return format_table(
        ["lambda", "reduction", "paper", "closed form l/(1+l)"],
        rows,
        title="Fig. 12: reduction ratio of wasted power vs lambda",
    )


def main():
    print(render(run()))


if __name__ == "__main__":
    main()
