"""§2.3's central argument, as one table: holding time misleads.

"A long absolute holding time for a resource could be merely an artifact
of variations in different mobile systems or legitimate heavy resource
usage. Using it as a classifier can flag a normal app as misbehaving."

This harness runs three buggy long-holders (Torch, Kontalk, K-9) and the
three heavy-but-normal apps the paper names (Pandora, Transdroid, Flym)
for 20 minutes each. All six hold their wakelocks essentially 100% of
the time — a holding-time classifier cannot tell them apart. The
utilitarian metrics can: the table shows per-app holding time (nearly
identical), utilization, utility, LeaseOS's verdict, and what a
holding-time throttle (DefDroid) would have done to each.
"""

from dataclasses import dataclass

from repro.apps.buggy.cpu_apps import K9Mail, Kontalk, Torch
from repro.apps.normal.heavy_holders import Flym, Pandora, Transdroid
from repro.droid.phone import Phone
from repro.experiments.runner import format_table
from repro.io import left_sum
from repro.mitigation import DefDroid, LeaseOS

SUBJECTS = (
    ("Torch (buggy)", Torch, dict()),
    ("Kontalk (buggy)", Kontalk, dict()),
    ("K-9 (buggy)", lambda: K9Mail(scenario="disconnected"),
     dict(connected=False)),
    ("Pandora (normal)", Pandora, dict()),
    ("Transdroid (normal)", Transdroid, dict()),
    ("Flym (normal)", Flym, dict()),
)


@dataclass
class SubjectRow:
    name: str
    hold_fraction: float  # honoured holding / wall time (vanilla)
    utilization: float  # last-term lease utilization
    utility: float  # last-term utility score
    lease_deferrals: int
    defdroid_throttled: bool


def _vanilla_hold_fraction(factory, phone_kwargs, minutes, seed):
    phone = Phone(seed=seed, ambient=False, **phone_kwargs)
    app = phone.install(factory())
    phone.run_for(minutes=minutes)
    phone.power.settle_stats()
    held = left_sum(r.active_time for r in phone.power.records
                    if r.uid == app.uid)
    return held / phone.sim.now


def run(minutes=20.0, seed=91):
    rows = []
    for name, factory, phone_kwargs in SUBJECTS:
        hold = _vanilla_hold_fraction(factory, phone_kwargs, minutes, seed)

        mitigation = LeaseOS()
        phone = Phone(seed=seed, mitigation=mitigation, ambient=False,
                      **phone_kwargs)
        app = phone.install(factory())
        phone.run_for(minutes=minutes)
        leases = mitigation.manager.leases_for(app.uid)
        deferrals = sum(l.deferral_count for l in leases)
        judged = [l for l in leases if l.history]
        if judged:
            last = judged[0].history[-1].metrics
            utilization, utility = last.utilization, last.utility_score
        else:
            utilization, utility = float("nan"), float("nan")

        defdroid = DefDroid()
        phone = Phone(seed=seed, mitigation=defdroid, ambient=False,
                      **phone_kwargs)
        phone.install(factory())
        phone.run_for(minutes=minutes)

        rows.append(SubjectRow(
            name=name,
            hold_fraction=hold,
            utilization=utilization,
            utility=utility,
            lease_deferrals=deferrals,
            defdroid_throttled=defdroid.throttle_events > 0,
        ))
    return rows


def render(rows):
    table_rows = [
        [r.name,
         "{:.0%}".format(r.hold_fraction),
         "{:.2f}".format(r.utilization),
         "{:.0f}".format(r.utility),
         "deferred" if r.lease_deferrals else "renewed",
         "throttled" if r.defdroid_throttled else "spared"]
        for r in rows
    ]
    table = format_table(
        ["app", "hold time", "utilization", "utility", "LeaseOS",
         "holding-time throttle"],
        table_rows,
        title="2.3: holding time cannot separate bugs from heavy use; "
              "utility can",
    )
    note = ("\nEvery subject holds ~100% of the time. The holding-time "
            "throttle hits all six;\nthe utilitarian lease defers "
            "exactly the three bugs.")
    return table + note


def main():
    print(render(run()))


if __name__ == "__main__":
    main()
