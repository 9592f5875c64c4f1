"""Per-day summary extraction: one simulated device-day, flat scalars.

Both device-day executors -- the discrete-event kernel path in
:mod:`repro.fleet.shard` and the table probes in
:mod:`repro.fleet.fastpath` -- must describe a finished day with the
*same* metric vocabulary, or the fast path could never be validated
against the kernel. This module is that shared vocabulary: given a
phone that has run its day, :func:`day_summary` reads every population
metric off it (power split, projected battery life, disruptions, lease
traffic, classifier outcomes) and returns a flat JSON-scalar dict.

Nothing here simulates; the hook only *extracts*. It lives in
:mod:`repro.sim` because it is the boundary between the event kernel
and every aggregation layer above it.
"""

from repro.io import left_sum

#: Battery-life projections are clamped to two weeks: a near-idle day
#: divides by a tiny power draw and the resulting "years of battery"
#: would dominate any population mean it is folded into.
MAX_BATTERY_LIFE_H = 24.0 * 14


def day_summary(phone, mark, buggy_uids=(), interactive_uids=()):
    """Read one finished device-day off ``phone`` as flat scalars.

    ``mark`` is the :meth:`~repro.droid.phone.Phone.energy_mark` taken
    before the day ran; ``buggy_uids`` / ``interactive_uids`` attribute
    per-app power and classifier outcomes. The returned dict carries
    only JSON scalars, so it crosses process boundaries and folds into
    :class:`~repro.fleet.stats.FleetStats` untouched.
    """
    system_mw = phone.power_since(mark)
    buggy_mw = left_sum(phone.power_since(mark, uid) for uid in buggy_uids)
    summary = {
        "system_power_mw": system_mw,
        "buggy_power_mw": buggy_mw,
        "battery_life_h": battery_life_h(phone.battery.capacity_mj,
                                         system_mw),
        "disruptions": sum(len(app.disruptions)
                           for app in phone.apps.values()),
        "buggy_installed": len(buggy_uids),
        "normal_installed": len(interactive_uids),
        "renewals": 0, "deferrals": 0, "revocations": 0,
        "fp_apps": 0, "fn_apps": 0,
    }
    manager = phone.lease_manager
    if manager is not None:
        summary["renewals"] = manager.op_counts["renew"]
        summary["deferrals"] = sum(
            1 for d in manager.decisions if d.action == "defer")
        summary["revocations"] = manager.op_counts["remove"] \
            + manager.gc_removed
        flagged = {d.lease.uid for d in manager.decisions
                   if d.behavior.is_misbehavior}
        summary["fp_apps"] = sum(
            1 for uid in interactive_uids if uid in flagged)
        summary["fn_apps"] = sum(
            1 for uid in buggy_uids if uid not in flagged)
    return summary


def battery_life_h(capacity_mj, system_power_mw):
    """Projected battery life at a constant draw, clamped to two weeks.

    The same projection the kernel path reports, exposed so the fast
    path computes battery life from its modelled power with the
    identical formula and clamp.
    """
    if system_power_mw <= 0:
        return MAX_BATTERY_LIFE_H
    return min((capacity_mj / system_power_mw) / 3600.0,
               MAX_BATTERY_LIFE_H)
