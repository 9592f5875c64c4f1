"""Fig. 13: system power overhead of LeaseOS under five settings (§7.6).

Settings, per the paper: (1) idle, screen off, stock apps only; (2) no
interaction, screen on, popular apps installed; (3) use YouTube; (4) use
10 apps in turn; (5) use 30 apps in turn. Each measured with and without
the lease service; the claim to preserve: overhead < 1%.
"""

from dataclasses import dataclass

from repro.apps.normal.background import Spotify, TrepnProfiler
from repro.apps.normal.interactive import popular_apps
from repro.droid.phone import Phone
from repro.experiments.runner import format_table
from repro.io import left_sum
from repro.mitigation import LeaseOS
from repro.profiling.monsoon import MonsoonMonitor


@dataclass
class Setting:
    key: str
    label: str
    app_count: int
    screen_on: bool
    active_uids: object  # None (no interaction) or "all" / int count
    minutes: float = 20.0


SETTINGS = [
    Setting("idle", "Idle (screen off)", 0, False, None),
    Setting("no-interaction", "No interaction (screen on, apps idle)",
            10, True, None),
    Setting("youtube", "Use YouTube", 1, True, 1),
    Setting("apps-10", "Use 10 apps in turn", 10, True, 10),
    Setting("apps-30", "Use 30 apps in turn", 30, True, 30),
]


def _run_setting(setting, with_lease, seed):
    mitigation = LeaseOS() if with_lease else None
    phone = Phone(seed=seed, mitigation=mitigation)
    apps = popular_apps(setting.app_count) if setting.app_count else []
    for app in apps:
        phone.install(app)
    if setting.app_count >= 10:
        phone.install(Spotify())
        phone.install(TrepnProfiler())
    if setting.screen_on:
        phone.screen_on()
    if setting.active_uids is not None and apps:
        count = min(setting.active_uids, len(apps))
        uids = [a.uid for a in apps[:count]]
        phone.sim.spawn(
            phone.user.active_session(uids, setting.minutes * 60.0),
            name="user.active",
        )
    monsoon = MonsoonMonitor(phone)
    mark = monsoon.mark()
    phone.run_for(minutes=setting.minutes)
    return monsoon.average_power_mw(mark)


def run(settings=None, seed=31, repeats=3):
    """Returns rows: (setting, mean mW w/o lease, mean mW w/ lease)."""
    settings = settings or SETTINGS
    rows = []
    for setting in settings:
        without = [
            _run_setting(setting, False, seed + i) for i in range(repeats)
        ]
        with_lease = [
            _run_setting(setting, True, seed + i) for i in range(repeats)
        ]
        rows.append((
            setting,
            left_sum(without) / len(without),
            left_sum(with_lease) / len(with_lease),
        ))
    return rows


def overhead_pct(rows):
    return {
        setting.key: 100.0 * (lease - base) / base if base > 0 else 0.0
        for setting, base, lease in rows
    }


def render(rows):
    table_rows = []
    for setting, base, lease in rows:
        pct = 100.0 * (lease - base) / base if base > 0 else 0.0
        table_rows.append([setting.label, base, lease,
                           "{:+.2f}%".format(pct)])
    return format_table(
        ["setting", "w/o lease (mW)", "w/ lease (mW)", "overhead"],
        table_rows,
        title="Fig. 13: system power with and without LeaseOS "
              "(paper: < 1% overhead)",
    )


def main():
    print(render(run()))


if __name__ == "__main__":
    main()
