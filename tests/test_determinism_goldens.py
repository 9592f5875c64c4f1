"""Byte-identical output goldens across the kernel overhaul.

Every optimisation in the hot-loop PR (lazy deletion + compaction,
timer reuse, O(1) power totals, event-driven samplers, dirty-flag
governor scans, lease-GC early-out) claims to be *observationally
exact*: not "close", identical. These tests pin sha256 digests of
formatted experiment output captured on the seed engine, so any future
"optimisation" that perturbs float summation order, dispatch order, or
sampling cadence fails loudly instead of silently drifting the paper's
numbers.

If a digest changes because of an *intentional* semantic change, re-pin
it in the same commit and call that out in the commit message.
"""

import hashlib

from repro.apps.buggy import BUGGY_CASES
from repro.apps.normal.background import Haven, RunKeeper, Spotify
from repro.apps.normal.interactive import popular_apps
from repro.droid.phone import Phone
from repro.experiments import characterization, overhead, table5
from repro.experiments.runner import run_case
from repro.mitigation import BatterySaver, DefDroid, Doze, LeaseOS, TimedThrottle


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_fig1_betterweather():
    text = "\n".join(
        "{:.1f},{:.6f},{:.6f}".format(r.time, r.gps_search_time, r.power_mw)
        for r in characterization.fig1_betterweather())
    assert _digest(text) == (
        "cc8213a7a1cc6b0e6d208959750b2b1c4bb5c0487eb1ac37ef1b5f9c65aa922a")


def test_golden_fig2_k9_bad_server():
    text = "\n".join(
        "{:.1f},{:.6f},{:.6f},{:.6f}".format(
            r.time, r.wakelock_time, r.cpu_time, r.power_mw)
        for r in characterization.fig2_k9_bad_server())
    assert _digest(text) == (
        "f7f335029a5ee48c79e427a02ea6faff8f06e0a71b596b36c6ec862d94e0a54d")


def test_golden_table5_rendered():
    text = table5.render(table5.run(cases=BUGGY_CASES[:6], minutes=10.0))
    assert _digest(text) == (
        "6828ec214efe4c0c58b6e31856b86795bc12a09a839f2f87433830e443e74ed9")


def test_golden_overhead_sweep():
    rows = overhead.run(settings=overhead.SETTINGS[:3], repeats=1)
    text = "\n".join(
        "{}|{:.9f}|{:.9f}".format(s.key, a, b) for s, a, b in rows)
    assert _digest(text) == (
        "2d71423a42a6f55724074713ffd07c188864de65cbe4110742586cdd397e6a47")


def test_golden_mitigation_scan_matrix():
    # Exercises every dirty-flag scan path: Doze (plain + aggressive),
    # DefDroid's per-service thresholds, TimedThrottle, BatterySaver.
    factories = (Doze, lambda: Doze(aggressive=True), DefDroid,
                 TimedThrottle, BatterySaver)
    lines = []
    for factory in factories:
        for case in BUGGY_CASES[:4]:
            r = run_case(case, factory, minutes=20.0)
            lines.append("{}|{}|{:.9f}|{:.9f}|{}".format(
                r.case_key, r.mitigation, r.app_power_mw,
                r.system_power_mw, r.disruptions))
    assert _digest("\n".join(lines)) == (
        "4a01df1f0fcf19a2c7a081e0c3fda8733f0e50c520c7085ea8767ff5662fe797")


def test_golden_six_hour_leaseos_soak():
    # A busy mixed workload: interactive fleet with touch-driven
    # sessions plus three background apps, under full lease management.
    # Covers the GC early-out, the INACTIVE counter, and the running
    # power total over tens of thousands of rail changes.
    mit = LeaseOS()
    phone = Phone(seed=71, mitigation=mit, gps_quality=0.95,
                  movement_mps=1.0)
    fleet = popular_apps(6)
    for app in fleet:
        phone.install(app)
    bg = [phone.install(Spotify()), phone.install(Haven()),
          phone.install(RunKeeper())]
    uids = [a.uid for a in fleet]

    def day():
        while True:
            for __ in range(3):
                yield from phone.user.active_session(
                    uids, 30 * 60.0, touch_interval=10.0)
                yield from phone.user.idle_session(7 * 3600.0 / 3)

    phone.sim.spawn(day(), name="soak.user")
    phone.run_for(hours=6.0)
    text = "{:.9f}|{}|{}|{}|{}".format(
        phone.monitor.ledger.total_mj(), mit.manager.created_total,
        mit.manager.op_counts["update"], mit.manager.gc_removed,
        sum(len(a.disruptions) for a in fleet + bg))
    assert _digest(text) == (
        "58c76fe325f0db1c57e21b430faa40f849c3c34525764d89592090e913f6c794")


def test_golden_sampled_fault_plan():
    # Fault plans are drawn from random.Random(seed) alone; a seed number
    # in a CI log must describe the same chaos on every machine and
    # Python version. Pins the JSON of one sampled plan.
    from repro.faults.plan import FaultPlan

    text = FaultPlan.sample(1, horizon_s=3600.0).to_json()
    assert _digest(text) == (
        "8afafc46bce9cc3d0cb41a2fde009ebbfb346a419440f9c6e08987ee2ee3f748")


def test_golden_fleet_report(tmp_path):
    # The whole fleet pipeline -- population sampling, device-day
    # simulation (with chaos armed on half the fleet), shard folding,
    # checkpointed merge, canonical report JSON -- must be bit-identical
    # across processes, machines and Python versions. This is the same
    # guarantee the fleet-smoke CI job checks via kill-and-resume.
    from repro.experiments.grid import GridRunner
    from repro.fleet import (
        FleetRunner,
        PopulationSpec,
        build_report,
        report_json,
    )

    population = PopulationSpec(
        seed=77, devices=6, shard_size=2, minutes=3.0,
        mitigations=("vanilla", "leaseos"), chaos_rate=0.5)
    runner = FleetRunner(population, runner=GridRunner(jobs=1, cache=False),
                         checkpoint_dir=str(tmp_path / "ck"))
    text = report_json(build_report(population, runner.run()))
    assert _digest(text) == (
        "6c0ed3f4f98a7fdb33c9cdcb6a4b5744b525ac256a4731394dbc707e43ce5776")


def test_golden_fleet_report_vector(tmp_path):
    # The table-replay pipeline end to end: probe-table build, columnar
    # composition of mixed devices and of an all-buggy (foreground)
    # device, per-device kernel fallback for the two chaos-armed
    # devices, the shared shard fold, checkpointed merge and canonical
    # report JSON. The digest is the same on the numpy and pure-python
    # backends (REPRO_FASTPATH_NUMPY=0), so the CI pure-python leg
    # checks that parity too.
    from repro.experiments.grid import GridRunner
    from repro.fleet import (
        FleetRunner,
        PopulationSpec,
        build_report,
        report_json,
    )

    population = PopulationSpec(
        seed=6, devices=8, shard_size=4, minutes=2.0,
        mitigations=("vanilla", "leaseos"), chaos_rate=0.25,
        buggy_prevalence=0.5)
    runner = FleetRunner(population, runner=GridRunner(jobs=1, cache=False),
                         mode="vector", checkpoint_dir=str(tmp_path / "ck"))
    merged = runner.run()
    for name in population.mitigations:
        counters = merged[name].counters
        assert counters["vector_devices"] == 6
        assert counters["fastpath_fallbacks"] == 2
        assert counters["faults_applied"] > 0
    text = report_json(build_report(population, merged))
    assert _digest(text) == (
        "2501db1dcea20f3718629989abb6b0a9716297424a0aa27f1b81e6daf7dfc4eb")


def test_golden_chaos_case_fingerprint():
    # Fault injection must be exactly deterministic: the same (scenario,
    # fault plan, seed) produces a bit-identical run. The fingerprint
    # hashes every observable scalar of the perturbed simulation.
    from repro.experiments.chaos import run_chaos_case
    from repro.faults.plan import FaultPlan

    kwargs = dict(case_key="torch", mitigation="leaseos", minutes=5.0,
                  seed=7, plan_json=FaultPlan.sample(1, 300.0).to_json())
    first = run_chaos_case(**kwargs)
    second = run_chaos_case(**kwargs)
    assert first == second  # in-process repeatability of the full result
    assert first["violations"] == []
    assert first["faults_applied"] > 0
    assert first["fingerprint"] == (
        "8605d6cadbf14bc7814b49eb8db7e20265a3aa9167abb39af082873a0a6aa57b")


def test_golden_kernel_scenarios_law():
    # The kernel-scenarios benchmark's law (perfbench's population at
    # seed 2019), devices 0-11 under vanilla and leaseos: 24 kernel
    # device-days with GPS, sensor, audio, Bluetooth and K-9 apps,
    # generated scenario apps and screen-off sessions. Every summary
    # float is pinned, so any kernel change that moves one settle
    # point, one summation order or one event fails here. Devices 2,
    # 3, 6 and 11 carry three to five buggy or scenario apps, whose
    # summed power is where a compensated ``sum()`` (Python 3.12+)
    # would move the last digits.
    from repro.fleet.population import PopulationSpec
    from repro.fleet.shard import simulate_device_day
    from repro.io import canonical_json
    from repro.scenarios.catalog import default_catalog

    population = PopulationSpec(
        seed=2019, devices=300, minutes=15, shard_size=50,
        catalog_json=default_catalog(2019).to_json(),
        scenario_prevalence=0.2)
    rows = [simulate_device_day(population.device(index), mitigation,
                                population.minutes)
            for index in range(12) for mitigation in ("vanilla", "leaseos")]
    assert [row["buggy_installed"] for row in rows[4:8] + rows[12:14]
            + rows[22:24]] == [4, 4, 4, 4, 3, 3, 5, 5]
    assert _digest(canonical_json(rows)) == (
        "dc965b6487adc349cac4c217c4034afc20e53abce5f1089be286e3628cb70631")
