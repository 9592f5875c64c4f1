"""Columnar vector engine: sampled columns, exact composition, fallbacks.

The contract under test is strong: for every composed device the
columnar composition must *equal* per-device ``fast_summary`` (same
IEEE-754 op sequence) on both backends, the pure-python backend must
match the numpy backend byte for byte, and every fallback tier (fault
plans, missing probes, non-finite compositions) must route through the
kernel with the guard's exact reason strings, folding the kernel's own
device-day values.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.grid import GridRunner
from repro.fleet import fastpath, shard, vector
from repro.fleet.fastpath import (
    JITTER,
    TransitionTable,
    _device_guard,
    build_table,
    case_env_json,
    fast_summary,
    jitter_unit,
)
from repro.fleet.population import PopulationSpec
from repro.fleet.shard import (
    FOLD_COLUMNS,
    FleetRunner,
    fold_shard,
    simulate_device_day,
)
from repro.fleet.stats import FleetStats, numpy_backend
from repro.fleet.vector import (
    _jitter_factors,
    _ShardClasses,
    compose_shard,
    replay_shard_vector,
)

#: Small-but-real mixed population; its table is built once through a
#: module-scoped cached grid runner (the test_fastpath idiom).
POP = PopulationSpec(seed=31, devices=10, shard_size=4, minutes=2.0,
                     mitigations=("vanilla", "leaseos"))

#: Same law, every device carrying an armed fault plan.
CHAOS = PopulationSpec(seed=31, devices=3, shard_size=3, minutes=2.0,
                       mitigations=("vanilla", "leaseos"),
                       chaos_rate=1.0)

#: All-buggy devices: exercises the foreground (no-normal-apps)
#: composition branch.
FG = PopulationSpec(seed=31, devices=4, shard_size=4, minutes=2.0,
                    mitigations=("vanilla", "leaseos"),
                    buggy_prevalence=1.0)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    return GridRunner(jobs=1,
                      cache=str(tmp_path_factory.mktemp("grid-cache")))


@pytest.fixture(scope="module")
def table(grid):
    return build_table(POP, runner=grid)


@pytest.fixture(scope="module")
def fg_table(grid):
    return build_table(FG, runner=grid)


def _stats_dicts(stats):
    return json.dumps({name: fold.to_dict()
                       for name, fold in stats.items()}, sort_keys=True)


def _backends():
    """Every composition backend available here: numpy (if importable)
    and pure python."""
    np = numpy_backend()
    return (None,) if np is None else (np, None)


def _assert_columns_match_fast_summary(population, table, start=None,
                                       stop=None):
    """Composed columns equal per-device ``fast_summary`` exactly, and
    every other row is a fallback carrying the guard's reason; on
    every backend. Returns the fallback map."""
    if start is None:
        start, stop = 0, population.devices
    columns = population.sample_columns(start, stop)
    fallbacks = []
    for np in _backends():
        classes = _ShardClasses(table, population.mitigations)
        comp = compose_shard(population, columns, classes, np=np)
        assert sorted(comp.vector_rows + list(comp.fallback)) \
            == list(range(len(columns)))
        for row in range(len(columns)):
            device = columns.spec(row, population)
            reason = _device_guard(device, population.mitigations, table)
            days = {} if reason else {
                m: fast_summary(device, m, table, population.minutes)
                for m in population.mitigations}
            if None in days.values():
                reason = "non-finite-composition"
            assert comp.fallback.get(row) == reason
            if reason is not None:
                continue
            for m, want in days.items():
                got = {metric: comp.data[m][metric][row]
                       for metric in FOLD_COLUMNS}
                assert got == {metric: want[metric]
                               for metric in FOLD_COLUMNS}
        fallbacks.append(comp.fallback)
    assert all(fallback == fallbacks[0] for fallback in fallbacks)
    return fallbacks[0]


def _oracle_stats(population, table, start, stop):
    """The replay's expected shard stats, from the oracles alone: each
    device's ``fast_summary`` days, or its kernel
    ``simulate_device_day`` days where the guard (or the composition)
    rejects it, through the shared fold, plus the engine counters."""
    devices = [population.device(index) for index in range(start, stop)]
    columns = {m: {metric: [] for metric in FOLD_COLUMNS}
               for m in population.mitigations}
    fallbacks = 0
    for device in devices:
        days = {}
        if _device_guard(device, population.mitigations, table) is None:
            days = {m: fast_summary(device, m, table, population.minutes)
                    for m in population.mitigations}
        if not days or None in days.values():
            fallbacks += 1
            days = {m: simulate_device_day(device, m, population.minutes)
                    for m in population.mitigations}
        for m, day in days.items():
            for metric in FOLD_COLUMNS:
                columns[m][metric].append(day[metric])
    stats = {m: FleetStats() for m in population.mitigations}
    fold_shard(stats, columns, [d.normal_apps for d in devices],
               [d.buggy_apps for d in devices])
    for fold in stats.values():
        fold.count("fastpath_devices", len(devices))
        if fallbacks:
            fold.count("fastpath_fallbacks", fallbacks)
        fold.count("vector_devices", len(devices) - fallbacks)
    return stats


# -- batched sampling ----------------------------------------------------------

def test_sample_columns_records_fault_arming_without_plans():
    columns = CHAOS.sample_columns(0, CHAOS.devices)
    assert all(columns.has_fault)
    # The plan JSON itself is only sampled on materialisation.
    spec = columns.spec(0, CHAOS)
    assert spec.fault_plan_json


def test_jitter_factors_bitwise_across_backends():
    np = numpy_backend()
    columns = POP.sample_columns(0, POP.devices)
    rows = list(range(len(columns)))
    pure = _jitter_factors(columns, rows, np=None)
    expected = [1.0 + JITTER
                * (2.0 * jitter_unit(columns.sub_seed[row]) - 1.0)
                for row in rows]
    assert pure == expected
    if np is not None:
        vec = _jitter_factors(columns, rows, np=np)
        assert [float(v) for v in vec] == expected


# -- exact composition ---------------------------------------------------------

def test_vector_replay_matches_fast_bitwise(table):
    assert _assert_columns_match_fast_summary(POP, table) == {}
    shard._WARNED.clear()
    vec_stats, crashes = replay_shard_vector(POP, 0, POP.devices, table)
    assert crashes == []
    assert _stats_dicts(vec_stats) \
        == _stats_dicts(_oracle_stats(POP, table, 0, POP.devices))
    for name in POP.mitigations:
        counters = vec_stats[name].counters
        assert counters["vector_devices"] == POP.devices
        assert counters.get("fastpath_fallbacks", 0) == 0


def test_all_buggy_population_composes_columnar(fg_table):
    assert _assert_columns_match_fast_summary(FG, fg_table) == {}
    shard._WARNED.clear()
    vec_stats, __ = replay_shard_vector(FG, 0, FG.devices, fg_table)
    for name in FG.mitigations:
        assert vec_stats[name].counters["vector_devices"] == FG.devices


def test_pure_python_backend_is_byte_identical(table, monkeypatch):
    shard._WARNED.clear()
    with_numpy, __ = replay_shard_vector(POP, 0, POP.devices, table)
    monkeypatch.setenv("REPRO_FASTPATH_NUMPY", "0")
    shard._WARNED.clear()
    pure, __ = replay_shard_vector(POP, 0, POP.devices, table)
    assert _stats_dicts(with_numpy) == _stats_dicts(pure)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_any_shard_range_replays_identically(table, data):
    start = data.draw(st.integers(0, POP.devices - 1))
    stop = data.draw(st.integers(start + 1, POP.devices))
    _assert_columns_match_fast_summary(POP, table, start, stop)


# -- classes shared across shards ----------------------------------------------

def _replay_stats(population, table, shard_index):
    """One shard's per-mitigation ``FleetStats.to_dict()``."""
    start, stop = population.shard_range(shard_index)
    shard._WARNED.clear()
    stats, __ = replay_shard_vector(population, start, stop, table)
    return {name: fold.to_dict() for name, fold in stats.items()}


@pytest.mark.parametrize("use_numpy", [True, False],
                         ids=["numpy", "pure-python"])
def test_shared_classes_replay_as_a_lone_shard_would(table, monkeypatch,
                                                     use_numpy):
    if not use_numpy:
        monkeypatch.setenv("REPRO_FASTPATH_NUMPY", "0")
    elif numpy_backend() is None:
        pytest.skip("numpy is not installed")
    device = POP.device(0)
    doubled_key = TransitionTable.entry_key(
        "base", "", device.profile, "leaseos", "active",
        case_env_json(device.buggy_apps))
    vanilla_only = dataclasses.replace(POP, mitigations=("vanilla",))
    shards = range(POP.shard_count)
    assert len(shards) == 3

    def fresh_runs():
        """``{run: (population, table)}`` over fresh copies of the table
        and of its doubled-probe twin, so every order below starts
        from empty resolvers."""
        plain = TransitionTable.from_json(table.to_json())
        doubled = TransitionTable.from_json(table.to_json())
        entry = doubled.entries[doubled_key]
        doubled.entries[doubled_key] = dict(
            entry, system_power_mw=2 * entry["system_power_mw"])
        return {"plain": (POP, plain), "doubled": (POP, doubled),
                "vanilla": (vanilla_only, plain)}

    # Each shard replayed alone, with a fresh resolver.
    runs = fresh_runs()
    with monkeypatch.context() as patch:
        patch.setattr(vector, "_shard_classes", _ShardClasses)
        lone = {(run, index): _replay_stats(*runs[run], index)
                for run in runs for index in shards}
    # The doubled probe reaches the second table's shards, and only
    # under its own mitigation.
    assert lone["doubled", 0]["vanilla"] == lone["plain", 0]["vanilla"]
    assert lone["doubled", 0]["leaseos"] != lone["plain", 0]["leaseos"]

    orders = {
        "forward": [("plain", index) for index in shards],
        "reverse": [("plain", index) for index in reversed(shards)],
        "interleaved": [(run, index) for index in shards
                        for run in ("plain", "doubled", "vanilla")],
    }
    for name, order in orders.items():
        runs = fresh_runs()
        for run, index in order:
            assert _replay_stats(*runs[run], index) == lone[run, index], \
                (name, run, index)
        # One resolver per table and mitigation tuple served them all.
        resolvers = vector._CLASSES[runs["plain"][1]]
        assert len(resolvers) == (2 if name == "interleaved" else 1)
        assert resolvers[POP.mitigations].base.size > 0


# -- fallback tiers ------------------------------------------------------------

def test_fault_plans_route_every_device_to_kernel(table, capsys):
    shard._WARNED.clear()
    vec_stats, __ = replay_shard_vector(CHAOS, 0, CHAOS.devices, table)
    for name in CHAOS.mitigations:
        counters = vec_stats[name].counters
        assert counters["vector_devices"] == 0
        assert counters["fastpath_fallbacks"] == CHAOS.devices
    err = capsys.readouterr().err
    assert err.count("fault-plan-armed") == 1  # warned once, not 3x
    replay_shard_vector(CHAOS, 0, CHAOS.devices, table)
    assert "fault-plan-armed" not in capsys.readouterr().err
    FleetRunner(CHAOS, runner=GridRunner(jobs=1))  # a new run warns again
    replay_shard_vector(CHAOS, 0, CHAOS.devices, table)
    assert capsys.readouterr().err.count("fault-plan-armed") == 1


def test_chaos_replay_folds_kernel_days_bitwise(table):
    # Every CHAOS device falls back: the replay folds the kernel's own
    # simulate_device_day values, one batch per metric, bit for bit.
    shard._WARNED.clear()
    vec_stats, __ = replay_shard_vector(CHAOS, 0, CHAOS.devices, table)
    assert _stats_dicts(vec_stats) \
        == _stats_dicts(_oracle_stats(CHAOS, table, 0, CHAOS.devices))


def test_missing_probes_fall_back_per_device(table):
    # Cripple the table: every probe of device 0's first normal app
    # disappears, so exactly the devices carrying that app fall back
    # (with the guard's missing-probe reason) while the rest stay
    # columnar -- composed rows still equal fast_summary, fallback rows
    # fold the kernel's own days.
    crippled = fastpath.TransitionTable.from_json(table.to_json())
    victim = POP.device(0).normal_apps[0]
    dropped = [key for key in crippled.entries
               if key.startswith("normal|{}|".format(victim))]
    assert dropped
    for key in dropped:
        del crippled.entries[key]
    fallback = _assert_columns_match_fast_summary(POP, crippled)
    assert all(reason.startswith("missing-probe:normal|{}|".format(
        victim)) for reason in fallback.values())
    shard._WARNED.clear()
    vec_stats, __ = replay_shard_vector(POP, 0, POP.devices, crippled)
    assert _stats_dicts(vec_stats) \
        == _stats_dicts(_oracle_stats(POP, crippled, 0, POP.devices))
    carriers = sum(1 for index in range(POP.devices)
                   if victim in POP.device(index).normal_apps)
    for name in POP.mitigations:
        counters = vec_stats[name].counters
        assert counters["fastpath_fallbacks"] == carriers
        assert counters["vector_devices"] == POP.devices - carriers
    assert 0 < carriers < POP.devices


def test_fallback_reasons_follow_the_guard_walk(table):
    # Knock out and crash probes across every kind and mitigation: each
    # rejected device carries the guard's first failure in its own
    # probe order.
    crippled = fastpath.TransitionTable.from_json(table.to_json())
    keys = sorted(crippled.entries)
    for key in keys[::5]:
        del crippled.entries[key]
    for key in keys[2::7]:
        if key in crippled.entries:
            crippled.entries[key] = dict(crippled.entries[key], crashed=1)
    fallback = _assert_columns_match_fast_summary(POP, crippled)
    reasons = set(fallback.values())
    assert any(r.startswith("missing-probe:") for r in reasons)
    assert any(r.startswith("crashed-probe:") for r in reasons)


def test_compose_shard_reports_fallback_reasons(table):
    columns = CHAOS.sample_columns(0, CHAOS.devices)
    classes = _ShardClasses(table, CHAOS.mitigations)
    comp = compose_shard(CHAOS, columns, classes, np=numpy_backend())
    assert comp.vector_rows == []
    assert set(comp.fallback.values()) == {"fault-plan-armed"}


# -- batch folds ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(values=st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200))
def test_batch_fold_backends_bitwise(values):
    import os

    a = FleetStats()
    a.observe_many("metric", values)
    previous = os.environ.get("REPRO_FASTPATH_NUMPY")
    os.environ["REPRO_FASTPATH_NUMPY"] = "0"
    try:
        b = FleetStats()
        b.observe_many("metric", values)
    finally:
        if previous is None:
            del os.environ["REPRO_FASTPATH_NUMPY"]
        else:
            os.environ["REPRO_FASTPATH_NUMPY"] = previous
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_fold_split_merge_is_consistent(data):
    values = data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=120))
    cut = data.draw(st.integers(1, len(values) - 1))
    whole = FleetStats()
    whole.observe_many("metric", values)
    left = FleetStats()
    left.observe_many("metric", values[:cut])
    right = FleetStats()
    right.observe_many("metric", values[cut:])
    combined = left.merge(right)
    wm = whole.metrics["metric"].moments
    lm = combined.metrics["metric"].moments
    # Shard boundaries are part of the frozen fold contract, so the
    # split is not bitwise -- but count/min/max are exact and the
    # merged moments agree to float rounding.
    assert (lm.count, lm.min, lm.max) == (wm.count, wm.min, wm.max)
    assert lm.mean == pytest.approx(wm.mean, rel=1e-9, abs=1e-9)
    assert lm.m2 == pytest.approx(wm.m2, rel=1e-6, abs=1e-6)


# -- runner integration --------------------------------------------------------

def test_runner_vector_mode_checkpoints_and_resumes(grid, table,
                                                    tmp_path):
    ck = str(tmp_path / "fleet-vector")
    runner = FleetRunner(POP, runner=grid, mode="vector",
                         checkpoint_dir=ck)
    merged = runner.run()
    first = _stats_dicts(merged)
    summary = runner.run_summary()
    assert summary["mode"] == "vector"
    assert summary["shards_resumed"] == 0
    # A fresh runner over the same spec resumes every shard from disk
    # and merges to the byte-identical result.
    resumed = FleetRunner(POP, runner=grid, mode="vector",
                          checkpoint_dir=ck)
    again = resumed.run()
    assert _stats_dicts(again) == first
    assert resumed.run_summary()["shards_resumed"] \
        == POP.shard_count
    for name in POP.mitigations:
        assert merged[name].counters["vector_devices"] == POP.devices
