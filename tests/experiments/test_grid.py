"""The grid runner: determinism, caching, fallback, codec, one pool."""

import pytest

from repro.apps.buggy import CASES_BY_KEY
from repro.core.behavior import BehaviorType
from repro.experiments import grid, table5
from repro.experiments.grid import (
    FuncSpec,
    GridRunner,
    JobResult,
    JobSpec,
    ResultCache,
    decode_result,
    encode_result,
)

SUBSET = ("torch", "connectbot-screen")


def subset_cases():
    return [CASES_BY_KEY[key] for key in SUBSET]


# -- specs -------------------------------------------------------------------

def test_jobspec_is_hashable_and_stable():
    a = JobSpec.make("torch", mitigation="leaseos", minutes=5.0, seed=7)
    b = JobSpec.make(CASES_BY_KEY["torch"], mitigation="leaseos",
                     minutes=5.0, seed=7)
    assert a == b
    assert hash(a) == hash(b)
    assert ResultCache("unused").key_for(a) == \
        ResultCache("unused").key_for(b)


def test_jobspec_normalizes_profile_objects():
    from repro.device.profiles import MOTO_G

    spec = JobSpec.make("torch", profile=MOTO_G)
    assert spec.phone_overrides == (("profile", MOTO_G.name),)
    # and execution resolves the name back to the profile object
    assert spec._resolved_overrides()["profile"] is MOTO_G


def test_jobspec_rejects_live_objects():
    with pytest.raises(TypeError):
        JobSpec.make("torch", mitigation_obj=object())


def test_funcspec_requires_importable_function():
    with pytest.raises(ValueError):
        FuncSpec.make(lambda: 1)


def test_unknown_mitigation_is_an_error():
    with pytest.raises(KeyError):
        GridRunner().run_one(JobSpec.make("torch", mitigation="nope",
                                          minutes=1.0))


# -- the codec ---------------------------------------------------------------

def test_codec_round_trips_rich_results():
    result = JobResult(
        case_key="torch", mitigation="leaseos", app_power_mw=1.5,
        system_power_mw=2.5, disruptions=3,
        observed_behaviors=frozenset({BehaviorType.LHB, BehaviorType.FAB}),
    )
    payload = {
        "rows": [result],
        "pair": (1, "two"),
        "by_uid": {1000: 4.2},
        "missing": float("nan"),
    }
    decoded = decode_result(encode_result(payload))
    assert decoded["rows"] == [result]
    assert decoded["pair"] == (1, "two")
    assert decoded["by_uid"] == {1000: 4.2}
    assert decoded["missing"] != decoded["missing"]  # NaN survives


# -- parallel determinism (satellite acceptance) -----------------------------

def test_parallel_table5_matches_serial_byte_identical():
    cases = subset_cases()
    serial = table5.render(table5.run(cases=cases, minutes=2.0))
    runner = GridRunner(jobs=2)
    parallel = table5.render(
        table5.run(cases=cases, minutes=2.0, runner=runner))
    assert parallel == serial
    assert runner.stats.executed == len(cases) * len(table5.MITIGATIONS)


def test_warm_cache_runs_zero_fresh_simulations(tmp_path):
    cases = subset_cases()
    cache_dir = str(tmp_path / "cache")
    cold = GridRunner(jobs=2, cache=cache_dir)
    first = table5.render(table5.run(cases=cases, minutes=2.0,
                                     runner=cold))
    expected = len(cases) * len(table5.MITIGATIONS)
    assert cold.stats.executed == expected
    assert cold.stats.cache_misses == expected

    warm = GridRunner(jobs=2, cache=cache_dir)
    second = table5.render(table5.run(cases=cases, minutes=2.0,
                                      runner=warm))
    assert second == first
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == expected


def test_cache_key_changes_with_spec(tmp_path):
    cache = ResultCache(str(tmp_path))
    a = JobSpec.make("torch", minutes=2.0)
    b = JobSpec.make("torch", minutes=3.0)
    assert cache.key_for(a) != cache.key_for(b)


def test_cache_key_changes_with_package_version(tmp_path, monkeypatch):
    # A version bump must invalidate every cached entry: results
    # simulated by older code are never served to newer code (fleet
    # shards resumed across an upgrade depend on this). The bump edits
    # repro/version.py, which moves the code digest every key hashes
    # (tests/test_code_digest.py edits a copied tree for real).
    from repro.experiments import grid as grid_module

    cache = ResultCache(str(tmp_path))
    spec = JobSpec.make("torch", minutes=2.0)
    before = cache.key_for(spec)
    monkeypatch.setattr(grid_module, "code_digest", lambda: "0" * 64)
    assert cache.key_for(spec) != before


def test_cache_key_pins_current_package_version(tmp_path):
    # The key formula, rebuilt by hand: the current code digest (which
    # covers repro/version.py) and the spec token, nothing else.
    import hashlib
    import json

    from repro.version import code_digest

    cache = ResultCache(str(tmp_path))
    spec = JobSpec.make("torch", minutes=2.0)
    token = json.dumps(
        {"code": code_digest(), "spec": spec.cache_token()},
        sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256(token.encode()).hexdigest()[:32]
    assert cache.key_for(spec) == expected


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = FuncSpec.make(_five)
    cache.store(spec, 5)
    path = cache._path(cache.key_for(spec))
    with open(path, "w") as handle:
        handle.write("{not json")
    runner = GridRunner(cache=cache)
    assert runner.run_one(spec) == 5
    assert runner.stats.cache_misses == 1
    assert runner.stats.executed == 1


def test_unusable_cache_directory_degrades_like_a_failed_write(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cache_dir = str(blocker / "cache")
    spec = FuncSpec.make(_five)
    assert ResultCache(cache_dir).store(spec, 5) is False
    runner = GridRunner(cache=cache_dir)
    assert runner.run([spec]) == [5]
    assert runner.stats.executed == 1


# -- one process pool --------------------------------------------------------

def _five():
    return 5


def _const(value):
    return value


def _fail(value):
    raise ValueError("job {} failed".format(value))


def test_parallel_failure_raises_job_quarantined_after_streaming(
        monkeypatch):
    import os

    from repro.resilience import JobQuarantined

    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # defeat 1-core clamp
    runner = GridRunner(jobs=2)
    specs = [FuncSpec.make(_const, value=v) for v in (1, 2, 3)]
    specs.append(FuncSpec.make(_fail, value=4))
    streamed = {}

    def on_result(index, spec, result):
        streamed[index] = result

    with pytest.raises(JobQuarantined, match="ValueError: job 4 failed"):
        runner.run(specs, on_result=on_result)
    # The failing job is dispatched only once two others have finished
    # on the two workers, and each finished result is streamed at once.
    assert len(streamed) >= 2
    assert all(streamed[index] == index + 1 for index in streamed)


def test_parallel_batch_runs_in_process_without_worker_processes(
        monkeypatch, capsys):
    import multiprocessing
    import os

    def unavailable(method=None):
        raise OSError("no worker processes in this sandbox")

    monkeypatch.setattr(multiprocessing, "get_context", unavailable)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # defeat 1-core clamp
    runner = GridRunner(jobs=4)
    specs = [FuncSpec.make(_const, value=v) for v in (1, 2, 3)]
    assert runner.run(specs) == [1, 2, 3]
    assert runner.stats.executed == 3
    assert "worker processes unavailable" in capsys.readouterr().err


def test_only_the_supervisor_starts_processes():
    import os

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src",
                       "repro")
    allowed = os.path.join("resilience", "supervisor.py")
    offenders = []
    for root, __, names in os.walk(src):
        for name in names:
            path = os.path.join(root, name)
            relpath = os.path.relpath(path, src)
            if name.endswith(".py") and relpath != allowed:
                with open(path) as handle:
                    text = handle.read()
                offenders += [relpath + ": " + pattern for pattern in
                              ("concurrent.futures", "multiprocessing")
                              if pattern in text]
    assert offenders == []


def test_duplicate_specs_execute_once():
    runner = GridRunner()
    spec = JobSpec.make("torch", minutes=1.0)
    results = runner.run([spec, spec])
    assert results[0] == results[1]
    assert runner.stats.executed == 1


# -- refactored harnesses stay consistent with their serial selves ----------

def test_robustness_seed_sweep_through_runner_matches_direct():
    keys = ("torch",)
    from repro.experiments import robustness

    runner = GridRunner(jobs=2)
    swept = robustness.seed_sweep(seeds=(7, 21), case_keys=keys,
                                  minutes=2.0, runner=runner)
    assert runner.stats.submitted == 2 * len(table5.MITIGATIONS)
    for seed in (7, 21):
        rows = table5.run(cases=[CASES_BY_KEY["torch"]], minutes=2.0,
                          seed=seed)
        assert swept[seed] == table5.averages(rows)


def test_unregistered_case_uses_direct_fallback():
    import dataclasses

    case = subset_cases()[0]
    clone = type(case)(**{f.name: getattr(case, f.name)
                          for f in dataclasses.fields(case)})
    assert CASES_BY_KEY.get(clone.key) is not clone
    rows = table5.run(cases=[clone], minutes=2.0)
    baseline = table5.run(cases=[case], minutes=2.0)
    assert table5.render(rows) == table5.render(baseline)


# -- core-count clamping -----------------------------------------------------

def test_effective_jobs_clamps_to_cpu_count(monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert GridRunner(jobs=4).effective_jobs == 2
    assert GridRunner(jobs=1).effective_jobs == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown -> 1
    assert GridRunner(jobs=8).effective_jobs == 1


def test_effective_jobs_matches_real_machine():
    import os

    runner = GridRunner(jobs=4)
    assert runner.effective_jobs == min(4, os.cpu_count() or 1)


def _add(a=0, b=0):
    return a + b


def test_funcspec_cache_key_ignores_kwarg_order(tmp_path):
    cache = ResultCache(str(tmp_path))
    ab = FuncSpec.make(_add, a=1, b=2)
    ba = FuncSpec.make(_add, b=2, a=1)
    assert ab == ba
    assert hash(ab) == hash(ba)
    assert cache.key_for(ab) == cache.key_for(ba)


def test_jobspec_cache_key_ignores_override_order(tmp_path):
    cache = ResultCache(str(tmp_path))
    xy = JobSpec.make("torch", profile="Motorola Moto G", ambient=False)
    yx = JobSpec.make("torch", ambient=False, profile="Motorola Moto G")
    assert xy == yx
    assert cache.key_for(xy) == cache.key_for(yx)


def test_kwarg_order_variants_share_one_cache_entry(tmp_path):
    import os

    cache_dir = str(tmp_path / "cache")
    first = GridRunner(cache=cache_dir)
    assert first.run_one(FuncSpec.make(_add, a=1, b=2)) == 3
    assert first.stats.executed == 1
    second = GridRunner(cache=cache_dir)
    assert second.run_one(FuncSpec.make(_add, b=2, a=1)) == 3
    assert second.stats.cache_hits == 1
    assert second.stats.executed == 0
    entries = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
    assert len(entries) == 1


def test_corrupt_cache_entry_is_discarded_from_disk(tmp_path):
    import os

    cache = ResultCache(str(tmp_path))
    spec = FuncSpec.make(_five)
    cache.store(spec, 5)
    path = cache._path(cache.key_for(spec))
    with open(path, "w") as handle:
        handle.write("{not json")
    assert cache.load(spec) is None
    assert not os.path.exists(path)  # unlinked, not left to re-fail
    # the next run rebuilds the entry cleanly
    runner = GridRunner(cache=cache)
    assert runner.run_one(spec) == 5
    assert os.path.exists(path)
    assert cache.load(spec) == 5


def test_undecodable_cache_payload_is_discarded(tmp_path):
    import json
    import os

    cache = ResultCache(str(tmp_path))
    spec = FuncSpec.make(_five)
    cache.store(spec, 5)
    path = cache._path(cache.key_for(spec))
    with open(path, "w") as handle:
        json.dump({"spec": spec.cache_token(),
                   "result": {"__dataclass__": "no.such:Thing",
                              "fields": {}}}, handle)
    assert cache.load(spec) is None  # valid JSON, bogus payload
    assert not os.path.exists(path)
