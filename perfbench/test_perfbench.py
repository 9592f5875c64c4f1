"""Tests of the benchmark's own logic (not of ``repro``).

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import sys
import textwrap

import pytest

import layers
import tracer
import workloads

from run import (REFERENCE_SAMPLE_S, ROOT, HostSpeed, Run,
                 flag_odd_digests, load_spec, verdict)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_and_workload_names_are_well_formed():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert [m["name"] for m in spec["per_layer"]] == \
        list(layers.METRIC_NAMES) + ["trace.overhead_ratio"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def _report(counter=3, version="1.6.0", table="ab" * 32):
    return {
        "version": version,
        "execution": {"mode": "vector", "table_fingerprint": table},
        "devices": 3,
        "mitigations": {
            "vanilla": {"counters": {"devices": counter}, "metrics": {}},
            "leaseos": {"counters": {"devices": 3}, "metrics": {}},
        },
    }


def test_digest_ignores_version_and_table_but_catches_a_counter():
    base = workloads.report_digest(_report())
    assert workloads.report_digest(_report(version="9.9.9")) == base
    assert workloads.report_digest(_report(table="cd" * 32)) == base
    assert workloads.report_digest(_report(counter=4)) != base


def _run(report, stderr="", returncode=0):
    run = Run(returncode=returncode, wall_s=1.0, cpu_s=1.0,
              peak_rss_mb=1.0, spawned_at=0.0, run_dir="/nonexistent",
              stderr=stderr, report=report)
    run.digest = workloads.report_digest(report) if report else ""
    return run


def test_warm_replay_gate_rejects_probe_runs_and_fallbacks():
    warm = workloads.WarmReplay()
    report = _report()
    report["devices"] = warm.devices
    for block in report["mitigations"].values():
        block["counters"] = {"vector_devices": warm.devices}
    warm_line = "[grid: 380 jobs, 20 executed, 360 cache hits, jobs=1]"
    assert warm.check(_run(report, warm_line), seed=1) == []
    cold_line = "[grid: 380 jobs, 380 executed, 0 cache hits, jobs=1]"
    assert warm.check(_run(report, cold_line), seed=1)
    report["mitigations"]["leaseos"]["counters"]["fastpath_fallbacks"] = 2
    assert any("fallbacks" in problem
               for problem in warm.check(_run(report, warm_line), seed=1))
    report["degraded"] = {"missing_shards": [3]}
    assert "degraded report" in warm.check(
        _run(report, warm_line, returncode=75), seed=1)


def test_a_run_off_the_majority_digest_fails():
    runs = [_run(_report()), _run(_report(counter=4)), _run(_report())]
    flag_odd_digests(seed=1, runs=runs)
    assert [bool(r.problems) for r in runs] == [False, True, False]
    correct, failed, __ = verdict(runs, {})
    assert not correct and failed == 1


def test_traced_counts_must_repeat_exactly():
    units = {"grid.cache_hits": "count", "grid.cache_load_s": "s"}
    runs = [_run(_report()), _run(_report())]
    runs[0].layers = {"grid.cache_hits": 360, "grid.cache_load_s": 0.5}
    runs[1].layers = {"grid.cache_hits": 360, "grid.cache_load_s": 0.6}
    assert verdict(runs, units)[0]
    runs[1].layers["grid.cache_hits"] = 359
    correct, failed, notes = verdict(runs, units)
    assert not correct and failed == 0
    assert any("grid.cache_hits" in note for note in notes)


def test_host_slowdown_is_the_harmonic_mean_of_the_samples():
    speed = HostSpeed()
    with speed:
        pass
    assert len(speed.samples) >= 1 and speed.slowdown() > 0
    # Half the interval at full speed and half at a third of it: the
    # work done took 1.5 times as long as on a quiet host.
    speed.samples = [REFERENCE_SAMPLE_S, 3 * REFERENCE_SAMPLE_S]
    assert speed.slowdown() == pytest.approx(1.5)


def _span(name, start, end, pid, number, parent=None, extra=None):
    return layers.Span(name, start, end, pid, (pid << 32) | number,
                       parent, extra)


def _two_process_tree():
    """A root and a supervisor call in pid 100 whose jobs ran in
    forked workers 200 and 300, one with a layer span inside."""
    root = _span(layers.MAIN, 0.0, 10.0, 100, 1)
    supervise = _span(layers.SUPERVISE, 1.0, 9.0, 100, 2, root.id,
                      {"jobs": 2})
    job_a = _span(layers.FUNC_EXECUTE, 2.0, 5.0, 200, 1, supervise.id)
    shard = _span(layers.RUN_SHARD, 2.5, 4.5, 200, 2, job_a.id)
    job_b = _span(layers.FUNC_EXECUTE, 4.0, 8.0, 300, 1, supervise.id)
    return [root, supervise, job_a, shard, job_b]


def test_self_time_spans_two_processes():
    spans = _two_process_tree()
    root, supervise, job_a, shard, job_b = spans
    self_s = layers.self_times(spans)
    # The workers' jobs cover 2..8 of the supervisor's 1..9.
    assert self_s[supervise.id] == pytest.approx(2.0)
    assert self_s[root.id] == pytest.approx(2.0)
    assert self_s[job_a.id] == pytest.approx(1.0)
    assert self_s[shard.id] == pytest.approx(2.0)
    assert self_s[job_b.id] == pytest.approx(4.0)
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == \
        pytest.approx(4.0)


def _write_trace(directory, spans, status):
    with open(os.path.join(directory, "spans-100.jsonl"), "w") as handle:
        for span in spans:
            handle.write(json.dumps(list(span)) + "\n")
    with open(os.path.join(directory, tracer.TARGETS_FILE), "w") as handle:
        json.dump(status, handle)


def _context():
    return {"report": _report(), "spawned_at": -0.5, "wall_s": 10.5,
            "cache_bytes": 7, "checkpoint_files": 1,
            "checkpoint_bytes": 5, "telemetry_bytes": 0,
            "telemetry_events": 0}


def test_layer_metrics_from_a_two_process_trace(tmp_path):
    status = {target: "ok" for target in tracer.TARGETS}
    _write_trace(str(tmp_path), _two_process_tree(), status)
    metrics = layers.layer_metrics(str(tmp_path), _context())
    assert set(metrics) == set(layers.METRIC_NAMES)
    assert metrics["resilience.jobs"] == 2
    assert metrics["resilience.overhead_ms_per_job"] == \
        pytest.approx(1000.0)
    assert metrics["cli.startup_s"] == pytest.approx(0.5)
    assert metrics["trace.unattributed_share"] == pytest.approx(2 / 10.5)
    assert metrics["shard.busy_s"] == pytest.approx(2.0)
    assert metrics["grid.cache_bytes_written"] == 7


def test_missing_wrap_target_yields_null(tmp_path, capsys):
    status = {target: "ok" for target in tracer.TARGETS}
    status[layers.SUPERVISE] = tracer.target_status(
        "repro.resilience.supervisor:NoSuchSupervisor.execute")
    assert status[layers.SUPERVISE].startswith("missing")
    _write_trace(str(tmp_path), _two_process_tree(), status)
    metrics = layers.layer_metrics(str(tmp_path), _context())
    assert metrics["resilience.jobs"] is None
    assert metrics["resilience.overhead_ms_per_job"] is None
    assert metrics["shard.busy_s"] == pytest.approx(2.0)

    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    probe = tracer.Tracer(str(spans_dir), targets=(
        "perfbench_no_such_module:run", "json:no_such_function"))
    assert set(probe.write_target_status().values()) != {"ok"}
    assert "perfbench_no_such_module:run" in capsys.readouterr().err


@pytest.fixture
def fake_module(tmp_path, monkeypatch):
    """An importable module ``pbfake`` that is not imported yet."""
    (tmp_path / "pbfake.py").write_text(textwrap.dedent("""
        class Box:
            def __init__(self):
                self.items = []

            def put(self, item):
                self.items.append(item)
                return len(self.items)

            @classmethod
            def make(cls):
                return cls()

        def fill(n):
            box = Box.make()
            for item in range(n):
                box.put(item)
            return box
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    sys.modules.pop("pbfake", None)
    yield "pbfake"
    sys.modules.pop("pbfake", None)


def _traced(out_dir, targets):
    probe = tracer.Tracer(str(out_dir), targets=targets)
    finder = tracer._PatchOnImport(probe)
    sys.meta_path.insert(0, finder)
    return probe, finder


def test_targets_are_patched_on_first_import(fake_module, tmp_path):
    out = tmp_path / "trace"
    out.mkdir()
    probe, finder = _traced(out, ("pbfake:fill", "pbfake:Box.put",
                                  "pbfake:Box.make", "pbfake:Box.gone"))
    try:
        import pbfake

        assert pbfake.fill.__qualname__ == "fill"
        assert pbfake.fill.__module__ == "pbfake"
        assert len(pbfake.fill(3).items) == 3
    finally:
        sys.meta_path.remove(finder)
    spans = layers.load_spans(str(out))
    names = [span.name for span in spans]
    assert names.count("pbfake:Box.put") == 3
    assert names.count("pbfake:Box.make") == 1
    assert names.count(tracer.FLUSH) == 1
    root = next(s for s in spans if s.name == "pbfake:fill")
    assert root.parent is None
    assert all(s.parent == root.id for s in spans
               if s.name.startswith("pbfake:Box"))


def test_forked_child_spans_hang_off_the_forking_span(fake_module,
                                                      tmp_path):
    out = tmp_path / "trace"
    out.mkdir()
    probe, finder = _traced(out, ("pbfake:fill", "pbfake:Box.put"))
    try:
        import pbfake
    finally:
        sys.meta_path.remove(finder)

    def fork_inside(n):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            try:
                probe._after_fork_in_child()
                pbfake.fill(2)
            finally:
                os._exit(0)
        __, status = os.waitpid(pid, 0)
        return pid, status

    outer = probe.wrap("outer", fork_inside)
    child_pid, status = outer(1)
    assert os.waitstatus_to_exitcode(status) == 0
    spans = layers.load_spans(str(out))
    parent_span = next(s for s in spans if s.name == "outer")
    child_root = next(s for s in spans if s.name == "pbfake:fill")
    assert child_root.pid == child_pid
    assert child_root.parent == parent_span.id
    self_s = layers.self_times(spans)
    assert self_s[parent_span.id] < parent_span.end - parent_span.start


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    import subprocess

    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as handle:
                (bench / name).write_text(handle.read())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        (tmp_path / "BENCHMARK.json").write_text(handle.read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
