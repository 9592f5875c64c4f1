"""The `repro fleet` subcommand and the CLI exit-code audit."""

import io
import json
import os
import subprocess
import sys

from contextlib import redirect_stdout

import pytest

import repro

from repro.cli import main


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _fleet_argv(tmp_path, extra=()):
    return [
        "fleet", "--devices", "4", "--shard-size", "2", "--minutes", "2",
        "--seed", "5", "--no-cache",
        "--checkpoint-dir", str(tmp_path / "ck"),
        "--report-json", str(tmp_path / "fleet.json"),
    ] + list(extra)


def test_fleet_cli_end_to_end(tmp_path):
    code, text = _run_cli(_fleet_argv(tmp_path))
    assert code == 0
    assert "Fleet comparison: 4 devices" in text
    report = json.loads((tmp_path / "fleet.json").read_text())
    assert report["kind"] == "fleet_report"
    assert report["devices"] == 4
    assert set(report["mitigations"]) == {"vanilla", "leaseos"}


def test_fleet_cli_mitigation_order_and_repeats_do_not_matter(tmp_path):
    reports = []
    for name, mitigations in [("default", "vanilla,leaseos"),
                              ("reversed", "leaseos,vanilla"),
                              ("repeated", "vanilla,leaseos,leaseos")]:
        code, __ = _run_cli(_fleet_argv(
            tmp_path / name, ["--mitigations", mitigations]))
        assert code == 0
        reports.append((tmp_path / name / "fleet.json").read_bytes())
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_fleet_cli_max_shards_then_resume(tmp_path):
    code, text = _run_cli(_fleet_argv(tmp_path, ["--max-shards", "1"]))
    assert code == 0
    assert "still pending" in text
    assert not (tmp_path / "fleet.json").exists()
    code, text = _run_cli(_fleet_argv(tmp_path))
    assert code == 0
    assert "Fleet comparison" in text
    assert (tmp_path / "fleet.json").exists()


def test_chaos_replay_exit_nonzero_on_fingerprint_mismatch(tmp_path):
    from repro.faults.bundle import write_bundle
    from repro.faults.plan import FaultPlan

    kwargs = dict(case_key="torch", mitigation="vanilla", minutes=1.0,
                  seed=7, plan_json=FaultPlan.sample(1, 60.0).to_json())
    # A bundle whose recorded fingerprint cannot match: replay must
    # report the drift AND exit non-zero so CI can gate on it.
    fake = {"violations": [], "fingerprint": "0" * 64}
    path = write_bundle(str(tmp_path), kwargs, fake)
    code, text = _run_cli(["chaos", "--replay", path])
    assert code == 1
    assert "DIFFERS" in text


def test_chaos_replay_exit_zero_on_clean_match(tmp_path):
    from repro.experiments.chaos import run_chaos_case
    from repro.faults.bundle import write_bundle
    from repro.faults.plan import FaultPlan

    kwargs = dict(case_key="torch", mitigation="vanilla", minutes=1.0,
                  seed=7, plan_json=FaultPlan.sample(1, 60.0).to_json())
    result = run_chaos_case(**kwargs)
    assert not result["violations"]
    path = write_bundle(str(tmp_path), kwargs, result)
    code, text = _run_cli(["chaos", "--replay", path])
    assert code == 0
    assert "matches the original run" in text


def test_fleet_cli_vector_end_to_end(tmp_path):
    code, text = _run_cli(_fleet_argv(tmp_path, ["--mode", "vector"]))
    assert code == 0
    assert "Fleet comparison: 4 devices" in text
    assert "execution: columnar vector path" in text
    report = json.loads((tmp_path / "fleet.json").read_text())
    execution = report["execution"]
    assert execution["mode"] == "vector"
    assert execution["requested_mode"] == "vector"
    assert len(execution["table_fingerprint"]) == 64


def test_fleet_cli_cross_validation_block_and_exit_code(tmp_path):
    code, text = _run_cli(_fleet_argv(
        tmp_path, ["--mode", "vector", "--cross-validate", "2"]))
    report = json.loads((tmp_path / "fleet.json").read_text())
    # One check, against the kernel: no second vector-only block.
    assert "vector_cross_validation" not in report["execution"]
    validation = report["execution"]["cross_validation"]
    assert validation["kind"] == "fastpath_cross_validation"
    assert validation["n"] == 2
    assert "tolerances" in validation and "metrics" in validation
    # The exit code gates on the verdict, so CI can trust a green run.
    assert code == (0 if validation["pass"] else 1)
    assert "cross-validation" in text


def test_fleet_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["fleet"])
    assert args.devices == 200
    assert args.shard_size == 50
    assert args.mitigations == "vanilla,leaseos"
    assert args.max_shards is None
    assert args.minutes == 15.0
    assert args.mode == "kernel"
    assert args.cross_validate == 0
    # The scalar fast executor is gone: its mode and alias are errors.
    for argv in (["fleet", "--fast-path"], ["fleet", "--mode", "fast"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_fleet_excluded_from_all():
    from repro.cli import EXCLUDE_FROM_ALL

    assert "fleet" in EXCLUDE_FROM_ALL


def test_fleet_checkpoints_land_under_results_by_default(tmp_path,
                                                         monkeypatch):
    from repro.fleet.population import PopulationSpec
    from repro.fleet.shard import FleetRunner

    monkeypatch.chdir(tmp_path)
    population = PopulationSpec(seed=1, devices=4, shard_size=2)
    runner = FleetRunner(population)
    expected = os.path.join("results", ".fleet",
                            population.fingerprint()[:12])
    assert runner.checkpoint_dir == expected


# Makes os.replace fail as on a full disk, for shard checkpoints only.
_FAIL_CHECKPOINT_PUBLISH = """
import errno, os
real_replace = os.replace
def replace(src, dst):
    if os.path.basename(dst).startswith("shard_"):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)
    return real_replace(src, dst)
"""


def test_failed_checkpoint_write_fails_the_run(tmp_path, monkeypatch):
    from repro.experiments.grid import GridRunner
    from repro.fleet.population import PopulationSpec
    from repro.fleet.shard import FleetRunner

    population = PopulationSpec(seed=5, devices=4, shard_size=2,
                                minutes=2.0)
    ck = tmp_path / "ck"
    runner = FleetRunner(population, runner=GridRunner(jobs=1, cache=False),
                         checkpoint_dir=str(ck))
    fake = {}
    exec(_FAIL_CHECKPOINT_PUBLISH, fake)
    monkeypatch.setattr(os, "replace", fake["replace"])
    with pytest.raises(OSError):
        runner.run_shards()
    monkeypatch.undo()
    assert os.listdir(str(ck)) == []  # no checkpoint, no stray .tmp

    # The CLI must exit non-zero instead of offering a resume that
    # would only loop: nothing was checkpointed.
    script = _FAIL_CHECKPOINT_PUBLISH + (
        "os.replace = replace\n"
        "import sys\n"
        "from repro.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n")
    cli_ck = tmp_path / "cli-ck"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))))
    done = subprocess.run(
        [sys.executable, "-c", script, "fleet", "--devices", "8",
         "--shard-size", "4", "--minutes", "2", "--no-cache",
         "--checkpoint-dir", str(cli_ck),
         "--report-json", str(tmp_path / "fleet.json")],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode != 0
    assert "No space left on device" in done.stderr
    assert "Re-run the same command" not in done.stdout + done.stderr
    assert os.listdir(str(cli_ck)) == []
    assert not (tmp_path / "fleet.json").exists()
