"""One code identity for every stored result.

Every grid cache key hashes :func:`repro.version.code_digest`, and every
fleet checkpoint carries it, so a result computed by other code is
never served. These tests edit a *copy* of the package and run it in a
subprocess: the digest is computed once per process over the files on
disk, so no in-process patch can stand in for an edit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.version import code_digest

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))
SRC = os.path.dirname(PACKAGE)

#: Prints the cache key of one spec of each kind a fleet or a grid
#: sweep stores: a Table-5 case job, a probe, and a kernel and a vector
#: shard.
_KEYS = """
import json
from repro.experiments.grid import FuncSpec, JobSpec, ResultCache
from repro.fleet.fastpath import probe_day
from repro.fleet.population import PopulationSpec
from repro.fleet.shard import run_shard
from repro.version import code_digest

population = PopulationSpec(seed=7, devices=4, shard_size=2)
shard = dict(population_json=population.to_json(), start=0, stop=2)
specs = {
    "job": JobSpec.make("torch", minutes=2.0),
    "probe": FuncSpec.make(probe_day, kind="base", name="",
                           profile="nexus5", mitigation="leaseos",
                           minutes=15.0, variant="idle"),
    "kernel_shard": FuncSpec.make(run_shard, mode="kernel", table="",
                                  **shard),
    "vector_shard": FuncSpec.make(run_shard, mode="vector",
                                  table="ab" * 32, **shard),
}
cache = ResultCache("unused")
keys = {name: cache.key_for(spec) for name, spec in specs.items()}
keys["digest"] = code_digest()
print(json.dumps(keys))
"""


def _copy_package(root):
    """A copy of the package under ``root/src``; returns that src."""
    src = os.path.join(str(root), "src")
    shutil.copytree(PACKAGE, os.path.join(src, "repro"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _append(path, text):
    with open(path, "a") as handle:
        handle.write(text)


def _python(src, args, cwd):
    return subprocess.run([sys.executable, *args], cwd=str(cwd),
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)


def _keys(src, cwd):
    return json.loads(_python(src, ["-c", _KEYS], cwd).stdout)


def test_the_digest_names_the_code_not_its_location(tmp_path):
    copy = _copy_package(tmp_path / "copy")
    # A file beside the package, not in it, is not package code.
    _append(os.path.join(copy, "unrelated.py"), "# not repro\n")
    keys = _keys(copy, tmp_path)
    assert keys["digest"] == code_digest()
    assert keys == _keys(SRC, tmp_path)


def test_editing_any_package_file_moves_every_key(tmp_path):
    ours = _keys(SRC, tmp_path)
    edited = _copy_package(tmp_path / "edited")
    _append(os.path.join(edited, "repro", "droid", "alarms.py"),
            "# an edit no simulation can see\n")
    theirs = _keys(edited, tmp_path)
    assert theirs.keys() == ours.keys()
    for name in ours:
        assert theirs[name] != ours[name], name


def test_the_digest_is_computed_once_per_process():
    assert code_digest() is code_digest()
    assert len(code_digest()) == 64


@pytest.mark.parametrize("mode", ["kernel", "vector"])
def test_checkpoints_from_other_code_are_rejected_and_rerun(tmp_path,
                                                            mode):
    edited = _copy_package(tmp_path / "edited")
    _append(os.path.join(edited, "repro", "droid", "alarms.py"),
            "# an edit no simulation can see\n")
    fleet = ["-m", "repro", "fleet", "--devices", "6", "--shard-size",
             "2", "--minutes", "1", "--mode", mode, "--chaos-rate",
             "0.5", "--cache-dir", "cache", "--checkpoint-dir", "ck"]
    first = _python(edited, fleet + ["--report-json", "theirs.json"],
                    tmp_path)
    assert "3 shard(s) executed" in first.stderr
    rerun = _python(SRC, fleet + ["--report-json", "ours.json"], tmp_path)
    assert "0 cache hits" in rerun.stderr
    assert ("3 shard(s) executed, 0 resumed from checkpoints, 3 stale "
            "checkpoint(s) rejected") in rerun.stderr
    # Both trees simulate the same days, so the re-run reproduces the
    # report; it was recomputed, not served.
    with open(str(tmp_path / "theirs.json")) as a, \
            open(str(tmp_path / "ours.json")) as b:
        assert json.load(a)["mitigations"] == json.load(b)["mitigations"]
