"""``repro.io``: the canonical JSON format, the atomic publish and the
float sum."""

import json
import os
import stat

from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.faults.bundle import write_bundle
from repro.fleet.report import write_report
from repro.io import atomic_write, canonical_json, left_sum
from repro.resilience.manifest import FailureManifest, FailureRecord

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def test_canonical_json_is_the_sorted_compact_format():
    sample = {
        "zeta": [{"b": 2, "a": 1}, {"d": [0.1 + 0.2, 1e-300], "c": None}],
        "alpha": {"name": "café ☃", "x": 1 / 3, "y": -0.0},
        "mid": [True, False, 2 ** 53 + 1, "tab\tquote\""],
    }
    expected = json.dumps(sample, sort_keys=True, separators=(",", ":"))
    assert canonical_json(sample) == expected
    assert canonical_json(sample).startswith('{"alpha":{"name":"caf\\u00e9')
    assert "0.30000000000000004" in canonical_json(sample)
    assert json.loads(canonical_json(sample)) == sample


def test_left_sum_adds_left_to_right_on_every_python():
    # 1e16 + 1.0 rounds back to 1e16 (ties to even), so the left fold
    # reads 0.0; Python 3.12's compensated sum() would read 1.0.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3
    assert left_sum([0.2, 0.3], 0.1) == (0.1 + 0.2) + 0.3
    assert left_sum(x for x in (2.5, 1.5)) == 4.0
    empty = left_sum([])
    assert empty == 0 and type(empty) is int  # as sum() of no terms


def test_atomic_write_replaces_the_content(tmp_path):
    path = str(tmp_path / "entry.json")
    atomic_write(path, "old\n")
    atomic_write(path, "new\n")
    with open(path) as handle:
        assert handle.read() == "new\n"
    assert os.listdir(str(tmp_path)) == ["entry.json"]


def _no_space(*args):
    raise OSError(28, "No space left on device")


@contextmanager
def _umask(mask):
    previous = os.umask(mask)
    try:
        yield
    finally:
        os.umask(previous)


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_failed_replace_keeps_the_old_file_and_no_tmp(tmp_path,
                                                       monkeypatch):
    path = str(tmp_path / "entry.json")
    atomic_write(path, "old\n")
    monkeypatch.setattr(os, "replace", _no_space)
    with pytest.raises(OSError):
        atomic_write(path, "new\n")
    monkeypatch.undo()
    with open(path) as handle:
        assert handle.read() == "old\n"
    assert os.listdir(str(tmp_path)) == ["entry.json"]


def test_failed_write_keeps_the_old_file_and_no_tmp(tmp_path,
                                                     monkeypatch):
    path = str(tmp_path / "entry.json")
    atomic_write(path, "old\n")
    monkeypatch.setattr(os, "fsync", _no_space)
    with pytest.raises(OSError):
        atomic_write(path, "new\n", durable=True)
    monkeypatch.undo()
    with open(path) as handle:
        assert handle.read() == "old\n"
    assert os.listdir(str(tmp_path)) == ["entry.json"]


@pytest.mark.parametrize("durable", [False, True])
def test_a_published_file_has_the_mode_a_plain_write_gives(tmp_path,
                                                           durable):
    # 0666 less the umask, as open(path, "w") creates a file.
    path = str(tmp_path / "report.json")
    with _umask(0o022):
        atomic_write(path, "shared\n", durable=durable)
    assert _mode(path) == 0o644
    with _umask(0o077):
        atomic_write(path, "private\n", durable=durable)
    assert _mode(path) == 0o600


@pytest.mark.parametrize("durable, fsyncs", [(False, 0), (True, 1)])
def test_only_durable_writes_fsync(tmp_path, monkeypatch, durable,
                                   fsyncs):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    atomic_write(str(tmp_path / "f"), "text", durable=durable)
    assert len(calls) == fsyncs


def _fleet_report(directory, value):
    return write_report({"value": value},
                        path=os.path.join(directory, "fleet.json"))


def _failure_manifest(directory, value):
    manifest = FailureManifest(run_fingerprint="f" * 12)
    manifest.add(FailureRecord(label="shard:000000",
                               spec={"kind": "func", "value": value}))
    return manifest.write(path=os.path.join(directory, "failures.json"))


def _chaos_bundle(directory, value):
    return write_bundle(directory, {"case_key": "torch", "seed": 1},
                        {"violations": [value]})


@pytest.mark.parametrize("write", [_fleet_report, _failure_manifest,
                                   _chaos_bundle],
                         ids=["fleet-report", "failure-manifest",
                              "chaos-bundle"])
def test_a_report_that_fails_to_serialise_keeps_the_previous_one(tmp_path,
                                                                  write):
    path = write(str(tmp_path), 1)
    with open(path, "rb") as handle:
        previous = handle.read()
    with pytest.raises(TypeError):
        write(str(tmp_path), {1})  # a set is no JSON
    with open(path, "rb") as handle:
        assert handle.read() == previous
    assert os.listdir(str(tmp_path)) == [os.path.basename(path)]


def test_out_writes_the_printed_artifact(tmp_path, capsys):
    out = str(tmp_path / "out")
    with _umask(0o022):
        assert main(["study", "--out", out]) == 0
    path = os.path.join(out, "study_tables.txt")
    with open(path) as handle:
        written = handle.read()
    # main prints the text and a blank line; the file is the text and
    # its newline.
    assert capsys.readouterr().out == written + "\n"
    assert _mode(path) == 0o644


def test_out_keeps_the_previous_artifact_when_the_write_fails(
        tmp_path, monkeypatch):
    path = tmp_path / "study_tables.txt"
    path.write_bytes(b"the previous run\n")
    monkeypatch.setattr(os, "replace", _no_space)
    with pytest.raises(OSError):
        main(["study", "--out", str(tmp_path)])
    monkeypatch.undo()
    assert path.read_bytes() == b"the previous run\n"
    assert os.listdir(str(tmp_path)) == ["study_tables.txt"]


def test_no_hand_rolled_atomic_write_or_canonical_json_outside_io():
    patterns = ("NamedTemporaryFile", "os.replace",
                'separators=(",", ":")')
    offenders = []
    for root, __, names in os.walk(SRC):
        for name in names:
            path = os.path.join(root, name)
            relpath = os.path.relpath(path, SRC)
            if name.endswith(".py") and relpath != "io.py":
                with open(path) as handle:
                    text = handle.read()
                offenders += [relpath + ": " + pattern
                              for pattern in patterns if pattern in text]
    assert offenders == []
