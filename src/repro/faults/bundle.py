"""Minimal repro bundles: one JSON file that replays a chaos failure.

When the invariant suite trips during a chaos run, the runner writes a
bundle holding exactly what is needed to reproduce the failure -- the
``run_chaos_case`` kwargs (case, mitigation, minutes, seed and the full
fault-plan JSON) plus the violations and output fingerprint observed.
Replaying is one command::

    python -m repro chaos --replay results/chaos_bundles/<bundle>.json

which re-runs the case and reports whether the same violations and the
same byte-identical fingerprint came back.
"""

import hashlib
import json
import os

from contextlib import contextmanager

from repro.io import atomic_write
from repro.resilience.hooks import ENV_VAR as FAULTS_ENV_VAR


def write_bundle(directory, kwargs, result):
    """Write a repro bundle; returns its path.

    ``kwargs`` must be the exact keyword arguments of
    :func:`repro.experiments.chaos.run_chaos_case`; ``result`` is that
    function's return value for the failing run. If harness faults
    (``REPRO_HARNESS_FAULTS``) were armed when the failure happened,
    the spec is captured in the bundle and re-armed on replay -- a
    storage-fault repro must be one command, not one command plus an
    environment variable nobody remembers.
    """
    payload = {
        "kwargs": dict(kwargs),
        "violations": list(result.get("violations", ())),
        "fingerprint": result.get("fingerprint", ""),
        "replay": "python -m repro chaos --replay <this file>",
    }
    harness_faults = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if harness_faults:
        payload["harness_faults"] = harness_faults
    token = hashlib.sha256(json.dumps(
        payload["kwargs"], sort_keys=True).encode()).hexdigest()[:10]
    name = "chaos_{}_{}_s{}_{}.json".format(
        kwargs.get("case_key", "case"), kwargs.get("mitigation", "m"),
        kwargs.get("seed", 0), token)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_bundle(path):
    with open(path) as handle:
        return json.load(handle)


@contextmanager
def _restored_faults(spec):
    """Arm a bundle's recorded harness-fault spec for the replay.

    The caller's own environment is restored afterwards either way; a
    bundle with no recorded spec explicitly *clears* the variable so a
    stray spec in the operator's shell cannot contaminate the replay.
    """
    before = os.environ.get(FAULTS_ENV_VAR)
    if spec:
        os.environ[FAULTS_ENV_VAR] = spec
    else:
        os.environ.pop(FAULTS_ENV_VAR, None)
    try:
        yield
    finally:
        if before is None:
            os.environ.pop(FAULTS_ENV_VAR, None)
        else:
            os.environ[FAULTS_ENV_VAR] = before


def replay_bundle(path):
    """Re-run a bundle's case. Returns ``(result, report_text)``.

    The report states whether the original violations reproduced and
    whether the output fingerprint matched bit-for-bit. Harness faults
    recorded in the bundle (``harness_faults``) are re-armed for the
    duration of the replay. A *failure manifest*
    (``results/failures_<fp>.json``, written by a supervised run that
    quarantined jobs) is also accepted: every chaos job it records is
    re-run in-process, and ``result`` aggregates their violations
    (``fingerprint`` is empty -- quarantined jobs never produced one to
    compare against).
    """
    from repro.experiments.chaos import run_chaos_case

    payload = load_bundle(path)
    if payload.get("kind") == "failure_manifest":
        return _replay_manifest(path, payload)
    with _restored_faults(payload.get("harness_faults", "")):
        result = run_chaos_case(**payload["kwargs"])
    lines = ["replaying {}".format(os.path.basename(path))]
    if payload.get("harness_faults"):
        lines.append("harness faults re-armed: {}".format(
            payload["harness_faults"]))
    expected = payload.get("fingerprint", "")
    if expected:
        match = result["fingerprint"] == expected
        lines.append("fingerprint: {} ({})".format(
            result["fingerprint"],
            "matches the original run" if match
            else "DIFFERS from {} -- non-determinism!".format(expected)))
    if result["violations"]:
        lines.append("violations reproduced ({}):".format(
            len(result["violations"])))
        for violation in result["violations"]:
            lines.append("  [{}] t={:.1f}: {}".format(
                violation["invariant"], violation["time"],
                violation["detail"]))
    else:
        lines.append("no violations on replay (fixed, or environment-"
                     "dependent -- check the fingerprint line)")
    return result, "\n".join(lines)


def _replay_manifest(path, payload):
    """Re-run every chaos job a failure manifest recorded.

    Quarantined jobs are replayed *without* the supervisor or any
    harness faults -- the point is to see what the job does on this
    machine, under a debugger if need be. Fleet shard jobs are listed
    but skipped (resume the fleet run to retry them; a shard is not a
    single case). Returns an aggregate result dict shaped like a
    single-bundle replay (``violations`` + empty ``fingerprint``) so
    callers share one exit-code path.
    """
    from repro.experiments.chaos import run_chaos_case
    from repro.resilience.manifest import FailureManifest, dict_kwargs

    manifest = FailureManifest.from_dict(payload)
    lines = ["replaying failure manifest {} ({} quarantined job(s))"
             .format(os.path.basename(path), len(manifest))]
    violations = []
    replayed = skipped = 0
    for record in manifest.records:
        spec = record.spec if isinstance(record.spec, dict) else {}
        func = str(spec.get("func", ""))
        last = record.attempts[-1].outcome if record.attempts else "?"
        if spec.get("kind") != "func" \
                or not func.endswith(":run_chaos_case"):
            skipped += 1
            lines.append("  {} (last outcome: {}): not a chaos case "
                         "job; skipped -- re-run the original command "
                         "to retry it".format(record.label, last))
            continue
        result = run_chaos_case(**dict_kwargs(spec))
        replayed += 1
        violations.extend(result["violations"])
        status = "{} violation(s)".format(len(result["violations"])) \
            if result["violations"] else "clean"
        lines.append("  {} (last outcome: {}): replayed seed {} -> "
                     "fingerprint {} ({})".format(
                         record.label, last, result["seed"],
                         result["fingerprint"][:12], status))
    lines.append("{} job(s) replayed, {} skipped, {} violation(s) "
                 "observed".format(replayed, skipped, len(violations)))
    summary = {"violations": violations, "fingerprint": "",
               "replayed": replayed, "skipped": skipped}
    return summary, "\n".join(lines)
