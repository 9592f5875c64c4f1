"""Command-line interface: run any paper experiment from the shell.

    python -m repro table5
    python -m repro table5 --jobs 4            # fan out over 4 workers
    python -m repro fig9
    python -m repro usability --minutes 20
    python -m repro fleet --devices 1000 --jobs 4   # population scale
    python -m repro all --out results/

Each subcommand maps to one :mod:`repro.experiments` harness and prints
the paper-style table/series; ``--out DIR`` additionally writes the text
artifact into DIR.

Grid-shaped experiments accept ``--jobs N`` (parallel workers; default 1
== serial), ``--no-cache`` (disable the on-disk result cache) and
``--cache-dir DIR`` (default ``results/.cache``). Cached jobs are keyed
by a content hash of the job spec, so a warm re-run performs no fresh
simulation.
"""

import argparse
import os
import sys

#: Exit codes beyond 0/1: a supervised run that completed with
#: quarantined jobs (partial results + failure manifest) exits 75
#: (BSD's EX_TEMPFAIL: retrying may succeed), an interrupted run exits
#: 130 (128+SIGINT) after flushing its checkpoints and manifest.
EXIT_DEGRADED = 75
EXIT_INTERRUPTED = 130


def _write_failure_manifest(args):
    """Write the supervisor's failure manifest if any job was
    quarantined; returns its path or None."""
    runner = getattr(args, "grid_runner", None)
    supervisor = getattr(runner, "supervisor", None)
    if supervisor is None or not supervisor.manifest:
        return None
    path = supervisor.manifest.write()
    print("[failure manifest: {}]".format(path), file=sys.stderr)
    return path


def _grid_runner(args):
    """The per-invocation GridRunner built from --jobs/--no-cache/
    --cache-dir (cached on args so 'all' shares one runner)."""
    if getattr(args, "grid_runner", None) is None:
        from repro.experiments.grid import runner_from_args

        args.grid_runner = runner_from_args(args)
    return args.grid_runner


def _cmd_table5(args):
    from repro.experiments import table5

    rows = table5.run(minutes=args.minutes, runner=_grid_runner(args))
    return "table5_buggy_apps.txt", table5.render(rows)


def _cmd_fig9(args):
    from repro.experiments import lease_term

    return "fig09_lease_term.txt", lease_term.render(
        lease_term.run_fig9a(), lease_term.run_fig9b()
    )


def _cmd_fig11(args):
    from repro.experiments import lease_activity

    return "fig11_lease_activity.txt", lease_activity.render(
        lease_activity.run()
    )


def _cmd_fig12(args):
    from repro.experiments import lambda_sweep

    return "fig12_lambda_sweep.txt", lambda_sweep.render(
        lambda_sweep.run(runner=_grid_runner(args))
    )


def _cmd_fig13(args):
    from repro.experiments import overhead

    return "fig13_overhead.txt", overhead.render(overhead.run())


def _cmd_fig14(args):
    from repro.experiments import latency

    return "fig14_latency.txt", latency.render(latency.run())


def _cmd_table4(args):
    from repro.experiments import microbench

    return "table4_lease_ops.txt", microbench.render(
        microbench.measure_wall_clock_ms()
    )


def _cmd_usability(args):
    from repro.experiments import usability

    return "usability_7_4.txt", usability.render(
        usability.run(minutes=args.minutes)
    )


def _cmd_battery(args):
    from repro.experiments import battery_life

    return "battery_life_7_6.txt", battery_life.render(
        battery_life.run(runner=_grid_runner(args))
    )


def _cmd_study(args):
    from repro.experiments import study_tables

    text = study_tables.render_table1() + "\n\n" + \
        study_tables.render_table2()
    return "study_tables.txt", text


def _cmd_characterization(args):
    import io
    from contextlib import redirect_stdout

    from repro.experiments import characterization

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        characterization.main(runner=_grid_runner(args))
    return "characterization_figs1_4.txt", buffer.getvalue()


def _cmd_ablations(args):
    from repro.experiments import ablations

    return "ablations.txt", ablations.render(
        ablations.run(runner=_grid_runner(args))
    )


def _cmd_extensions(args):
    from repro.experiments import extensions

    return "extensions_s8.txt", extensions.render()


def _cmd_robustness(args):
    from repro.experiments import robustness

    runner = _grid_runner(args)
    return "robustness.txt", robustness.render(
        robustness.seed_sweep(runner=runner),
        robustness.profile_sweep(runner=runner),
    )


def _cmd_verdict(args):
    from repro.experiments import verdict

    claims = verdict.run()
    # The scorecard is the CI-facing gate on the reproduction: a failed
    # claim must fail the invocation, not scroll past in a green run.
    if any(not claim.passed for claim in claims):
        args.exit_code = 1
    return "verdict.txt", verdict.render(claims)


def _cmd_fix(args):
    from repro.experiments import fix_comparison

    return "fix_comparison.txt", fix_comparison.render(
        fix_comparison.run(minutes=args.minutes)
    )


def _cmd_containment(args):
    from repro.experiments import containment

    return "containment_latency.txt", containment.render(containment.run())


def _cmd_zoo(args):
    from repro.experiments import baseline_zoo

    return "baseline_zoo.txt", baseline_zoo.render(
        baseline_zoo.run(minutes=args.minutes, runner=_grid_runner(args))
    )


def _cmd_deployment(args):
    from repro.experiments import deployment

    return "deployment_estimate.txt", deployment.render(deployment.run())


def _cmd_misleading(args):
    from repro.experiments import misleading_classifier

    return "misleading_classifier_2_3.txt", misleading_classifier.render(
        misleading_classifier.run(minutes=args.minutes)
    )


def _cmd_chaos(args):
    from repro.experiments import chaos

    if getattr(args, "replay", None):
        from repro.faults.bundle import load_bundle, replay_bundle

        payload = load_bundle(args.replay)
        # Failure manifests carry a *run* fingerprint, not a chaos-case
        # fingerprint; drift checking only applies to single bundles.
        expected = "" if payload.get("kind") == "failure_manifest" \
            else payload.get("fingerprint", "")
        result, text = replay_bundle(args.replay)
        # Non-zero on violations AND on fingerprint drift: a replay
        # that no longer reproduces bit-identically is a CI failure
        # (non-determinism), not a pass.
        if result["violations"] or \
                (expected and result["fingerprint"] != expected):
            args.exit_code = 1
        return "chaos_replay.txt", text
    base = args.base_seed
    plan_seeds = tuple(range(base, base + args.seeds))
    print("chaos: base seed {} -> fault-plan seeds {} (replayable: the "
          "seeds fully determine the fault plans)".format(
              base, list(plan_seeds)), file=sys.stderr)
    report = chaos.run(plan_seeds=plan_seeds, minutes=args.minutes,
                       runner=_grid_runner(args))
    text = chaos.render(report)
    manifest_path = _write_failure_manifest(args)
    if manifest_path is not None:
        text += "\n\nfailure manifest (replay the quarantined jobs " \
                "with `python -m repro chaos --replay {}`)".format(
                    manifest_path)
        args.exit_code = EXIT_DEGRADED
    if report.total_violations:
        paths = report.write_bundles(args.bundle_dir)
        text += "\n\nrepro bundles (replay with `python -m repro chaos " \
                "--replay <path>`):\n" + \
                "\n".join("  " + path for path in paths)
        args.exit_code = 1
    return "chaos.txt", text


def _cmd_fleet(args):
    from repro.fleet import (
        FleetRunner,
        PopulationSpec,
        build_report,
        render,
        write_report,
    )

    mitigations = tuple(
        name.strip() for name in args.mitigations.split(",") if name.strip())
    catalog_json = ""
    if args.catalog:
        from repro.scenarios.catalog import ScenarioCatalog

        catalog_json = ScenarioCatalog.from_file(args.catalog).to_json()
    population = PopulationSpec(
        seed=args.seed, devices=args.devices, mitigations=mitigations,
        minutes=args.minutes, shard_size=args.shard_size,
        buggy_prevalence=args.prevalence, chaos_rate=args.chaos_rate,
        catalog_json=catalog_json,
        scenario_prevalence=args.scenario_prevalence,
    )
    telemetry_dir = args.telemetry_dir
    if telemetry_dir is None and args.telemetry:
        from repro.telemetry import default_telemetry_dir

        telemetry_dir = default_telemetry_dir(population)
    fleet_runner = FleetRunner(population, runner=_grid_runner(args),
                               checkpoint_dir=args.checkpoint_dir,
                               verbose=True, mode=args.mode,
                               telemetry_dir=telemetry_dir)
    if telemetry_dir is not None:
        print("[telemetry stream: {}]".format(telemetry_dir),
              file=sys.stderr)
    if fleet_runner.mode != fleet_runner.requested_mode:
        print("fleet: --mode auto resolved to {} for {} devices"
              .format(fleet_runner.mode, population.devices),
              file=sys.stderr)
    fleet_runner.run_shards(limit=args.max_shards)
    summary = fleet_runner.run_summary()
    # Always surfaced, quiet mode included: a rejected checkpoint means
    # a shard was silently recomputed and the operator must see it.
    summary_line = ("fleet run ({mode} path): {shards_run} shard(s) "
                    "executed, {shards_resumed} resumed from "
                    "checkpoints, {checkpoints_rejected} stale "
                    "checkpoint(s) rejected, {shards_quarantined} "
                    "quarantined".format(**summary))
    print(summary_line, file=sys.stderr)
    manifest_path = _write_failure_manifest(args)
    pending = fleet_runner.pending_shards()
    quarantined = set(fleet_runner.quarantined_shards)
    if pending and not quarantined.issuperset(pending):
        # Shards are left beyond any quarantine: --max-shards stopped
        # the run early, the ordinary resume path. The stream stays
        # deliberately unterminated (no run_finished): a watcher sees
        # the run as still in flight, which it is.
        if fleet_runner.telemetry is not None:
            fleet_runner.telemetry.close()
        return "fleet_partial.txt", (
            "fleet: stopped after {} shard(s) this invocation; {} of {} "
            "still pending.\nRe-run the same command to resume from the "
            "checkpoints in {}.\n{}".format(
                fleet_runner.shards_run, len(pending),
                population.shard_count, fleet_runner.checkpoint_dir,
                summary_line))
    degraded = bool(pending)
    merged = fleet_runner.merged_stats(allow_missing=degraded)
    # The report's execution/provenance block records deterministic
    # facts only (mode, table fingerprint, cross-validation verdict):
    # interrupted-and-resumed runs must still produce byte-identical
    # report files, so run counters stay on stderr.
    execution = {"mode": fleet_runner.mode,
                 "requested_mode": fleet_runner.requested_mode}
    if fleet_runner.mode == "vector":
        execution["table_fingerprint"] = \
            fleet_runner.table_fingerprint or ""
    validation = None
    if args.cross_validate:
        from repro.fleet.fastpath import cross_validate

        validation = cross_validate(population, n=args.cross_validate,
                                    runner=fleet_runner.runner)
        execution["cross_validation"] = validation
        print("fast-path cross-validation: {} device-days compared, "
              "{} fallback(s), {}".format(
                  validation["device_days_compared"],
                  validation["fallbacks"],
                  "PASS" if validation["pass"]
                  else "FAIL ({} violation(s))".format(
                      validation["violation_count"])),
              file=sys.stderr)
        if not validation["pass"]:
            args.exit_code = 1
    report = build_report(population, merged, execution=execution)
    text = render(report)
    if fleet_runner.mode == "vector":
        text += ("\n\nexecution: columnar vector path, transition "
                 "table {}".format(
                     (fleet_runner.table_fingerprint or "")[:12]))
    if validation is not None:
        text += ("\ncross-validation: {} vs kernel on {} device-days "
                 "(see report execution block)".format(
                     "PASS" if validation["pass"] else "FAIL",
                     validation["device_days_compared"]))
    if degraded:
        # Every pending shard was quarantined by the supervisor: finish
        # with partial results instead of failing the run. The report
        # JSON carries an explicit degraded block (complete runs never
        # have one, so their bytes are unchanged) and the exit code
        # says "incomplete but accounted for".
        report["degraded"] = {
            "missing_shards": list(fleet_runner.missing_shards),
            "failure_manifest": manifest_path or "",
        }
        args.exit_code = EXIT_DEGRADED
        text += ("\n\nDEGRADED: {} of {} shard(s) quarantined and "
                 "missing from the merge (devices {}).\nRe-run the "
                 "same command to retry only the quarantined shards."
                 .format(len(fleet_runner.missing_shards),
                         population.shard_count,
                         ", ".join(str(population.shard_range(s))
                                   for s in fleet_runner.missing_shards)))
        if manifest_path:
            text += "\nfailure manifest: {}".format(manifest_path)
    path = write_report(report, path=args.report_json)
    print("[fleet report JSON: {}]".format(path), file=sys.stderr)
    if fleet_runner.telemetry is not None:
        # Terminal record: the canonical report's sha256 is the
        # contract `repro watch --check-report` (and the telemetry-
        # smoke CI job) verifies the aggregated stream against.
        import hashlib

        from repro.fleet.report import report_json

        fleet_runner.telemetry.run_finished(
            summary, population.devices, execution,
            hashlib.sha256(
                report_json(report).encode("utf-8")).hexdigest(),
            degraded=report.get("degraded"))
        fleet_runner.telemetry.close()
    return "fleet.txt", text + "\n\n" + summary_line


def _cmd_scenarios(args):
    import hashlib

    from repro.io import atomic_write
    from repro.scenarios.catalog import ScenarioCatalog, default_catalog
    from repro.scenarios.evaluate import (
        evaluate_catalog,
        render_report,
        report_json,
    )

    if args.catalog:
        catalog = ScenarioCatalog.from_file(args.catalog)
    else:
        catalog = default_catalog(seed=args.seed)
    mitigations = tuple(
        name.strip() for name in args.mitigations.split(",") if name.strip())
    report = evaluate_catalog(catalog, mitigations=mitigations,
                              minutes=args.minutes, seed=args.day_seed,
                              runner=_grid_runner(args))
    text = render_report(report)
    payload = report_json(report)
    path = args.report_json
    if path is None:
        os.makedirs("results", exist_ok=True)
        path = os.path.join("results", "scenarios_{}.json".format(
            catalog.fingerprint()[:12]))
    atomic_write(path, payload + "\n")
    print("[scenario report JSON: {} (sha256 {})]".format(
        path, hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]),
        file=sys.stderr)
    return "scenarios.txt", text


def _cmd_service(args):
    from repro.service import (
        JournalRecoveryError,
        JournalStorage,
        LeaseService,
        ServiceError,
    )
    from repro.service.scripted import run_scripted_day
    from repro.service.storage import JOURNAL_NAME

    journal = args.journal
    if journal is None:
        if args.action != "run":
            args.exit_code = 2
            return "service.txt", ("service {}: --journal DIR is "
                                   "required".format(args.action))
        journal = os.path.join("results", ".service",
                               "scripted-s{}".format(args.seed))
    if args.action == "run":
        # Occupied means *any* recoverable state, not just journal
        # records: after `service compact` the journal is empty but a
        # snapshot holds the whole state, and a fresh seq-0 run on top
        # of it would be silently shadowed by that snapshot on the
        # next recovery.
        journal_file = os.path.join(journal, JOURNAL_NAME)
        has_journal = os.path.exists(journal_file) \
            and os.path.getsize(journal_file) > 0
        has_snapshot = os.path.isdir(journal) and any(
            name.startswith("snapshot-") and name.endswith(".json")
            for name in os.listdir(journal))
        if (has_journal or has_snapshot) and not args.resume:
            args.exit_code = 2
            return "service.txt", (
                "service run: {} already holds {}; pass "
                "--resume to recover and continue it, or point "
                "--journal at a fresh directory".format(
                    journal, "a journal" if has_journal
                    else "a compacted snapshot"))
        storage = JournalStorage(journal)
        try:
            service = LeaseService.recover(storage, seed=args.seed) \
                if args.resume else LeaseService(storage, seed=args.seed)
        except (ServiceError, JournalRecoveryError) as exc:
            args.exit_code = 1
            return "service.txt", "service run: {}".format(exc)
        summary = run_scripted_day(service, seed=args.seed,
                                   apps=args.apps, ops=args.ops)
        service.close()
        lines = ["service run: scripted day (seed {}, {} apps, {} ops) "
                 "-> {}".format(args.seed, summary["apps"],
                                summary["ops"], journal),
                 "steps run this invocation: {}".format(
                     summary["steps_run"]),
                 "ops applied: {} ({} leases active, {} swept)".format(
                     summary["op_seq"], summary["active"],
                     summary["swept"]),
                 "state fingerprint: {}".format(summary["fingerprint"])]
        if service.recovery is not None:
            lines.insert(1, _service_recovery_line(service.recovery))
            if service.recovery.degraded:
                args.exit_code = EXIT_DEGRADED
        return "service.txt", "\n".join(lines)

    # inspect / verify / compact all begin with a recovery. Only
    # `verify` treats an invariant violation as fatal up front;
    # `inspect` reports what it can see.
    if not os.path.isdir(journal):
        args.exit_code = 1
        return "service.txt", ("service {}: no journal directory at "
                               "{}".format(args.action, journal))
    try:
        service = LeaseService.recover(JournalStorage(journal),
                                       seed=args.seed,
                                       strict=args.action != "inspect")
    except JournalRecoveryError as exc:
        args.exit_code = 1
        return "service.txt", "service {}: {}".format(args.action, exc)
    except ServiceError as exc:
        args.exit_code = 1
        return "service.txt", ("service {}: FAILED: {}".format(
            args.action, exc))
    info = service.recovery
    state = service.state
    lines = ["service {}: {}".format(args.action, journal),
             _service_recovery_line(info),
             "state fingerprint: {}".format(service.fingerprint()),
             "consumers: {}; leases: {} total, {} active; "
             "sweeps: {} scheduled, {} leases swept".format(
                 len(state.consumers), len(state.leases),
                 len(state.active_leases()), state.sweep_index,
                 state.swept_total)]
    for violation in service.violations:
        lines.append("INVARIANT VIOLATION [{}]: {}".format(
            violation.invariant, violation.detail))
    if service.violations:
        args.exit_code = 1
    elif info.degraded:
        # Degraded-but-consistent: same convention as a degraded fleet
        # run -- partial results, exit 75, operator decides.
        args.exit_code = EXIT_DEGRADED
    if args.action == "compact" and not service.violations:
        snapshot_path = service.compact()
        lines.append("compacted: snapshot {} written, journal "
                     "truncated to {} record(s)".format(
                         os.path.basename(snapshot_path),
                         getattr(service.storage, "compact_kept", 0)))
    if args.action == "verify" and not service.violations:
        lines.append("verify: recovery invariants hold{}".format(
            " (DEGRADED: {})".format(info.reason)
            if info.degraded else ""))
    service.close()
    return "service.txt", "\n".join(lines)


def _service_recovery_line(info):
    line = ("recovery: snapshot seq {}, {} record(s) replayed, {} "
            "dropped".format(info.snapshot_seq, info.records_replayed,
                             info.records_dropped))
    if info.degraded:
        line += " -- DEGRADED ({})".format(info.reason or "unknown")
    return line


def _cmd_watch(args):
    from repro.telemetry import (
        check_report,
        follow,
        load_view,
        render_snapshot,
        resolve_run,
    )

    try:
        directory = resolve_run(args.run, root=args.telemetry_root)
    except (FileNotFoundError, ValueError) as exc:
        args.exit_code = 1
        return "watch.txt", "watch: {}".format(exc)
    if args.follow:
        # Intermediate renders go to stderr; the final snapshot is the
        # returned artifact (main prints it to stdout once).
        view = follow(directory, interval=args.interval,
                      timeout=args.timeout,
                      render=lambda text: print(
                          text + "\n", file=sys.stderr))
        problems = []
    else:
        view, problems = load_view(directory)
    for problem in problems:
        print("watch: {}".format(problem), file=sys.stderr)
    if problems:
        args.exit_code = 1
    text = render_snapshot(view, directory)
    if args.check_report:
        problem = check_report(view, args.check_report)
        if problem is None:
            text += ("\ncheck-report: telemetry aggregate agrees with "
                     "{} to the byte".format(args.check_report))
        else:
            text += "\ncheck-report FAILED: {}".format(problem)
            args.exit_code = 1
    return "watch.txt", text


COMMANDS = {
    "table5": (_cmd_table5, "Table 5: 20 buggy apps x 4 regimes"),
    "fig9": (_cmd_fig9, "Fig. 9: lease term validation"),
    "fig11": (_cmd_fig11, "Fig. 11: lease activity under normal use"),
    "fig12": (_cmd_fig12, "Fig. 12: reduction ratio vs lambda"),
    "fig13": (_cmd_fig13, "Fig. 13: LeaseOS power overhead"),
    "fig14": (_cmd_fig14, "Fig. 14: interaction latency"),
    "table4": (_cmd_table4, "Table 4: lease op latency"),
    "usability": (_cmd_usability, "7.4: usability of normal heavy apps"),
    "battery": (_cmd_battery, "7.6: end-to-end battery life"),
    "study": (_cmd_study, "Tables 1-2: misbehaviour study"),
    "characterization": (_cmd_characterization,
                         "Figs. 1-4: buggy app characterization"),
    "ablations": (_cmd_ablations, "design-choice ablations"),
    "extensions": (_cmd_extensions,
                   "the 8 future-work extensions (DVFS, dynamic policy, "
                   "EUB advisor)"),
    "robustness": (_cmd_robustness, "seed and hardware robustness sweep"),
    "verdict": (_cmd_verdict,
                "the reproduction scorecard: every paper claim, graded"),
    "fix": (_cmd_fix, "developer fix vs OS mechanism (K-9 2x2)"),
    "containment": (_cmd_containment,
                    "containment latency vs healthy-work preservation"),
    "zoo": (_cmd_zoo, "every mitigation's blind spot, one table"),
    "deployment": (_cmd_deployment,
                   "population-level savings estimate (derived)"),
    "misleading": (_cmd_misleading,
                   "2.3: holding time vs utility as a classifier"),
    "chaos": (_cmd_chaos,
              "fault-injection sweep: Table-5 subset under sampled fault "
              "plans with the invariant suite armed"),
    "fleet": (_cmd_fleet,
              "sharded population simulation: thousands of sampled "
              "device-days per mitigation, with checkpoint/resume"),
    "scenarios": (_cmd_scenarios,
                  "DroidLeaks-grounded scenario catalog: generated "
                  "family x resource compositions scored for "
                  "containment and classifier quality"),
    "watch": (_cmd_watch,
              "aggregate a fleet telemetry stream into a live (or "
              "final) fleet-level snapshot"),
    "service": (_cmd_service,
                "the crash-safe lease authority: run a scripted "
                "journaled day, or inspect/verify/compact an existing "
                "journal (exit 75 on degraded recovery)"),
}

#: Commands skipped by ``repro all``: chaos has its own seed/exit-code
#: plumbing and is run by the dedicated CI job instead; fleet is a
#: population-scale run with its own checkpoint/JSON artifacts; watch
#: only observes a stream another run emitted; scenarios is a
#: catalog-scale sweep with its own JSON artifact and CI job; service
#: operates on a persistent journal directory with its own smoke job.
EXCLUDE_FROM_ALL = ("chaos", "fleet", "watch", "scenarios", "service")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LeaseOS reproduction: regenerate the paper's "
                    "tables and figures.",
    )
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="also write the artifact text into DIR")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_grid_args(sub):
        sub.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="parallel simulation workers (default: "
                              "serial)")
        sub.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk result cache")
        sub.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="result cache directory (default: "
                              "results/.cache)")

    def add_supervision_args(sub):
        # Declaring these flags is what opts the subcommand into the
        # supervised dispatch path (see supervisor_from_args).
        sub.set_defaults(supervised=True)
        sub.add_argument("--job-timeout", type=float, default=None,
                         metavar="S",
                         help="wall-clock deadline per job attempt; a "
                              "hung worker is killed and the job "
                              "retried (default: none)")
        sub.add_argument("--max-retries", type=int, default=2,
                         metavar="N",
                         help="retries after the first attempt before "
                              "a job is quarantined (default: 2)")
        sub.add_argument("--max-events", type=int, default=None,
                         metavar="N",
                         help="in-sim runaway budget: abort any single "
                              "simulation after N dispatched events")
        mode = sub.add_mutually_exclusive_group()
        mode.add_argument("--fail-fast", action="store_true",
                          help="abort the whole run on the first "
                               "quarantined job")
        mode.add_argument("--degrade", dest="fail_fast",
                          action="store_false",
                          help="complete with partial results plus a "
                               "failure manifest (default)")
        sub.set_defaults(fail_fast=False)
        sub.add_argument("--harness-faults", metavar="JSON", default=None,
                         help="deterministic fault injection for "
                              "supervisor testing, e.g. "
                              "'{\"crash\": {\"shard:000001\": [1]}, "
                              "\"hang\": {\"shard:000002\": []}}' "
                              "(env REPRO_HARNESS_FAULTS)")
        sub.add_argument("--supervise-verbose", action="store_true",
                         help="log every retry/timeout/crash decision "
                              "to stderr")

    for name, (__, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        minutes_default = {"chaos": 10.0, "fleet": 15.0,
                           "scenarios": 15.0}.get(name, 30.0)
        sub.add_argument("--minutes", type=float, default=minutes_default,
                         help="simulated minutes per run where applicable")
        # SUPPRESS keeps a top-level "--out DIR" (before the subcommand)
        # working: the subparser only overrides when given explicitly.
        sub.add_argument("--out", metavar="DIR", default=argparse.SUPPRESS,
                         help="also write the artifact text into DIR")
        add_grid_args(sub)
        if name in ("chaos", "fleet"):
            add_supervision_args(sub)
        if name == "chaos":
            sub.add_argument("--seeds", type=int, default=3, metavar="N",
                             help="number of sampled fault plans")
            sub.add_argument("--base-seed", type=int, default=1,
                             metavar="S",
                             help="first fault-plan seed (CI rotates this "
                                  "with the run number)")
            sub.add_argument("--bundle-dir", metavar="DIR",
                             default="results/chaos_bundles",
                             help="where invariant-violation repro "
                                  "bundles are written")
            sub.add_argument("--replay", metavar="BUNDLE", default=None,
                             help="replay a repro bundle instead of "
                                  "running the sweep")
        if name == "fleet":
            sub.add_argument("--devices", type=int, default=200,
                             metavar="N",
                             help="population size (sampled device-days)")
            sub.add_argument("--shard-size", type=int, default=50,
                             metavar="N",
                             help="devices per shard (the checkpoint and "
                                  "dispatch unit)")
            sub.add_argument("--seed", type=int, default=2019, metavar="S",
                             help="population seed; fully determines the "
                                  "fleet")
            sub.add_argument("--mitigations", default="vanilla,leaseos",
                             metavar="A,B,...",
                             help="comma-separated mitigations compared "
                                  "(vanilla is always included)")
            sub.add_argument("--prevalence", type=float, default=0.25,
                             metavar="P",
                             help="probability an app slot hosts a buggy "
                                  "Table-5 app")
            sub.add_argument("--chaos-rate", type=float, default=0.0,
                             metavar="P",
                             help="fraction of devices that get a sampled "
                                  "fault plan armed")
            sub.add_argument("--checkpoint-dir", metavar="DIR",
                             default=None,
                             help="shard checkpoint directory (default: "
                                  "results/.fleet/<fingerprint>)")
            sub.add_argument("--max-shards", type=int, default=None,
                             metavar="N",
                             help="stop after N shards this invocation; "
                                  "re-running resumes from checkpoints")
            sub.add_argument("--report-json", metavar="PATH", default=None,
                             help="where to write the machine-readable "
                                  "report (default: "
                                  "results/fleet_s<seed>_d<devices>.json)")
            sub.add_argument("--mode",
                             choices=("kernel", "vector", "auto"),
                             default="kernel",
                             help="device-day executor: the full event "
                                  "kernel, the columnar vectorized "
                                  "replay of the kernel-validated "
                                  "transition table, or auto (vector "
                                  "for large fleets)")
            sub.add_argument("--cross-validate", type=int, default=0,
                             metavar="N",
                             help="run N seeded random device-days "
                                  "through the kernel and the "
                                  "transition table and embed the "
                                  "per-metric accuracy comparison in "
                                  "the report (non-zero exit on "
                                  "violation)")
            sub.add_argument("--telemetry", action="store_true",
                             help="emit a versioned JSONL telemetry "
                                  "stream under results/.telemetry/"
                                  "<fingerprint>/ (watch it live with "
                                  "`repro watch`)")
            sub.add_argument("--telemetry-dir", metavar="DIR",
                             default=None,
                             help="telemetry stream directory (implies "
                                  "--telemetry)")
            sub.add_argument("--catalog", metavar="PATH", default=None,
                             help="scenario catalog JSON whose generated "
                                  "apps join the sampling pool (see "
                                  "`repro scenarios`)")
            sub.add_argument("--scenario-prevalence", type=float,
                             default=0.0, metavar="P",
                             help="probability an app slot hosts a "
                                  "generated scenario app (requires "
                                  "--catalog)")
        if name == "scenarios":
            sub.add_argument("--catalog", metavar="PATH", default=None,
                             help="catalog JSON to evaluate (default: "
                                  "the built-in droidleaks-default "
                                  "catalog)")
            sub.add_argument("--seed", type=int, default=2019,
                             metavar="S",
                             help="built-in catalog seed (ignored with "
                                  "--catalog)")
            sub.add_argument("--day-seed", type=int, default=7,
                             metavar="S",
                             help="per-day simulation seed")
            sub.add_argument("--mitigations",
                             default="leaseos,doze,defdroid",
                             metavar="A,B,...",
                             help="comma-separated mitigations compared "
                                  "(vanilla is always the baseline)")
            sub.add_argument("--report-json", metavar="PATH",
                             default=None,
                             help="where to write the canonical report "
                                  "JSON (default: results/"
                                  "scenarios_<fingerprint>.json)")
        if name == "service":
            sub.add_argument("action", nargs="?", default="run",
                             choices=("run", "inspect", "verify",
                                      "compact"),
                             help="run a seeded scripted journaled "
                                  "day (the default), or inspect/"
                                  "verify/compact an existing journal "
                                  "directory")
            sub.add_argument("--journal", metavar="DIR", default=None,
                             help="journal directory (default for "
                                  "`run`: results/.service/"
                                  "scripted-s<seed>; required "
                                  "otherwise)")
            sub.add_argument("--seed", type=int, default=7, metavar="S",
                             help="scripted-day / sweep-cadence seed "
                                  "(default: 7)")
            sub.add_argument("--apps", type=int, default=3, metavar="N",
                             help="scripted consumers (default: 3)")
            sub.add_argument("--ops", type=int, default=120,
                             metavar="N",
                             help="scripted steps in the day "
                                  "(default: 120)")
            sub.add_argument("--resume", action="store_true",
                             help="recover the journal first, then "
                                  "finish the remainder of the "
                                  "scripted day")
        if name == "watch":
            sub.add_argument("run", nargs="?", default=None,
                             help="stream directory or run-fingerprint "
                                  "prefix (default: the most recent run "
                                  "under the telemetry root)")
            sub.add_argument("--snapshot", action="store_true",
                             help="render one aggregate snapshot and "
                                  "exit (the default)")
            sub.add_argument("--follow", action="store_true",
                             help="re-render until the run finishes")
            sub.add_argument("--interval", type=float, default=2.0,
                             metavar="S",
                             help="--follow refresh interval (default: "
                                  "2s)")
            sub.add_argument("--timeout", type=float, default=None,
                             metavar="S",
                             help="give up following after S seconds")
            sub.add_argument("--check-report", metavar="PATH",
                             default=None,
                             help="verify the stream's aggregate equals "
                                  "this canonical fleet report "
                                  "byte-for-byte (non-zero exit on "
                                  "disagreement)")
            sub.add_argument("--telemetry-root", metavar="DIR",
                             default=os.path.join("results",
                                                  ".telemetry"),
                             help="where per-run stream directories "
                                  "live (default: results/.telemetry)")
    all_parser = subparsers.add_parser(
        "all", help="run every experiment in sequence")
    all_parser.add_argument("--minutes", type=float, default=30.0)
    all_parser.add_argument("--out", metavar="DIR",
                            default=argparse.SUPPRESS)
    add_grid_args(all_parser)
    return parser


def main(argv=None):
    from repro.io import atomic_write
    from repro.resilience.errors import RunInterrupted

    parser = build_parser()
    args = parser.parse_args(argv)
    args.grid_runner = None  # built lazily by grid-aware subcommands
    args.exit_code = 0  # raised by chaos on invariant violations
    if args.command == "all":
        names = [n for n in COMMANDS if n not in EXCLUDE_FROM_ALL]
    else:
        names = [args.command]
    try:
        for name in names:
            handler, __ = COMMANDS[name]
            filename, text = handler(args)
            print(text)
            print()
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, filename)
                atomic_write(path, text + "\n")
                print("[written to {}]".format(path), file=sys.stderr)
    except (KeyboardInterrupt, RunInterrupted) as exc:
        # Ctrl-C / SIGTERM: completed work is already durable (the
        # result cache and fleet checkpoints are written the moment
        # each job finishes), so flush the failure manifest, say how
        # to resume, and exit 130 like a shell would.
        _write_failure_manifest(args)
        detail = ""
        if isinstance(exc, RunInterrupted):
            detail = " ({} job(s) completed, {} outstanding)".format(
                exc.completed, exc.outstanding)
        print("\ninterrupted{}: completed work is checkpointed; re-run "
              "the same command to resume.".format(detail),
              file=sys.stderr)
        return EXIT_INTERRUPTED
    if args.grid_runner is not None and args.grid_runner.stats.submitted:
        stats = args.grid_runner.stats
        print("[grid: {} jobs, {} executed, {} cache hits, jobs={}]"
              .format(stats.submitted, stats.executed, stats.cache_hits,
                      args.grid_runner.jobs), file=sys.stderr)
    return args.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
