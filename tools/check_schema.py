#!/usr/bin/env python
"""Lint telemetry streams, scenario catalogs or lease journals.

    python tools/check_schema.py telemetry --require-finished tests/data/telemetry_example.jsonl
    python tools/check_schema.py catalog --instantiate tests/data/scenario_catalog_example.json
    python tools/check_schema.py journal --replay tests/data/journal_example.jsonl

Each kind checks its files against the schema this build reads and has
one stricter flag (``--help``). Prints one line per problem; exits 1
when any path fails. CI lints the committed examples with it.
"""

import argparse
import os
import sys


def check_telemetry(path, require_finished):
    from repro.telemetry import schema

    validate = schema.validate_stream_dir if os.path.isdir(path) \
        else schema.validate_stream_file
    return validate(path, require_finished=require_finished)


def check_catalog(path, instantiate):
    from repro.scenarios.catalog import ScenarioCatalog

    try:
        catalog = ScenarioCatalog.from_file(path)
        if instantiate:
            catalog.instantiate()
    except (OSError, ValueError) as exc:
        return ["{}: {}".format(path, exc)]
    families = {entry["family"] for entry in catalog.entries}
    print("{}: OK  name={} schema={} entries={} families={} fingerprint={}"
          .format(path, catalog.name, catalog.schema, len(catalog.entries),
                  len(families), catalog.fingerprint()[:12]))
    return []


def check_journal(path, replay):
    from repro.service.state import OP_FIELDS, ServiceState, StateError
    from repro.service.storage import decode_record

    problems, records = [], []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            where = "{}:{}: ".format(path, number)
            if not line.strip():
                problems.append(where + "blank line")
                continue
            try:
                record = decode_record(line)
            except ValueError as exc:
                problems.append(where + str(exc))
                continue
            if record["op"] not in OP_FIELDS:
                problems.append(where + "unknown op {!r}".format(record["op"]))
                continue
            missing = [field for field in OP_FIELDS[record["op"]]
                       if field not in record["data"]]
            if missing:
                problems.append(where + "op {!r} missing field(s) {}".format(
                    record["op"], ", ".join(missing)))
            records.append(record)
    for previous, current in zip(records, records[1:]):
        if current["seq"] != previous["seq"] + 1:
            problems.append("{}: sequence gap: {} -> {}".format(
                path, previous["seq"], current["seq"]))
    if not replay or problems:
        return problems
    if records and records[0]["seq"] != 0:
        return ["{}: cannot replay: journal starts at seq {} "
                "(compacted?)".format(path, records[0]["seq"])]
    state = ServiceState()
    try:
        for record in records:
            state.apply(record["op"], record["t"], record["data"])
    except StateError as exc:
        return ["{}: replay failed at seq {}: {}".format(
            path, record["seq"], exc)]
    print("{}: {} record(s), fingerprint {}".format(
        path, len(records), state.fingerprint()))
    return []


#: kind -> (checker, the kind's stricter flag, that flag's help)
KINDS = {
    "telemetry": (check_telemetry, "--require-finished",
                  "also require a started and finished run"),
    "catalog": (check_catalog, "--instantiate", "also materialise each entry"),
    "journal": (check_journal, "--replay",
                "also replay it and print the state fingerprint"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    kinds = parser.add_subparsers(dest="kind", required=True)
    for kind, (__, flag, help_text) in KINDS.items():
        sub = kinds.add_parser(kind)
        sub.add_argument(flag, dest="strict", action="store_true",
                         help=help_text)
        sub.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    # Lint with this checkout's package (tools/../src), installed or not.
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    problems = []
    for path in args.paths:
        if os.path.exists(path):
            problems.extend(KINDS[args.kind][0](path, args.strict))
        else:
            problems.append("{}: no such file or directory".format(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    print("check_schema {}: {} problem(s) in {} path(s)".format(
        args.kind, len(problems), len(args.paths)))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
