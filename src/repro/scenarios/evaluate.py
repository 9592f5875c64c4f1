"""Catalog evaluation: scenario-days across mitigations, quality scores.

`repro scenarios` answers three questions per bug family:

- **containment** -- did the mitigation cut the buggy app's power draw
  to a fraction of its vanilla draw (rate + Wilson 95% CI)?
- **cost** -- how much system energy was saved, and how much app
  utility (UI updates + data writes) survived, relative to vanilla?
- **classifier quality** -- for lease-capable mitigations, did the
  behaviour classifier flag exactly the misbehaving compositions
  (precision / recall / F1 with Wilson CIs)? The misleading-burst
  family exists to expose false positives here.

Each (entry, mitigation) day is a module-level :func:`scenario_day`
dispatched as a :class:`~repro.experiments.grid.FuncSpec`, so the grid
runner's worker processes, supervision and content-addressed caching all
apply; aggregation folds the flat per-day scalars into per-family
:class:`~repro.fleet.stats.FleetStats`, the same mergeable accumulators
the fleet reports use. The report is canonical JSON (key-sorted,
compact, no timestamps) so determinism goldens can pin its sha256.
"""

from repro.experiments.grid import (
    FuncSpec,
    GridRunner,
    resolve_mitigation_factory,
)
from repro.fleet.report import _metric_block
from repro.fleet.stats import FleetStats, wilson_interval
from repro.io import canonical_json, left_sum
from repro.scenarios.catalog import ScenarioCatalog

#: Mitigations `repro scenarios` compares by default; vanilla is always
#: prepended as the containment/utility baseline.
DEFAULT_MITIGATIONS = ("leaseos", "doze", "defdroid")

#: A misbehaving scenario-day counts as *contained* when the mitigation
#: cut the buggy app's draw to at most this fraction of vanilla's.
#: The draw before the defect triggers is legitimate and identical in
#: both runs, so even a perfect post-defect revocation leaves a
#: sizeable residual -- halving the day's draw is the bar.
CONTAINMENT_FACTOR = 0.5

REPORT_KIND = "scenario_report"
REPORT_SCHEMA = 1

#: Metrics folded into per-family FleetStats (every one a flat scalar
#: out of :func:`scenario_day`).
_DAY_METRICS = (
    "system_power_mw",
    "buggy_power_mw",
    "battery_life_h",
    "disruptions",
    "utility_events",
)


def scenario_day(catalog_json, entry_index, mitigation, minutes=15.0,
                 seed=7):
    """Run one catalog entry for one simulated day under one mitigation.

    Module-level with scalar kwargs so it travels as a ``FuncSpec``;
    the worker re-materialises the catalog from its canonical JSON
    (registering its cases as a side effect) and returns flat JSON
    scalars only -- the phone and event heap die here.
    """
    from repro.scenarios.traces import merged_session_windows, user_script
    from repro.sim.summary import day_summary

    catalog = ScenarioCatalog.from_json(catalog_json)
    case = catalog.instantiate()[entry_index]
    entry = catalog.entries[entry_index]
    factory = resolve_mitigation_factory(mitigation)
    phone = case.build_phone(mitigation=factory() if factory else None,
                             seed=seed)
    app = phone.install(case.make_app())
    day_s = minutes * 60.0
    traces = catalog.entry_traces(entry_index, day_s)
    for trace in traces:
        trace.apply(phone)
    phone.sim.spawn(
        user_script(phone, [app.uid],
                    merged_session_windows(traces, day_s)),
        name="scenario.user")
    mark = phone.energy_mark()
    phone.run_for(minutes=minutes)

    summary = day_summary(phone, mark, buggy_uids=[app.uid])
    capable = phone.lease_manager is not None
    summary.update({
        "entry_index": entry_index,
        "family": entry["family"],
        "resource": entry["resource"],
        "mitigation": mitigation,
        "should_flag": 1 if case.behavior.is_misbehavior else 0,
        # One scenario app per day, so "no false negatives" == flagged.
        "flagged": 1 if capable and summary["fn_apps"] == 0 else 0,
        "classifier_capable": 1 if capable else 0,
        "utility_events": len(app.ui_update_times)
        + len(app.data_write_times),
    })
    return summary


def _specs(catalog_json, entry_count, mitigations, minutes, seed):
    specs, labels = [], []
    for mitigation in mitigations:
        for index in range(entry_count):
            specs.append(FuncSpec.make(
                scenario_day, catalog_json=catalog_json,
                entry_index=index, mitigation=mitigation,
                minutes=float(minutes), seed=int(seed)))
            labels.append("scenario:{}:{:03d}".format(mitigation, index))
    return specs, labels


def evaluate_catalog(catalog, mitigations=DEFAULT_MITIGATIONS,
                     minutes=15.0, seed=7, runner=None):
    """Run every catalog entry under vanilla + ``mitigations``.

    Returns the scenario report dict; serialise it with
    :func:`report_json` for the canonical artifact.
    """
    if runner is None:
        runner = GridRunner()
    names = ["vanilla"]
    for name in mitigations:
        resolve_mitigation_factory(name)  # fail fast on typos
        if name != "vanilla" and name not in names:
            names.append(name)
    catalog_json = catalog.to_json()
    count = len(catalog.entries)
    specs, labels = _specs(catalog_json, count, names, minutes, seed)
    rows = runner.run(specs, labels=labels)
    by_mitigation = {
        name: rows[i * count:(i + 1) * count]
        for i, name in enumerate(names)
    }
    return build_report(catalog, by_mitigation, minutes=minutes, seed=seed)


def _rate_block(successes, trials):
    rate, lo, hi = wilson_interval(successes, trials)
    return {"successes": successes, "trials": trials,
            "rate": round(rate, 6), "lo": round(lo, 6),
            "hi": round(hi, 6)}


def _classifier_block(rows):
    """Confusion counts + Wilson'd precision/recall/F1, or None."""
    rows = [r for r in rows if r and r["classifier_capable"]]
    if not rows:
        return None
    tp = sum(1 for r in rows if r["should_flag"] and r["flagged"])
    fp = sum(1 for r in rows if not r["should_flag"] and r["flagged"])
    fn = sum(1 for r in rows if r["should_flag"] and not r["flagged"])
    tn = sum(1 for r in rows if not r["should_flag"] and not r["flagged"])
    precision = _rate_block(tp, tp + fp)
    recall = _rate_block(tp, tp + fn)
    p, r = precision["rate"], recall["rate"]
    f1 = round(2.0 * p * r / (p + r), 6) if (p + r) > 0 else 0.0
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "precision": precision, "recall": recall, "f1": f1}


def _family_block(rows, vanilla_rows, is_vanilla):
    """Score one (mitigation, family) cell from its day rows.

    ``rows`` and ``vanilla_rows`` are parallel (same entries, same
    order); ``None`` rows (quarantined jobs) drop the pair.
    """
    stats = FleetStats()
    contained = trials = 0
    savings, utility_ratios = [], []
    for row, vanilla in zip(rows, vanilla_rows):
        if row is None or vanilla is None:
            stats.count("missing_days")
            continue
        for metric in _DAY_METRICS:
            stats.observe(metric, row[metric])
        stats.count("days")
        stats.count("flagged", row["flagged"])
        if row["should_flag"]:
            trials += 1
            if row["buggy_power_mw"] \
                    <= CONTAINMENT_FACTOR * vanilla["buggy_power_mw"]:
                contained += 1
        if vanilla["system_power_mw"] > 0:
            savings.append(100.0 * (1.0 - row["system_power_mw"]
                                    / vanilla["system_power_mw"]))
        if vanilla["utility_events"] > 0:
            utility_ratios.append(row["utility_events"]
                                  / vanilla["utility_events"])
    block = {
        "metrics": {metric: _metric_block(summary)
                    for metric, summary in sorted(stats.metrics.items())},
        "counters": dict(sorted(stats.counters.items())),
    }
    classifier = _classifier_block(rows)
    if classifier is not None:
        block["classifier"] = classifier
    if not is_vanilla:
        block["containment"] = _rate_block(contained, trials)
        if savings:
            block["energy_saved_pct"] = round(
                left_sum(savings) / len(savings), 6)
        if utility_ratios:
            block["utility_preserved"] = round(
                left_sum(utility_ratios) / len(utility_ratios), 6)
    return block


def build_report(catalog, by_mitigation, minutes, seed):
    """Aggregate per-day rows into the canonical scenario report."""
    vanilla_rows = by_mitigation["vanilla"]
    families = sorted({entry["family"] for entry in catalog.entries})
    indices_by_family = {
        family: [i for i, entry in enumerate(catalog.entries)
                 if entry["family"] == family]
        for family in families
    }
    mitigations = {}
    for name, rows in sorted(by_mitigation.items()):
        is_vanilla = name == "vanilla"
        per_family = {}
        for family in families:
            indices = indices_by_family[family]
            per_family[family] = _family_block(
                [rows[i] for i in indices],
                [vanilla_rows[i] for i in indices],
                is_vanilla)
        mitigations[name] = {
            "families": per_family,
            "overall": _family_block(rows, vanilla_rows, is_vanilla),
        }
    return {
        "kind": REPORT_KIND,
        "schema": REPORT_SCHEMA,
        "catalog": {
            "name": catalog.name,
            "seed": catalog.seed,
            "fingerprint": catalog.fingerprint(),
            "entries": len(catalog.entries),
            "families": families,
        },
        "minutes": float(minutes),
        "seed": int(seed),
        "mitigations": mitigations,
    }


def report_json(report):
    """Canonical JSON (key-sorted, compact) -- the golden-able artifact."""
    return canonical_json(report)


def render_report(report):
    """Human-readable per-family table for the CLI."""
    from repro.experiments.runner import format_table

    lines = [
        "scenario catalog {!r} (fingerprint {}..., {} entries)".format(
            report["catalog"]["name"],
            report["catalog"]["fingerprint"][:12],
            report["catalog"]["entries"]),
    ]
    headers = ["mitigation", "family", "contained", "energy-saved%",
               "utility-kept", "precision", "recall", "f1"]
    rows = []
    for name, data in sorted(report["mitigations"].items()):
        for family, block in sorted(data["families"].items()):
            containment = block.get("containment")
            classifier = block.get("classifier")

            def _ci(rate_block):
                if not rate_block["trials"]:
                    return "-"
                return "{:.2f} [{:.2f},{:.2f}]".format(
                    rate_block["rate"], rate_block["lo"], rate_block["hi"])

            rows.append([
                name,
                family,
                _ci(containment) if containment else "-",
                "{:.1f}".format(block["energy_saved_pct"])
                if "energy_saved_pct" in block else "-",
                "{:.2f}".format(block["utility_preserved"])
                if "utility_preserved" in block else "-",
                _ci(classifier["precision"]) if classifier else "-",
                _ci(classifier["recall"]) if classifier else "-",
                "{:.2f}".format(classifier["f1"])
                if classifier and classifier["recall"]["trials"] else "-",
            ])
    lines.append(format_table(headers, rows))
    return "\n".join(lines)
