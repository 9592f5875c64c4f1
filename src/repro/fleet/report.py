"""Population-scale comparison report: the fleet analogue of Table 5.

Builds one machine-readable document (``results/fleet_*.json``) and one
human table from the merged per-mitigation
:class:`~repro.fleet.stats.FleetStats`: battery-life distributions,
waste-reduction quantiles vs the paired per-device vanilla baseline,
lease traffic (renewals / deferrals / revocations), and the
false-positive / false-negative rates of the lease classifier with
Wilson 95% confidence intervals -- the population-level counterparts of
the paper's Table 5 and §7 deployment observations.

The JSON is canonical (sorted keys, fixed separators, no timestamps),
so two runs of the same population -- interrupted or not -- produce
byte-identical files; the determinism goldens pin that.
"""

import json
import os

from repro.fleet.stats import wilson_interval
from repro.io import atomic_write, canonical_json
from repro.version import __version__

#: Quantiles reported for every distribution metric.
QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _metric_block(summary):
    moments = summary.moments
    block = {
        "count": moments.count,
        "mean": moments.mean,
        "stdev": moments.stdev,
        "min": moments.min,
        "max": moments.max,
        "quantiles": {
            "p{:02.0f}".format(q * 100): summary.digest.quantile(q)
            for q in QUANTILES
        },
        "histogram": summary.histogram.to_dict(),
    }
    return block


def build_report(population, merged, execution=None):
    """The full report dict for a completed fleet run.

    ``merged`` is ``{mitigation: FleetStats}`` from
    :meth:`~repro.fleet.shard.FleetRunner.merged_stats`. ``execution``
    is an optional provenance block (execution mode, transition-table
    fingerprint, cross-validation results -- deterministic facts only,
    never host- or timing-dependent ones); when omitted the report's
    bytes are exactly what they were before the block existed, which
    the determinism goldens pin.
    """
    mitigations = {}
    for name in population.mitigations:
        stats = merged[name]
        counters = dict(stats.counters)
        block = {
            "counters": {k: counters[k] for k in sorted(counters)},
            "metrics": {metric: _metric_block(summary)
                        for metric, summary
                        in sorted(stats.metrics.items())},
        }
        normal = counters.get("normal_apps", 0)
        buggy = counters.get("buggy_apps", 0)
        if name != "vanilla":
            fp, fp_lo, fp_hi = wilson_interval(
                counters.get("fp_apps", 0), normal)
            fn, fn_lo, fn_hi = wilson_interval(
                counters.get("fn_apps", 0), buggy)
            block["classifier"] = {
                "fp_rate": fp, "fp_ci95": [fp_lo, fp_hi],
                "fn_rate": fn, "fn_ci95": [fn_lo, fn_hi],
                "normal_apps": normal, "buggy_apps": buggy,
            }
        mitigations[name] = block
    report = {
        "kind": "fleet_report",
        "version": __version__,
        "population": json.loads(population.to_json()),
        "fingerprint": population.fingerprint(),
        "shards": population.shard_count,
        "devices": population.devices,
        "mitigations": mitigations,
    }
    if execution is not None:
        report["execution"] = execution
    return report


def report_json(report):
    """Canonical bytes of a report -- the byte-identical artifact."""
    return canonical_json(report)


def default_report_path(population, directory="results"):
    return os.path.join(directory, "fleet_s{}_d{}.json".format(
        population.seed, population.devices))


def write_report(report, path=None, directory="results"):
    """Write the canonical JSON artifact; returns its path."""
    if path is None:
        from repro.fleet.population import PopulationSpec

        population = PopulationSpec.from_json(
            json.dumps(report["population"]))
        path = default_report_path(population, directory)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    atomic_write(path, report_json(report) + "\n")
    return path


# -- rendering ----------------------------------------------------------------

def fmt(value, pattern="{:.2f}"):
    """``value`` formatted with ``pattern``, or ``-`` when it is None."""
    return pattern.format(value) if value is not None else "-"


def render(report):
    """Human-readable fleet comparison (one table + classifier lines)."""
    from repro.experiments.runner import format_table

    population = report["population"]
    headers = ["mitigation", "battery h (mean)", "p05", "p50", "p95",
               "waste cut % (p50)", "p25..p75", "deferrals/dev",
               "disruptions/dev"]
    rows = []
    for name in population["mitigations"]:
        block = report["mitigations"][name]
        life = block["metrics"]["battery_life_h"]
        counters = block["counters"]
        devices = max(counters.get("devices", 0), 1)
        waste = block["metrics"].get("waste_reduction_pct")
        rows.append([
            name,
            fmt(life["mean"]),
            fmt(life["quantiles"]["p05"]),
            fmt(life["quantiles"]["p50"]),
            fmt(life["quantiles"]["p95"]),
            fmt(waste["quantiles"]["p50"]) if waste else "-",
            "{}..{}".format(fmt(waste["quantiles"]["p25"], "{:.1f}"),
                            fmt(waste["quantiles"]["p75"], "{:.1f}"))
            if waste else "-",
            fmt(counters.get("deferrals", 0) / devices),
            fmt(counters.get("disruptions", 0) / devices),
        ])
    title = ("Fleet comparison: {} devices x {} mitigations, seed {}, "
             "{} shards of <= {} devices, {:.0f} sim-min each"
             .format(report["devices"],
                     len(population["mitigations"]), population["seed"],
                     report["shards"], population["shard_size"],
                     population["minutes"]))
    lines = [format_table(headers, rows, title=title)]
    for name in population["mitigations"]:
        classifier = report["mitigations"][name].get("classifier")
        if not classifier:
            continue
        lines.append(
            "{}: FP rate {:.2%} (95% CI {:.2%}..{:.2%} over {} normal "
            "app-days), FN rate {:.2%} (CI {:.2%}..{:.2%} over {} buggy "
            "app-days)".format(
                name, classifier["fp_rate"], *classifier["fp_ci95"],
                classifier["normal_apps"], classifier["fn_rate"],
                *classifier["fn_ci95"], classifier["buggy_apps"]))
    chaos = population.get("chaos_rate", 0)
    if chaos:
        total_faults = sum(
            report["mitigations"][m]["counters"].get("faults_applied", 0)
            for m in population["mitigations"])
        lines.append("chaos: rate {:.0%}, {} faults applied fleet-wide"
                     .format(chaos, total_faults))
    # Executor provenance: which engine composed the device-days. The
    # counters are per-mitigation device-days, summed fleet-wide here.
    fast_days = sum(
        report["mitigations"][m]["counters"].get("fastpath_devices", 0)
        for m in population["mitigations"])
    if fast_days:
        vector_days = sum(
            report["mitigations"][m]["counters"].get("vector_devices", 0)
            for m in population["mitigations"])
        fallbacks = sum(
            report["mitigations"][m]["counters"].get(
                "fastpath_fallbacks", 0)
            for m in population["mitigations"])
        lines.append(
            "executor: {} table-replayed device-day(s) ({} columnar-"
            "composed), {} kernel fallback(s)".format(
                fast_days, vector_days, fallbacks))
    return "\n".join(lines)
