"""Versioned, fingerprinted scenario catalogs.

A :class:`ScenarioCatalog` is the JSON contract between "which bugs
exist in this study" and everything that consumes them: `repro
scenarios` evaluation, fleet populations
(:class:`~repro.fleet.population.PopulationSpec.catalog_json`), CI
goldens. The canonical JSON (key-sorted, compact) is the identity; its
sha256 fingerprints every derived artifact, exactly like population
fingerprints.

Determinism discipline mirrors ``PopulationSpec``: entry ``i`` draws its
parameters from ``random.Random(sha256("{seed}:{i}"))`` and its traces
from ``sha256("{seed}:{i}:{trace_kind}")``, so any process can
materialise any entry independently and byte-identically.

Instantiating a catalog registers its generated cases into the shared
buggy-app registry (:mod:`repro.apps.buggy.registry`) under
``scenario:<family>:<resource>:<index>`` keys, which is what lets
``DeviceSpec.buggy_apps`` carry scenario keys through the existing fleet
machinery unchanged.
"""

import hashlib
import json
import random

from repro.apps.buggy.registry import register_scenario_cases
from repro.apps.spec import CaseSpec
from repro.io import canonical_json
from repro.scenarios.families import FAMILIES, RESOURCE_DRIVERS
from repro.scenarios.traces import TRACE_KINDS, build_trace

#: Catalog JSON schema version; bump on any change to the spec fields
#: or the parameter-draw sequence (both alter generated behaviour).
CATALOG_SCHEMA_VERSION = 1


def scenario_key(family, resource, index):
    """The registry key for one generated case."""
    return "scenario:{}:{}:{:03d}".format(family, resource, index)


class ScenarioCatalog:
    """An ordered list of (family, resource, traces) scenario entries."""

    def __init__(self, name, seed, entries, schema=CATALOG_SCHEMA_VERSION):
        self.name = str(name)
        self.seed = int(seed)
        self.schema = int(schema)
        self.entries = tuple(
            self._normalise(i, entry) for i, entry in enumerate(entries))
        self._cases = None

    @staticmethod
    def _normalise(index, entry):
        family = entry.get("family")
        if family not in FAMILIES:
            raise ValueError(
                "entry {}: unknown family {!r} (known: {})".format(
                    index, family, ", ".join(sorted(FAMILIES))))
        resource = entry.get("resource")
        if resource not in RESOURCE_DRIVERS:
            raise ValueError(
                "entry {}: unknown resource {!r} (known: {})".format(
                    index, resource, ", ".join(sorted(RESOURCE_DRIVERS))))
        if resource not in FAMILIES[family].supported:
            raise ValueError(
                "entry {}: family {!r} does not compose with resource "
                "{!r} (supported: {})".format(
                    index, family, resource,
                    ", ".join(FAMILIES[family].supported)))
        traces = tuple(entry.get("traces", ()))
        for kind in traces:
            if kind not in TRACE_KINDS:
                raise ValueError(
                    "entry {}: unknown trace kind {!r} (known: {})".format(
                        index, kind, ", ".join(TRACE_KINDS)))
        params = dict(entry.get("params", {}))
        for key, value in params.items():
            if not isinstance(value, (int, float)):
                raise ValueError(
                    "entry {}: param {!r} must be a number, got {!r}"
                    .format(index, key, value))
        normalised = {"family": family, "resource": resource,
                      "traces": list(traces)}
        if params:
            normalised["params"] = params
        return normalised

    # -- serialisation -----------------------------------------------------

    def to_jsonable(self):
        return {
            "kind": "scenario_catalog",
            "schema": self.schema,
            "name": self.name,
            "seed": self.seed,
            "entries": [dict(entry) for entry in self.entries],
        }

    def to_json(self):
        """Canonical JSON: key-sorted, compact -- the fingerprint input."""
        return canonical_json(self.to_jsonable())

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if data.get("kind") != "scenario_catalog":
            raise ValueError(
                "not a scenario catalog (kind={!r})".format(data.get("kind")))
        schema = data.get("schema")
        if schema != CATALOG_SCHEMA_VERSION:
            raise ValueError(
                "catalog schema {} not supported (this build reads "
                "schema {})".format(schema, CATALOG_SCHEMA_VERSION))
        return cls(name=data.get("name", ""), seed=data.get("seed", 0),
                   entries=data.get("entries", ()), schema=schema)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def fingerprint(self):
        """sha256 of the canonical JSON -- the catalog's identity."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    # -- deterministic materialisation -------------------------------------

    def sub_seed(self, index, salt=""):
        """Per-entry sub-seed (``PopulationSpec`` discipline)."""
        token = "{}:{}{}".format(self.seed, index,
                                 ":" + salt if salt else "")
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def entry_key(self, index):
        entry = self.entries[index]
        return scenario_key(entry["family"], entry["resource"], index)

    def entry_params(self, index):
        """Entry ``index``'s effective parameters (seeded + overrides)."""
        entry = self.entries[index]
        family = FAMILIES[entry["family"]]
        driver = RESOURCE_DRIVERS[entry["resource"]]
        rng = random.Random(self.sub_seed(index))
        params = family.sample_params(rng, driver)
        params.update(entry.get("params", {}))
        return params

    def entry_traces(self, index, day_s):
        """Entry ``index``'s environment traces for a ``day_s`` horizon."""
        entry = self.entries[index]
        return [
            build_trace(kind, self.sub_seed(index, salt=kind), day_s)
            for kind in entry["traces"]
        ]

    def instantiate(self):
        """Materialise every entry as a registered :class:`CaseSpec`.

        Idempotent per process; the cases land in the shared registry so
        plain ``resolve_case(key)`` works everywhere afterwards.
        """
        if self._cases is not None:
            return self._cases
        cases = []
        for index, entry in enumerate(self.entries):
            family = FAMILIES[entry["family"]]
            driver = RESOURCE_DRIVERS[entry["resource"]]
            key = self.entry_key(index)
            params = self.entry_params(index)
            case = CaseSpec(
                key=key,
                app_factory=_AppFactory(family, driver, key, params),
                category="scenario",
                resource=driver.resource,
                behavior=family.behavior(driver),
                description="{} x {} ({})".format(
                    entry["family"], entry["resource"], family.droidleaks),
                phone_kwargs=family.phone_kwargs(driver),
                servers=family.servers(),
            )
            cases.append(case)
        register_scenario_cases(cases, self.fingerprint())
        self._cases = cases
        return cases


class _AppFactory:
    """Picklable zero-arg factory binding one entry's app together."""

    def __init__(self, family, driver, key, params):
        self.family = family
        self.driver = driver
        self.key = key
        self.params = params

    def __call__(self):
        return self.family.build(self.key, self.driver, self.params)


def default_catalog(seed=2019, name="droidleaks-default"):
    """The standing study catalog: every supported family x resource.

    Trace assignment follows the defect: every entry gets a diurnal
    interaction pattern; network-dependent compositions get outage
    windows; leak-family GPS entries get weak-GPS episodes. Families
    that already run in a *stressed* ambient (weak-signal FAB probes)
    skip the weak-GPS trace -- its restore events would lift the
    ambient out of the stressed regime -- and so does the clean
    misleading-burst control.
    """
    entries = []
    for family_name, family in sorted(FAMILIES.items()):
        for resource in family.supported:
            traces = ["diurnal"]
            if (resource == "gps" and not family.stress_environment
                    and family_name != "misleading-burst"):
                traces.append("weak-gps")
            if family_name == "missed-release-exception" \
                    or resource == "wifi":
                traces.append("network-outage")
            entries.append({"family": family_name, "resource": resource,
                            "traces": traces})
    return ScenarioCatalog(name=name, seed=seed, entries=entries)
