"""One registration path for every buggy-app case.

Three tiers share it:

- **Table 5 cases** (the paper's 20 apps): registered by the six
  per-resource modules at import time, exported as ``BUGGY_CASES`` /
  ``CASES_BY_KEY`` from :mod:`repro.apps.buggy`. Their key set is
  load-bearing -- ``repro.fleet.population.BUGGY_POOL`` is
  ``sorted(CASES_BY_KEY)`` and feeds every fleet fingerprint -- so only
  the canonical Table 5 modules may register into this tier.
- **Extension cases** (audio/bluetooth, not in Table 5): resolvable by
  key but deliberately kept out of ``CASES_BY_KEY`` so the fleet
  sampling pool (and with it every existing population fingerprint)
  never changes.
- **Scenario cases** (:mod:`repro.scenarios`): generated at runtime
  from a :class:`~repro.scenarios.catalog.ScenarioCatalog`. Keys carry
  the :data:`SCENARIO_PREFIX` so every layer (shard construction, the
  table-replay guards, telemetry) can recognise them without importing
  the generator; re-registration with an identical spec is a no-op,
  with a *different* spec an error (two catalogs must not silently
  fight over one key).

:func:`resolve_case` is the single lookup every consumer
(:func:`repro.fleet.shard.build_device_phone`,
:func:`repro.experiments.grid.resolve_case`, the table probes)
goes through.
"""

#: Key prefix marking a generated scenario case. Population specs may
#: carry these keys in ``DeviceSpec.buggy_apps``; the table-replay
#: engine routes any device holding one to the kernel.
SCENARIO_PREFIX = "scenario:"

#: Table 5 rows, in the paper's order (cpu, screen, gps, sensor).
BUGGY_CASES = []

#: Table 5 rows by key -- the fleet sampling pool's source of truth.
CASES_BY_KEY = {}

#: Extension cases by key (audio/bluetooth): resolvable, never pooled.
EXTENSION_CASES_BY_KEY = {}

#: Generated scenario cases by key, populated by catalog instantiation.
SCENARIO_CASES_BY_KEY = {}


def register_case(case, extension=False):
    """Register one :class:`~repro.apps.spec.CaseSpec`; returns it.

    Usable as a decorator on zero-arg case factories too (see
    :func:`registered`), but the per-resource modules simply call it on
    each literal spec. Duplicate keys are an error: every case key must
    resolve to exactly one spec.
    """
    if case.key.startswith(SCENARIO_PREFIX):
        raise ValueError(
            "case key {!r} uses the reserved scenario prefix; register "
            "generated cases via register_scenario_cases".format(case.key))
    target = EXTENSION_CASES_BY_KEY if extension else CASES_BY_KEY
    if case.key in CASES_BY_KEY or case.key in EXTENSION_CASES_BY_KEY:
        raise ValueError("duplicate case key {!r}".format(case.key))
    target[case.key] = case
    if not extension:
        BUGGY_CASES.append(case)
    return case


def register_cases(cases, extension=False):
    """Register a module's case list through the shared path."""
    for case in cases:
        register_case(case, extension=extension)
    return cases


def register_scenario_cases(cases, fingerprint):
    """Register generated scenario cases (idempotent per fingerprint).

    ``fingerprint`` is the owning catalog's sha256: re-registering the
    same key from the same catalog build is a no-op (workers
    re-materialise catalogs per process), while a key collision across
    *different* catalogs raises -- silent replacement would let two
    populations disagree about what a key simulates.
    """
    for case in cases:
        if not case.key.startswith(SCENARIO_PREFIX):
            raise ValueError(
                "scenario case key {!r} must start with {!r}".format(
                    case.key, SCENARIO_PREFIX))
        existing = SCENARIO_CASES_BY_KEY.get(case.key)
        if existing is not None:
            if existing[1] != fingerprint:
                raise ValueError(
                    "scenario key {!r} already registered by catalog "
                    "{}; refusing to overwrite with catalog {}".format(
                        case.key, existing[1][:12], fingerprint[:12]))
            continue
        SCENARIO_CASES_BY_KEY[case.key] = (case, fingerprint)
    return cases


def is_scenario_key(key):
    """True for keys minted by the scenario generator."""
    return key.startswith(SCENARIO_PREFIX)


def scenario_families(buggy_apps):
    """Sorted distinct scenario family names in a buggy-app key tuple.

    Key layout (see :func:`repro.scenarios.catalog.scenario_key`):
    ``scenario:<family>:<resource>:<index>``; non-scenario keys
    contribute nothing.
    """
    families = {key.split(":", 2)[1] for key in buggy_apps
                if key.startswith(SCENARIO_PREFIX)}
    return sorted(families)


def resolve_case(key):
    """The one lookup for any buggy-case key, whatever its tier."""
    case = CASES_BY_KEY.get(key)
    if case is not None:
        return case
    case = EXTENSION_CASES_BY_KEY.get(key)
    if case is not None:
        return case
    entry = SCENARIO_CASES_BY_KEY.get(key)
    if entry is not None:
        return entry[0]
    if key.startswith(SCENARIO_PREFIX):
        raise KeyError(
            "scenario case {!r} is not registered in this process; "
            "instantiate its catalog first (populations carrying "
            "catalog_json do this automatically)".format(key))
    raise KeyError(key)
