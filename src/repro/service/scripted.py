"""A seeded scripted service day: the crash matrix's workload.

The crash matrix needs a workload with two properties:

1. **Determinism** -- the same ``(seed, apps, ops)`` always produces
   the same journal bytes and the same final state fingerprint.
2. **Resumability** -- a run killed at *any* journal record boundary
   can be recovered and *continued*, and the continued run's final
   fingerprint equals the uninterrupted run's, byte for byte.

Both come from one rule: scripted step ``k`` is a pure function of
``(seed, k)`` plus the current state. Each step owns a fresh
``Random((seed << 20) | k)``, so no RNG stream survives between steps
-- there is nothing to persist. The number of *completed* steps is
itself derivable from the recovered state (each step commits exactly
one action op of the four kinds counted by
:func:`completed_steps`; registers and sweeps are derived, idempotent
side-effects), so a recovered service knows exactly where to pick the
script back up. A crash mid-step (say between an auto-``register`` and
its ``acquire``) re-runs the step; the already-committed prefix is
idempotent (``ensure_registered``), so the journal the resumed run
appends is the journal the uninterrupted run would have written.
"""

from random import Random

#: Simulation seconds between scripted steps.
STEP_INTERVAL_S = 30.0

#: Resources the scripted apps contend for (paper Table 1 spirit).
RESOURCES = ("gps", "wakelock", "net")

#: Candidate lease terms; shorter than a few sweep intervals so the
#: sweeper has real work (unrenewed leases genuinely expire mid-day).
TERMS_S = (45.0, 90.0, 180.0)

#: The op kinds that each count one completed scripted step.
_ACTION_OPS = ("acquire", "renew", "release", "note_utility")


def completed_steps(state):
    """How many scripted steps a (possibly recovered) state completed."""
    return sum(state.counts.get(op, 0) for op in _ACTION_OPS)


def step_time(index):
    """Simulation time of scripted step ``index``; pure in ``index``."""
    return (index + 1) * STEP_INTERVAL_S


def run_scripted_day(service, seed, apps=3, ops=120):
    """Drive ``service`` through the scripted day (or its remainder).

    Starts from :func:`completed_steps` of the service's current state,
    so calling this on a freshly-recovered service finishes the exact
    run the crashed process started. Returns a summary dict.
    """
    apps = max(int(apps), 1)
    ops = int(ops)
    start = completed_steps(service.state)
    for index in range(start, ops):
        t = step_time(index)
        service.maybe_sweep(t)
        _scripted_step(service, seed, index, t, apps)
    end_t = step_time(ops)
    service.maybe_sweep(end_t)
    service.flush()
    state = service.state
    return {
        "seed": seed,
        "apps": apps,
        "ops": ops,
        "steps_run": ops - start,
        "op_seq": state.op_seq,
        "active": len(state.active_leases()),
        "swept": state.swept_total,
        "fingerprint": service.fingerprint(),
    }


def _scripted_step(service, seed, index, t, apps):
    """One action op, chosen by the step's own seeded Random."""
    rng = Random((seed << 20) | index)
    active = service.state.active_leases()
    roll = rng.random()
    if not active or roll < 0.35:
        consumer = "app{}".format(rng.randrange(apps))
        service.ensure_registered(consumer, t=t)
        service.acquire(consumer, RESOURCES[rng.randrange(len(RESOURCES))],
                        t=t, term_s=TERMS_S[rng.randrange(len(TERMS_S))])
    elif roll < 0.55:
        lease = active[rng.randrange(len(active))]
        service.renew(lease["id"], t=t,
                      term_s=TERMS_S[rng.randrange(len(TERMS_S))])
    elif roll < 0.80:
        lease = active[rng.randrange(len(active))]
        service.note_utility(lease["id"], rng.uniform(0.0, 1.0), t=t,
                             misbehavior=rng.random() < 0.1)
    else:
        lease = active[rng.randrange(len(active))]
        service.release(lease["id"], t=t,
                        utility=rng.uniform(0.0, 1.0))
