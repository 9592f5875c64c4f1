"""The lease authority's replicated state and its single reducer.

Every mutation of the service -- live call or journal replay -- goes
through :meth:`ServiceState.apply`, the one reducer, with pure-data
arguments ``(op, t, data)``. That is what makes recovery byte-identical
by construction: the journal stores exactly the reducer inputs, so a
replayed state performs the *same float operations in the same order*
as the live one, and the canonical-JSON fingerprint pins it.

Nothing in here touches the wall clock, the filesystem or any RNG; the
state is a pure value. Ops:

- ``register`` ``{"name"}`` -- create a consumer;
- ``acquire`` ``{"consumer", "resource", "term_s"}`` -- new ACTIVE
  lease with the next monotonic id, expiring at ``t + term_s``;
- ``renew`` ``{"lease", "term_s"}`` -- extend an ACTIVE lease's term;
- ``release`` ``{"lease"}`` (+ optional ``"utility"``) -- ACTIVE ->
  RELEASED, folding the utility score into the stats moments;
- ``note_utility`` ``{"lease", "value"}`` (+ optional
  ``"misbehavior"``) -- fold a per-term utility observation without a
  state change;
- ``sweep`` ``{"expired": [...], "scheduled": bool}`` -- ACTIVE ->
  EXPIRED for each listed lease. The expired *list* is journaled (not
  recomputed on replay), so replay never re-derives a decision.
"""

import hashlib

from repro.fleet.stats import Moments
from repro.io import canonical_json

#: Bump on incompatible state-shape changes; snapshots carry it.
STATE_SCHEMA = 1

#: Service-level lease states. Deliberately smaller than the device
#: side's Fig. 5 machine: the authority tracks *who owns what until
#: when*; term-by-term behaviour policy stays in
#: :class:`repro.core.manager.LeaseManager`.
ACTIVE = "active"
RELEASED = "released"
EXPIRED = "expired"

#: Every op kind the reducer understands (also the journal vocabulary).
OP_KINDS = ("register", "acquire", "renew", "release", "note_utility",
            "sweep")

#: Required ``data`` fields per op, shared with the journal linter.
OP_FIELDS = {
    "register": ("name",),
    "acquire": ("consumer", "resource", "term_s"),
    "renew": ("lease", "term_s"),
    "release": ("lease",),
    "note_utility": ("lease", "value"),
    "sweep": ("expired", "scheduled"),
}


class StateError(Exception):
    """An op could not be applied (unknown lease, illegal transition)."""


def _lease_key(lease_id):
    """Zero-padded string key: JSON object keys sort like the ids."""
    return "{:08d}".format(lease_id)


class ServiceState:
    """The authority's whole persistent state, one reducer away."""

    def __init__(self):
        self.consumers = {}   # name -> {"registered_t": float}
        self.leases = {}      # _lease_key(id) -> lease record dict
        self.next_lease_id = 1
        self.op_seq = 0       # ops applied so far (== next journal seq)
        self.sweep_index = 0  # *scheduled* sweeps applied (cadence pos)
        self.swept_total = 0
        self.counts = {}      # op kind -> count, plus derived counters
        self.stats = {}       # "consumer|resource" -> Moments
        #: Global fold of every utility observation, in arrival order.
        #: The recovery invariant checks that merging the per-key
        #: moments agrees with this independent accumulator.
        self.stats_all = Moments()

    # -- the reducer -------------------------------------------------------

    def check(self, op, t, data):
        """Precondition check for one op: raises StateError, never
        mutates. ``apply`` runs it first, and the service's write-ahead
        path runs it *before* journaling, so an op the reducer would
        reject can never reach the journal and poison replay."""
        if op not in OP_KINDS:
            raise StateError("unknown service op {!r}".format(op))
        for field in OP_FIELDS[op]:
            if field not in data:
                raise StateError("op {!r} missing field {!r}".format(
                    op, field))
        if op == "register":
            if data["name"] in self.consumers:
                raise StateError("consumer {!r} already registered"
                                 .format(data["name"]))
        elif op == "acquire":
            if data["consumer"] not in self.consumers:
                raise StateError("unknown consumer {!r}".format(
                    data["consumer"]))
        elif op in ("renew", "release"):
            lease = self._lease(data)
            if lease["state"] != ACTIVE:
                raise StateError("cannot {} {} lease {}".format(
                    op, lease["state"], lease["id"]))
        elif op == "note_utility":
            self._lease(data)
        elif op == "sweep":
            for lease_id in data["expired"]:
                lease = self._lease({"lease": lease_id})
                if lease["state"] != ACTIVE:
                    raise StateError("sweep expired {} lease {}".format(
                        lease["state"], lease["id"]))

    def apply(self, op, t, data):
        """Apply one op. The only mutator, live and during replay.

        ``check`` runs before any handler touches the state, so a
        rejected op -- including a sweep listing one bad lease among
        good ones -- leaves the state byte-identically unchanged.
        """
        self.check(op, t, data)
        getattr(self, "_op_" + op)(float(t), data)
        self.op_seq += 1
        self.counts[op] = self.counts.get(op, 0) + 1

    def _op_register(self, t, data):
        self.consumers[data["name"]] = {"registered_t": t}

    def _op_acquire(self, t, data):
        consumer = data["consumer"]
        lease_id = self.next_lease_id
        self.next_lease_id += 1
        term_s = float(data["term_s"])
        self.leases[_lease_key(lease_id)] = {
            "id": lease_id,
            "consumer": consumer,
            "resource": data["resource"],
            "state": ACTIVE,
            "acquired_t": t,
            "term_s": term_s,
            "expires_t": t + term_s,
            "renewals": 0,
            "released_t": None,
        }

    def _lease(self, data):
        lease = self.leases.get(_lease_key(int(data["lease"])))
        if lease is None:
            raise StateError("unknown lease {}".format(data["lease"]))
        return lease

    def _op_renew(self, t, data):
        lease = self._lease(data)
        term_s = float(data["term_s"])
        lease["term_s"] = term_s
        lease["expires_t"] = t + term_s
        lease["renewals"] += 1

    def _op_release(self, t, data):
        lease = self._lease(data)
        lease["state"] = RELEASED
        lease["released_t"] = t
        utility = data.get("utility")
        if utility is not None:
            self._fold_utility(lease, float(utility))

    def _op_note_utility(self, t, data):
        lease = self._lease(data)
        self._fold_utility(lease, float(data["value"]))
        if data.get("misbehavior"):
            self.counts["misbehaviors"] = \
                self.counts.get("misbehaviors", 0) + 1

    def _op_sweep(self, t, data):
        for lease_id in data["expired"]:
            lease = self._lease({"lease": lease_id})
            lease["state"] = EXPIRED
            lease["released_t"] = t
        self.swept_total += len(data["expired"])
        if data["scheduled"]:
            self.sweep_index += 1

    def _fold_utility(self, lease, value):
        key = "{}|{}".format(lease["consumer"], lease["resource"])
        moments = self.stats.get(key)
        if moments is None:
            moments = self.stats[key] = Moments()
        moments.add(value)
        self.stats_all.add(value)

    # -- queries -----------------------------------------------------------

    def lease(self, lease_id):
        """The lease record dict, or None."""
        return self.leases.get(_lease_key(int(lease_id)))

    def active_leases(self):
        """ACTIVE lease records, ascending by id."""
        return [lease for __, lease in sorted(self.leases.items())
                if lease["state"] == ACTIVE]

    def expired_by(self, now):
        """Ids of ACTIVE leases whose term has lapsed at ``now``."""
        return [lease["id"] for lease in self.active_leases()
                if lease["expires_t"] <= now]

    def leases_for(self, consumer):
        return [lease for __, lease in sorted(self.leases.items())
                if lease["consumer"] == consumer]

    # -- canonical form ----------------------------------------------------

    def to_canonical(self):
        """A pure-JSON dict capturing the whole state, key-sorted."""
        return {
            "schema": STATE_SCHEMA,
            "consumers": {name: dict(record) for name, record
                          in sorted(self.consumers.items())},
            "leases": {key: dict(lease) for key, lease
                       in sorted(self.leases.items())},
            "next_lease_id": self.next_lease_id,
            "op_seq": self.op_seq,
            "sweep_index": self.sweep_index,
            "swept_total": self.swept_total,
            "counts": dict(sorted(self.counts.items())),
            "stats": {key: moments.to_dict() for key, moments
                      in sorted(self.stats.items())},
            "stats_all": self.stats_all.to_dict(),
        }

    def to_json(self):
        """Compact canonical JSON (lossless float round-trip)."""
        return canonical_json(self.to_canonical())

    def fingerprint(self):
        """sha256 over the canonical JSON: the recovery contract."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_canonical(cls, payload):
        if payload.get("schema") != STATE_SCHEMA:
            raise StateError("state schema {} != {}".format(
                payload.get("schema"), STATE_SCHEMA))
        state = cls()
        state.consumers = {name: dict(record) for name, record
                           in payload["consumers"].items()}
        state.leases = {key: dict(lease) for key, lease
                        in payload["leases"].items()}
        state.next_lease_id = payload["next_lease_id"]
        state.op_seq = payload["op_seq"]
        state.sweep_index = payload["sweep_index"]
        state.swept_total = payload["swept_total"]
        state.counts = dict(payload["counts"])
        state.stats = {key: Moments.from_dict(data) for key, data
                       in payload["stats"].items()}
        state.stats_all = Moments.from_dict(payload["stats_all"])
        return state
