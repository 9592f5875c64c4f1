"""ConnectivityService: simulated network requests.

Apps perform requests from inside their processes with
``yield from ctx.net.request(app, "server")``. The call occupies the
radio (a per-app power rail) for the outcome's duration, then either
returns normally or raises one of the :mod:`repro.droid.exceptions`
network exceptions (which are noted with the ExceptionNoteHandler -- the
paper's generic low-utility signal).

If the device suspends mid-request (e.g. LeaseOS deferred the app's last
wakelock), the transfer is marked interrupted and raises a socket timeout
when the app resumes -- exactly the Section 4.6 semantics ("an I/O
exception due to timeout might occur ... the app is already required to
handle such exception").
"""

from repro.droid.exceptions import (
    NoRouteException,
    ServerErrorException,
    SocketTimeoutException,
)
from repro.sim.events import Timeout


class _Transfer:
    __slots__ = ("id", "uid", "interrupted")

    def __init__(self, ident, uid):
        self.id = ident
        self.uid = uid
        self.interrupted = False


class _Radio:
    """One uid's transfers in flight and its ``net:<uid>`` rail."""

    __slots__ = ("transfers", "live", "rail", "owners")

    def __init__(self, uid):
        self.transfers = set()
        #: Transfers in flight that no suspend interrupted.
        self.live = 0
        self.rail = "net:{}".format(uid)
        self.owners = (uid,)


class ConnectivityService:
    name = "connectivity"

    def __init__(self, sim, monitor, profile, env, exceptions, suspend):
        self.sim = sim
        self.monitor = monitor
        self.profile = profile
        self.env = env
        self.exceptions = exceptions
        self._radios = {}  # uid -> _Radio
        self.request_count = 0
        self.wifi_service = None  # wired by Phone for lock accounting
        #: Optional ``restrictor(uid) -> bool``; False makes requests from
        #: that uid fail as if there were no network (Doze's background
        #: network deferral).
        self.restrictor = None
        suspend.on_transition(self._on_suspend)

    def is_connected(self):
        return self.env.network.connected

    def request(self, app, server, payload_s=0.0):
        """Generator: perform one request; must be ``yield from``-ed.

        Returns the :class:`~repro.env.network.RequestOutcome` on success;
        raises a network exception otherwise.
        """
        app.ipc("connectivity", "request")
        self.request_count += 1
        outcome = self.env.network.request_outcome(
            server, app.rng, payload_s
        )
        if self.restrictor is not None and not self.restrictor(app.uid):
            from repro.env.network import RequestOutcome
            outcome = RequestOutcome("no_network", 0.05)
        transfer = _Transfer(next(self.sim.ids), app.uid)
        started = self.sim.now
        self._begin(transfer)
        try:
            yield Timeout(outcome.duration)
        finally:
            self._end(transfer)
            duration = self.sim.now - started
            if self.wifi_service is not None and duration > 0:
                self.wifi_service.note_transfer(app.uid, duration)
        if transfer.interrupted:
            return self._fail(app, SocketTimeoutException(
                "transfer interrupted by device suspend"))
        if outcome.status == "ok":
            return outcome
        if outcome.status == "no_network":
            return self._fail(app, NoRouteException("no connectivity"))
        if outcome.status == "error":
            return self._fail(app, ServerErrorException(
                "server {} returned an error".format(server)))
        return self._fail(app, SocketTimeoutException(
            "request to {} timed out".format(server)))

    def _fail(self, app, exception):
        self.exceptions.note(app.uid, exception)
        raise exception

    # -- radio power -----------------------------------------------------------

    def _transfer_power(self):
        if self.env.network.kind == "wifi":
            return self.profile.wifi_active_mw
        return self.profile.radio_active_mw

    def _begin(self, transfer):
        radio = self._radios.get(transfer.uid)
        if radio is None:
            radio = self._radios[transfer.uid] = _Radio(transfer.uid)
        radio.transfers.add(transfer)
        radio.live += 1
        self._refresh_rail(radio)

    def _end(self, transfer):
        radio = self._radios[transfer.uid]
        radio.transfers.discard(transfer)
        if not transfer.interrupted:
            radio.live -= 1
        self._refresh_rail(radio)

    def _refresh_rail(self, radio):
        power = self._transfer_power() if radio.live else 0.0
        self.monitor.set_rail(radio.rail, power, radio.owners)

    def _on_suspend(self, suspended):
        if not suspended:
            return
        # The radio stops; in-flight app transfers will time out on resume.
        for radio in self._radios.values():
            if radio.live:
                for transfer in radio.transfers:
                    transfer.interrupted = True
                radio.live = 0
                self._refresh_rail(radio)
