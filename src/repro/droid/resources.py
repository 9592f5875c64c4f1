"""Resource identities: binder tokens, resource types, kernel objects
and the services that own them, listener registrations among them."""

import enum


class ResourceType(enum.Enum):
    """The constrained resources LeaseOS manages (paper Table 1)."""

    WAKELOCK = "wakelock"  # partial wakelock: keeps the CPU awake
    SCREEN = "screen"  # screen-bright wakelock: keeps the display on
    GPS = "gps"  # location updates
    SENSOR = "sensor"  # accelerometer / orientation / etc. listeners
    WIFI = "wifi"  # Wi-Fi high-performance lock
    AUDIO = "audio"  # audio session
    BLUETOOTH = "bluetooth"  # discovery scans / connections


class IBinder:
    """A unique IPC token identifying one kernel object.

    In Android the app-side wrapper holds an ``IBinder`` whose kernel-side
    twin lives in the owning system service; the pair is the 1:1 mapping
    LeaseOS relies on (Section 4.2). Its id comes from the owning
    device's simulator (``next(sim.ids)``).
    """

    __slots__ = ("id",)

    def __init__(self, ident):
        self.id = ident

    def __hash__(self):
        return hash(self.id)

    def __eq__(self, other):
        return isinstance(other, IBinder) and other.id == self.id

    def __repr__(self):
        return "IBinder#{}".format(self.id)


class KernelObject:
    """Base class for the per-resource records system services keep.

    ``app_held`` is the *app's view* (it called acquire and has not called
    release); ``os_active`` is whether the OS is actually honouring the
    resource right now. A governor that temporarily revokes a resource
    flips ``os_active`` off while ``app_held`` stays true -- the app-side
    descriptor remains valid and the app logic is unaffected (Section 4.6).
    """

    def __init__(self, sim, uid, rtype, name=""):
        self.sim = sim
        self.uid = uid
        self.rtype = rtype
        self.name = name
        self.token = IBinder(next(sim.ids))
        self.app_held = False
        self.os_active = False
        self.dead = False
        self.created_at = sim.now
        #: The owning :class:`KernelObjectService`, set when it registers
        #: the record.
        self.service = None
        # cumulative accounting
        self.active_time = 0.0  # seconds os_active was true
        self.held_time = 0.0  # seconds app_held was true
        self._active_since = None
        self._held_since = None
        self.acquire_count = 0
        self.release_count = 0

    # -- state transitions (used by the owning service) ---------------------

    def settle(self):
        """Fold elapsed active/held intervals into the cumulative counters."""
        now = self.sim.now
        if self._active_since is not None:
            self.active_time += now - self._active_since
            self._active_since = now
        if self._held_since is not None:
            self.held_time += now - self._held_since
            self._held_since = now

    def mark_held(self, held):
        self.settle()
        if held and self._held_since is None:
            self._held_since = self.sim.now
        elif not held:
            self._held_since = None
        self.app_held = held

    def mark_active(self, active):
        self.settle()
        if active and self._active_since is None:
            self._active_since = self.sim.now
        elif not active:
            self._active_since = None
        self.os_active = active

    def counters(self):
        """Cumulative stats snapshot for lease accounting."""
        self.settle()
        return {
            "active_time": self.active_time,
            "held_time": self.held_time,
            "acquire_count": self.acquire_count,
            "release_count": self.release_count,
        }

    def __repr__(self):
        return "{}(uid={}, {}, held={}, active={})".format(
            type(self).__name__, self.uid, self.token, self.app_held,
            self.os_active,
        )


class KernelObjectService:
    """What every service that owns kernel objects shares (§4.2, §4.3).

    The service keeps every record it created (``records``) and the set
    it is honouring right now; ``transitions`` counts honour/unhonour
    flips, so governors can fingerprint "has anything happened since my
    last scan?". Governors interpose in three ways:

    - ``gates``: predicates consulted on every acquire; if any denies,
      the service *pretends* success to the app (the descriptor works,
      nothing happens);
    - :meth:`revoke` / :meth:`restore`: temporarily stop/resume
      honouring an object while the app still thinks it holds it
      (Section 4.6);
    - ``listeners``: notified of ``on_<kind>_*`` events for accounting,
      where ``kind`` is the subclass's event stem. These are lifecycle
      events; a delivery (a sensor reading, a location fix) is not
      notified.

    App death (:meth:`kill_app`) releases and deactivates each of the
    app's records and marks it dead. A subclass supplies ``kind``, its
    own ``_activate`` / ``_deactivate`` (which flip records through
    :meth:`_mark_honoured`) and its app-facing API, which creates each
    record through :meth:`_register`.
    """

    #: Stem of this service's listener events, e.g. ``"wakelock"`` for
    #: ``on_wakelock_revoked``.
    kind = None

    def __init__(self, sim):
        self.sim = sim
        self.records = []
        #: Records currently os_active, as dict keys in the order they
        #: were honoured: never in an order of object addresses.
        self._honoured = {}
        self.listeners = []
        self.gates = []  # callables (record) -> bool allow
        #: Monotonic count of honour/unhonour flips.
        self.transitions = 0

    @property
    def active_count(self):
        """Number of currently honoured records. O(1)."""
        return len(self._honoured)

    def honoured_records(self):
        """The honoured records, in the order they were honoured."""
        return tuple(self._honoured)

    # -- the steps every app-facing API runs ---------------------------------

    def _register(self, record):
        """Own a new ``record``: keep it, point it at this service and
        notify ``on_<kind>_created``. Returns the record."""
        record.service = self
        self.records.append(record)
        self._notify("on_{}_created".format(self.kind), record)
        return record

    def _admit(self, record, event):
        """The app acquires ``record``; honour it only if every gate
        allows. Notifies ``event`` with the verdict and returns it."""
        record.acquire_count += 1
        record.mark_held(True)
        allowed = all(gate(record) for gate in self.gates)
        self._notify(event, record, allowed)
        if allowed:
            self._activate(record)
        return allowed

    def _release(self, record, event):
        """The app releases ``record``; notifies ``event``."""
        record.release_count += 1
        record.mark_held(False)
        self._notify(event, record)
        self._deactivate(record)

    # -- governor ops --------------------------------------------------------

    def revoke(self, record):
        """Stop honouring ``record``; the app is unaware."""
        if record.os_active:
            self._deactivate(record)
            self._notify("on_{}_revoked".format(self.kind), record)

    def restore(self, record):
        """Resume honouring a revoked, still-held record."""
        if record.app_held and not record.os_active and not record.dead:
            self._activate(record)
            self._notify("on_{}_restored".format(self.kind), record)

    def kill_app(self, uid):
        """App death: clean all of ``uid``'s kernel objects (Section 4.3)."""
        for record in self.records:
            if record.uid == uid and not record.dead:
                record.mark_held(False)
                self._deactivate(record)
                record.dead = True
                self._notify("on_{}_dead".format(self.kind), record)

    def settle_stats(self):
        """Fold elapsed time into every record's counters (profiling)."""
        for record in self.records:
            record.settle()

    # -- internals -----------------------------------------------------------

    def _mark_honoured(self, record, honoured):
        """Flip ``record`` into or out of the honoured records."""
        record.mark_active(honoured)
        if honoured:
            self._honoured[record] = None
        else:
            self._honoured.pop(record, None)
        self.transitions += 1

    def _notify(self, method, *args):
        for listener in list(self.listeners):
            handler = getattr(listener, method, None)
            if handler is not None:
                handler(*args)


class ListenerRecord(KernelObject):
    """A listener registration: GPS, sensors and Bluetooth (Table 1).

    Once registered, the OS keeps invoking ``listener`` every
    ``interval`` seconds while it honours the record, so "holding but
    not using" means the *consumer* of the data (the bound Activity, an
    overlay) is gone or ignoring it. The consumer clock,
    ``consumer_active_time``, runs while the record is honoured and its
    consumer is active; it is the lease's utilization (§3.3).
    """

    def __init__(self, sim, uid, rtype, name, listener, interval):
        super().__init__(sim, uid, rtype, name)
        self.listener = listener
        self.interval = interval
        self.delivered = 0
        self.consumer_active = True
        self.consumer_active_time = 0.0
        self._seg_since = None  # start of the unsettled honoured segment
        self._delivery_timer = None

    def counters(self):
        counters = super().counters()
        counters["consumer_active_time"] = self.consumer_active_time
        counters["delivered"] = self.delivered
        return counters


class ListenerHandle:
    """App-side descriptor of a :class:`ListenerRecord`."""

    def __init__(self, service, record):
        self._service = service
        self.record = record

    def set_consumer_active(self, active):
        """Mark the bound consumer alive or gone (drives utilization)."""
        self._service.set_consumer_active(self.record, active)


class ListenerService(KernelObjectService):
    """A service of :class:`ListenerRecord` registrations.

    It keeps each record's consumer clock and its deliveries: honouring
    a record arms its delivery timer, each delivery re-arms it, and
    unhonouring cancels it. A subclass supplies ``release_event`` (the
    notification of the app's own release), ``_deliver`` and
    ``_refresh_rail``.
    """

    #: Notified when the app releases a record, e.g.
    #: ``"on_sensor_unregister"``.
    release_event = None

    def set_consumer_active(self, record, active):
        self._settle(record)
        record.consumer_active = active

    def settle_stats(self):
        self._settle_all()
        super().settle_stats()

    # -- what a subclass supplies --------------------------------------------

    def _deliver(self, record):
        """Make one delivery to honoured ``record``; return whether to
        keep delivering."""
        raise NotImplementedError

    def _refresh_rail(self, record):
        """Set ``record``'s power draw after it was honoured or
        unhonoured."""
        raise NotImplementedError

    # -- honouring -----------------------------------------------------------

    def _activate(self, record):
        if record.os_active:
            return
        self._mark_honoured(record, True)
        record._seg_since = self.sim.now
        self._refresh_rail(record)
        self._schedule_delivery(record)

    def _deactivate(self, record):
        if not record.os_active:
            return
        self._settle(record)
        self._mark_honoured(record, False)
        record._seg_since = None
        self._cancel_delivery(record)
        self._refresh_rail(record)

    # -- deliveries ----------------------------------------------------------

    def _schedule_delivery(self, record):
        """Arm ``record``'s next delivery, ``record.interval`` from now.

        After each delivery the closure re-arms the timer that fired. If
        the delivery cancelled or replaced that timer (the listener
        released its record, say), it arms a fresh one; a released
        record's stray delivery finds it unhonoured and stops.
        """
        sim = self.sim
        honoured = self._honoured
        deliver = self._deliver

        def delivery():
            if record in honoured and deliver(record):
                timer = record._delivery_timer
                if timer is not None and timer.fired and not timer.cancelled:
                    sim.reschedule(timer, record.interval)
                else:
                    self._schedule_delivery(record)

        record._delivery_timer = sim.schedule(record.interval, delivery)

    def _cancel_delivery(self, record):
        if record._delivery_timer is not None:
            record._delivery_timer.cancel()
            record._delivery_timer = None

    # -- the consumer clock --------------------------------------------------

    def _settle(self, record):
        """Fold ``record``'s honoured time since its last settle into
        its clocks."""
        now = self.sim.now
        if record._seg_since is None:
            return
        elapsed = now - record._seg_since
        if elapsed > 0 and record.consumer_active:
            record.consumer_active_time += elapsed
        record._seg_since = now

    def _settle_all(self):
        """Settle every honoured record at this instant."""
        for record in self._honoured:
            self._settle(record)
