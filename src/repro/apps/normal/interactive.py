"""User-driven foreground apps for the Fig. 11 / 13 / 14 experiments.

:class:`InteractiveApp` is a configurable well-behaved app: touches run a
handler (compute + optional network + UI update), and an optional
background sync acquires a wakelock, does its work, and releases it
promptly -- the intended ask-use-release discipline.

:func:`popular_apps` instantiates a fleet of these with varied parameter
mixes ("use 10 apps in turn", "use 30 apps in turn" of Fig. 13).

:class:`LatencyProbeApp` measures end-to-end interaction latency for the
three resource-backed flows of Fig. 14 (sensor / wakelock / GPS).
"""

from repro.droid.app import App
from repro.droid.exceptions import NetworkException
from repro.droid.sensors import SensorType
from repro.io import left_sum
from repro.sim.events import Event


class InteractiveApp(App):
    """A well-behaved app parameterized by its workload mix."""

    category = "interactive"

    def __init__(self, name, touch_compute_s=0.3, touch_payload_s=0.4,
                 sync_interval_s=120.0, sync_compute_s=0.5,
                 media_streaming=False):
        super().__init__(name=name)
        self.touch_compute_s = touch_compute_s
        self.touch_payload_s = touch_payload_s
        self.sync_interval_s = sync_interval_s
        self.sync_compute_s = sync_compute_s
        self.media_streaming = media_streaming
        self._streaming = False

    def run(self):
        if self.sync_interval_s is None:
            return
        while True:
            yield self.sleep(self.sync_interval_s * (0.5 + self.rng.random()))
            yield from self._sync_once()

    def _sync_once(self):
        # The intended discipline: acquire, work, release promptly.
        lock = self.ctx.power.new_wakelock(self, "{}-sync".format(self.name))
        lock.acquire()
        try:
            yield from self.compute(self.sync_compute_s)
            try:
                yield from self.http("{}-backend".format(self.name),
                                     payload_s=0.3)
            except NetworkException as exc:
                self.note_exception(exc)
            self.post_ui_update()
        finally:
            lock.release()

    def on_touch(self):
        self.spawn(self._handle_touch(), name="{}.touch".format(self.name))
        if self.media_streaming and not self._streaming:
            self._streaming = True
            self.spawn(self._stream(60.0), name="{}.stream".format(self.name))

    def _handle_touch(self):
        # Half the fetch-style touches take a short wakelock around the
        # work, the intended acquire-work-release discipline; this is
        # what produces the short-lived lease churn of Fig. 11.
        lock = None
        if self.touch_payload_s and self.rng.random() < 0.5:
            lock = self.ctx.power.new_wakelock(
                self, "{}-touch".format(self.name)
            )
            lock.acquire()
        try:
            yield from self.compute(self.touch_compute_s)
            if self.touch_payload_s:
                try:
                    yield from self.http("{}-backend".format(self.name),
                                         payload_s=self.touch_payload_s)
                except NetworkException as exc:
                    self.note_exception(exc)
            self.post_ui_update()
            if lock is not None:
                # Finish cache writes before letting the CPU sleep.
                yield self.sleep(2.0 + 3.0 * self.rng.random())
        finally:
            if lock is not None and lock.held:
                lock.release()

    def _stream(self, duration_s):
        session = self.ctx.audio.open_session(self, "{}-media".format(self.name))
        session.start_playback()
        lock = self.ctx.power.new_wakelock(self, "{}-media".format(self.name))
        lock.acquire()
        try:
            end = self.ctx.sim.now + duration_s
            while self.ctx.sim.now < end:
                try:
                    yield from self.http("{}-cdn".format(self.name),
                                         payload_s=0.8)
                except NetworkException as exc:
                    self.note_exception(exc)
                yield from self.compute(0.8)
                yield self.sleep(4.0)
        finally:
            lock.release()
            session.stop_playback()
            session.close()
            self._streaming = False


#: Parameter mixes loosely modelled on popular app categories.
_POPULAR_MIXES = [
    ("YouTube", dict(media_streaming=True, touch_compute_s=0.4,
                     touch_payload_s=1.0, sync_interval_s=300.0)),
    ("Chrome", dict(touch_compute_s=0.5, touch_payload_s=0.8,
                    sync_interval_s=None)),
    ("Gmail", dict(touch_compute_s=0.2, touch_payload_s=0.3,
                   sync_interval_s=180.0)),
    ("Maps", dict(touch_compute_s=0.6, touch_payload_s=0.5,
                  sync_interval_s=None)),
    ("Twitter", dict(touch_compute_s=0.25, touch_payload_s=0.4,
                     sync_interval_s=240.0)),
    ("Instagram", dict(touch_compute_s=0.3, touch_payload_s=0.9,
                       sync_interval_s=300.0)),
    ("AngryBirds", dict(touch_compute_s=0.8, touch_payload_s=0.0,
                        sync_interval_s=None)),
    ("NewsReader", dict(touch_compute_s=0.2, touch_payload_s=0.5,
                        sync_interval_s=360.0)),
    ("Pandora", dict(media_streaming=True, touch_compute_s=0.2,
                     touch_payload_s=0.4, sync_interval_s=None)),
    ("WeChat", dict(touch_compute_s=0.2, touch_payload_s=0.3,
                    sync_interval_s=150.0)),
]


def popular_apps(count):
    """Build ``count`` distinct interactive apps (cycling the mixes)."""
    apps = []
    for index in range(count):
        base_name, kwargs = _POPULAR_MIXES[index % len(_POPULAR_MIXES)]
        name = base_name if index < len(_POPULAR_MIXES) else \
            "{}-{}".format(base_name, index // len(_POPULAR_MIXES) + 1)
        apps.append(InteractiveApp(name, **kwargs))
    return apps


class LatencyProbeApp(App):
    """Measures touch -> UI-update latency for resource-backed flows.

    ``kind`` selects the Fig. 14 flow: "sensor" (register, first reading,
    UI), "wakelock" (acquire, work, network, release, UI), or "gps"
    (request updates, first fix, UI).
    """

    category = "probe"

    def __init__(self, kind):
        if kind not in ("sensor", "wakelock", "gps"):
            raise ValueError("unknown probe kind {!r}".format(kind))
        super().__init__(name="{}-probe".format(kind))
        self.kind = kind
        self.flow_latencies = []  # (start, end) sim times

    def on_touch(self):
        self.spawn(self._flow(), name="{}.flow".format(self.name))

    def _flow(self):
        start = self.ctx.sim.now
        calls_before = self.ctx.ipc.call_count(self.uid)
        if self.kind == "sensor":
            yield from self._sensor_flow()
        elif self.kind == "wakelock":
            yield from self._wakelock_flow()
        else:
            yield from self._gps_flow()
        self.post_ui_update()
        ipc_extra = left_sum(
            c.latency_s for c in self.ctx.ipc.calls_for(self.uid)
        [calls_before:])
        self.flow_latencies.append(
            (start, self.ctx.sim.now - start + ipc_extra)
        )

    def _sensor_flow(self):
        got = Event(self.ctx.sim, "sensor-reading")
        registration = self.ctx.sensors.register_listener(
            self, SensorType.ACCELEROMETER,
            lambda reading: None if got.fired else got.fire(reading),
            rate_hz=1.0,
        )
        yield got
        yield from self.compute(0.05)
        registration.unregister()

    def _wakelock_flow(self):
        lock = self.ctx.power.new_wakelock(self, "probe-flow")
        lock.acquire()
        try:
            yield from self.compute(0.8)
            try:
                yield from self.http("probe-backend", payload_s=0.5)
            except NetworkException as exc:
                self.note_exception(exc)
        finally:
            lock.release()

    def _gps_flow(self):
        got = Event(self.ctx.sim, "gps-fix")
        registration = self.ctx.location.request_location_updates(
            self, lambda loc: None if got.fired else got.fire(loc),
            interval=1.0,
        )
        yield got
        yield from self.compute(0.1)
        registration.remove()

    def mean_latency_ms(self):
        if not self.flow_latencies:
            return 0.0
        return 1000.0 * left_sum(d for _, d in self.flow_latencies) \
            / len(self.flow_latencies)
