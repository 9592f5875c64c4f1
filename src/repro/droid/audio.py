"""AudioService: audio sessions (the Facebook-iOS-style leak target).

A held session keeps the audio pipeline powered. Utilization is the
fraction of hold time that frames were actually being played.
"""

from repro.droid.resources import (
    KernelObject,
    KernelObjectService,
    ResourceType,
)


class AudioSessionRecord(KernelObject):
    def __init__(self, sim, uid, name):
        super().__init__(sim, uid, ResourceType.AUDIO, name)
        self.playback_time = 0.0
        self._playing_since = None

    def settle_playback(self, now):
        if self._playing_since is not None:
            self.playback_time += now - self._playing_since
            self._playing_since = now


class AudioSession:
    """App-side descriptor for one audio session."""

    def __init__(self, service, record, app):
        self._service = service
        self.record = record
        self._app = app

    def start_playback(self):
        self._app.ipc("audio", "startPlayback")
        self._service.start_playback(self.record)

    def stop_playback(self):
        self._app.ipc("audio", "stopPlayback")
        self._service.stop_playback(self.record)

    def close(self):
        self._app.ipc("audio", "closeSession")
        self._service.close(self.record)


class AudioService(KernelObjectService):
    name = "audio"
    kind = "audio"

    def __init__(self, sim, monitor, profile):
        super().__init__(sim)
        self.monitor = monitor
        self.profile = profile

    def open_session(self, app, name="audio-session"):
        app.ipc("audio", "openSession")
        record = self._register(AudioSessionRecord(self.sim, app.uid, name))
        self._admit(record, "on_audio_open")
        return AudioSession(self, record, app)

    def start_playback(self, record):
        if record.os_active and record._playing_since is None:
            record._playing_since = self.sim.now
            self._refresh_rail(record)

    def stop_playback(self, record):
        record.settle_playback(self.sim.now)
        record._playing_since = None
        self._refresh_rail(record)

    def close(self, record):
        record.release_count += 1
        record.mark_held(False)
        self._deactivate(record)
        record.dead = True
        self._refresh_rail(record)
        self._notify("on_audio_close", record)

    def _activate(self, record):
        # Nothing plays until start_playback, so the rail stays as is.
        if not record.os_active:
            self._mark_honoured(record, True)

    def _deactivate(self, record):
        if record.os_active:
            record.settle_playback(self.sim.now)
            record._playing_since = None
            self._mark_honoured(record, False)
            self._refresh_rail(record)

    def _rail_name(self, record):
        return "audio:{}".format(record.token.id)

    def _refresh_rail(self, record):
        playing = record.os_active and record._playing_since is not None
        power = self.profile.audio_mw if playing else 0.0
        self.monitor.set_rail(self._rail_name(record), power, (record.uid,))
