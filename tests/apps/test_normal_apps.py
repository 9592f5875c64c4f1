"""Tests for the normal background and interactive apps."""

import pytest

from repro.apps.normal.background import (
    Haven,
    RunKeeper,
    Spotify,
    TrepnProfiler,
)
from repro.apps.normal.interactive import (
    InteractiveApp,
    LatencyProbeApp,
    popular_apps,
)
from repro.mitigation import LeaseOS

from tests.conftest import make_phone


def test_runkeeper_tracks_and_writes(phone_factory):
    phone = phone_factory(gps_quality=0.95, movement_mps=2.5)
    app = phone.install(RunKeeper())
    phone.run_for(minutes=5.0)
    assert app.data_write_times  # track points persisted
    assert app.ui_update_times
    assert not app.disruptions


def test_runkeeper_watchdog_detects_gps_loss(phone_factory):
    phone = phone_factory(gps_quality=0.95, movement_mps=2.5)
    app = phone.install(RunKeeper())
    phone.run_for(minutes=2.0)
    phone.location.kill_app(app.uid)
    phone.run_for(minutes=2.0)
    assert app.disruptions


def test_spotify_streams_without_disruption(phone_factory):
    phone = phone_factory()
    app = phone.install(Spotify())
    phone.run_for(minutes=5.0)
    assert not app.disruptions


def test_killed_spotify_loses_its_audio_session_and_lease(phone_factory):
    from repro.droid.resources import ResourceType

    mitigation = LeaseOS()
    phone = phone_factory(mitigation=mitigation)
    app = phone.install(Spotify())
    phone.run_for(minutes=1.0)
    first = app.session.record
    rail = "audio:{}".format(first.token.id)
    assert phone.monitor.rail_power(rail) == phone.profile.audio_mw

    def audio_leases():
        return [lease for lease in mitigation.manager.leases_for(app.uid)
                if lease.rtype is ResourceType.AUDIO]

    phone.kill_app(app.uid)
    assert first.dead and not first.os_active
    assert phone.monitor.rail_power(rail) == 0.0
    assert audio_leases() == []
    phone.restart_app(app.uid)
    phone.run_for(minutes=1.0)
    assert [r for r in phone.audio.records if r.os_active] == \
        [app.session.record]
    assert [lease.record for lease in audio_leases()] == [app.session.record]


def test_haven_monitors_and_logs_motion(phone_factory):
    phone = phone_factory()
    app = phone.install(Haven())
    phone.run_for(minutes=5.0)
    assert app.data_write_times
    assert not app.disruptions


def test_trepn_app_samples_steadily(phone_factory):
    phone = phone_factory()
    app = phone.install(TrepnProfiler())
    phone.run_for(minutes=3.0)
    assert len(app.data_write_times) > 50
    assert not app.disruptions


def test_usability_trio_clean_under_leaseos(phone_factory):
    for factory, kwargs in [
        (RunKeeper, dict(gps_quality=0.95, movement_mps=2.5)),
        (Spotify, {}),
        (Haven, {}),
    ]:
        mitigation = LeaseOS()
        phone = phone_factory(mitigation=mitigation, **kwargs)
        app = phone.install(factory())
        phone.run_for(minutes=10.0)
        assert not app.disruptions, (factory.__name__, app.disruptions)
        deferrals = sum(
            l.deferral_count
            for l in mitigation.manager.leases_for(app.uid)
        )
        assert deferrals == 0, factory.__name__


def test_popular_apps_unique_names():
    apps = popular_apps(25)
    assert len(apps) == 25
    assert len({a.name for a in apps}) == 25


def test_interactive_touch_produces_ui_update(phone_factory):
    phone = phone_factory()
    app = phone.install(InteractiveApp("Probe", sync_interval_s=None))
    phone.screen_on()
    phone.touch(app.uid)
    phone.run_for(seconds=10.0)
    assert app.ui_update_times


def test_interactive_sync_releases_wakelock(phone_factory):
    phone = phone_factory()
    app = phone.install(InteractiveApp("Syncer", sync_interval_s=30.0))
    phone.screen_on()  # keep the device awake so the loop runs
    phone.run_for(minutes=3.0)
    phone.power.settle_stats()
    records = [r for r in phone.power.records if r.uid == app.uid]
    assert records
    assert all(not r.app_held for r in records)  # all released promptly


def test_media_streaming_starts_and_stops(phone_factory):
    phone = phone_factory()
    app = phone.install(InteractiveApp("Tube", media_streaming=True,
                                       sync_interval_s=None))
    phone.screen_on()
    phone.touch(app.uid)
    phone.run_for(seconds=10.0)
    assert app._streaming
    phone.run_for(seconds=90.0)
    assert not app._streaming  # 60 s stream ended


def test_latency_probe_measures_flows(phone_factory):
    phone = phone_factory(gps_quality=0.9)
    probe = phone.install(LatencyProbeApp("wakelock"))
    phone.screen_on()
    phone.set_foreground(probe.uid)
    phone.touch(probe.uid)
    phone.run_for(seconds=30.0)
    assert len(probe.flow_latencies) == 1
    assert probe.mean_latency_ms() > 0


def test_latency_probe_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LatencyProbeApp("bogus")


def test_nextcloud_syncs_via_jobscheduler(phone_factory):
    from repro.apps.normal.background import NextcloudSync

    phone = phone_factory()
    app = phone.install(NextcloudSync())
    phone.run_for(minutes=10.0)
    assert app.synced >= 3
    # The last run may still be in flight at the measurement instant.
    assert app.job.run_count - app.synced <= 1
    # The app never held its own wakelock; the scheduler's job locks
    # were all released (modulo that same possible in-flight run).
    phone.power.settle_stats()
    records = [r for r in phone.power.records if r.uid == app.uid]
    assert records
    assert sum(1 for r in records if r.app_held) <= 1


def test_killed_nextcloud_jobs_stop_until_restart(phone_factory):
    from repro.apps.normal.background import NextcloudSync

    phone = phone_factory()
    app = phone.install(NextcloudSync())
    phone.run_for(seconds=60.0)
    phone.kill_app(app.uid)
    # The job's wakelock died with the app; its next due run must not
    # try to acquire it.
    phone.run_for(seconds=300.0)
    assert app.job.cancelled
    phone.restart_app(app.uid)
    phone.run_for(seconds=300.0)
    assert app.synced >= 1


def test_nextcloud_clean_under_leaseos(phone_factory):
    from repro.apps.normal.background import NextcloudSync
    from repro.mitigation import LeaseOS

    mitigation = LeaseOS()
    phone = phone_factory(mitigation=mitigation)
    app = phone.install(NextcloudSync())
    phone.run_for(minutes=15.0)
    assert app.synced >= 5
    deferrals = sum(l.deferral_count
                    for l in mitigation.manager.leases_for(app.uid))
    assert deferrals == 0


def test_killed_mid_stream_releases_resources(phone_factory):
    phone = phone_factory()
    app = phone.install(InteractiveApp("Tube", media_streaming=True,
                                       sync_interval_s=None))
    phone.screen_on()
    phone.touch(app.uid)
    phone.run_for(seconds=10.0)
    assert app._streaming
    phone.kill_app(app.uid)
    # The stream generator's finally-clause ran on kill: the media lock
    # is released and the session closed (no lingering audio rail).
    phone.power.settle_stats()
    for record in phone.power.records:
        if record.uid == app.uid:
            assert not record.os_active
    for record in phone.audio.records:
        if record.uid == app.uid:
            assert phone.monitor.rail_power(
                "audio:{}".format(record.token.id)) == 0.0


def test_heavy_holders_clean_under_leaseos(phone_factory):
    """The 2.3 named normal long-holders never get deferred."""
    from repro.apps.normal.heavy_holders import Flym, Pandora, Transdroid

    for factory in (Pandora, Transdroid, Flym):
        mitigation = LeaseOS()
        phone = phone_factory(mitigation=mitigation)
        app = phone.install(factory())
        phone.run_for(minutes=15.0)
        deferrals = sum(l.deferral_count
                        for l in mitigation.manager.leases_for(app.uid))
        assert deferrals == 0, factory.__name__
