"""Tests for the extra well-behaved archetypes, including the headline
"LeaseOS approximates the developer fix" comparison."""

import pytest

from repro.apps.buggy.cpu_apps import K9Mail
from repro.apps.normal.archetypes import (
    K9MailFixed,
    NavigationApp,
    PodcastPlayer,
    SmartwatchCompanion,
)
from repro.core.behavior import BehaviorType
from repro.mitigation import LeaseOS

from tests.conftest import make_phone


def test_fixed_k9_backs_off_when_disconnected():
    phone = make_phone(connected=False)
    app = phone.install(K9MailFixed())
    mark = phone.energy_mark()
    phone.run_for(minutes=20.0)
    power = phone.power_since(mark, app.uid)
    # With backoff + prompt release the fixed app barely draws anything.
    assert power < 3.0
    assert app.synced == 0
    assert app.last_backoff_s >= 2 * app.SYNC_PERIOD_S  # ladder climbed


def test_fixed_k9_syncs_normally_when_healthy():
    phone = make_phone(connected=True)
    app = phone.install(K9MailFixed())
    phone.run_for(minutes=10.0)
    assert app.synced >= 15


def test_killed_k9_runs_no_code_until_restarted():
    # Its repeating sync alarm dies with it: before, the next firing
    # acquired the wakelock kill_app had cleaned and raised.
    from repro.droid.phone import Phone
    from repro.fleet.population import normal_app_factory

    phone = Phone(seed=1234, ambient=False)
    app = phone.install(normal_app_factory("k9-fixed"))
    phone.run_for(seconds=60.0)
    phone.kill_app(app.uid)
    synced = app.synced
    phone.run_for(seconds=300.0)
    assert app.synced == synced
    phone.restart_app(app.uid)
    phone.run_for(seconds=120.0)
    assert app.synced > synced


def test_leaseos_approximates_the_developer_fix():
    """The paper's implicit claim: running the *buggy* K-9 under LeaseOS
    lands in the same power regime as running the *fixed* K-9 on
    vanilla Android -- the OS supplies the discipline the developer
    forgot."""
    phone_fixed = make_phone(connected=False)
    fixed = phone_fixed.install(K9MailFixed())
    mark_fixed = phone_fixed.energy_mark()
    phone_fixed.run_for(minutes=30.0)
    fixed_mw = phone_fixed.power_since(mark_fixed, fixed.uid)

    phone_buggy = make_phone(connected=False, mitigation=LeaseOS())
    buggy = phone_buggy.install(K9Mail(scenario="disconnected"))
    mark_buggy = phone_buggy.energy_mark()
    phone_buggy.run_for(minutes=30.0)
    leased_mw = phone_buggy.power_since(mark_buggy, buggy.uid)

    # Both land within a few percent of the ~900 mW unmitigated blaze;
    # the hand-written fix is better still (it never spins at all).
    assert fixed_mw < 5.0
    assert leased_mw < 45.0  # < 5% of the bug's draw
    assert fixed_mw < leased_mw


def test_navigation_app_is_eub_not_misbehavior():
    mitigation = LeaseOS()
    phone = make_phone(mitigation=mitigation, gps_quality=0.95,
                       movement_mps=15.0)  # driving
    app = phone.install(NavigationApp())
    phone.run_for(minutes=10.0)
    decisions = [d for d in mitigation.manager.decisions
                 if d.lease.uid == app.uid]
    assert any(d.behavior is BehaviorType.EUB for d in decisions)
    assert all(not d.behavior.is_misbehavior for d in decisions)
    deferrals = sum(l.deferral_count
                    for l in mitigation.manager.leases_for(app.uid))
    assert deferrals == 0
    assert app.fixes > 300  # navigation never skipped a beat


def test_podcast_player_downloads_and_plays(phone_factory):
    phone = phone_factory()
    app = phone.install(PodcastPlayer())
    phone.run_for(minutes=25.0)
    assert app.downloaded >= 2
    phone.screen_on()
    phone.touch(app.uid)
    phone.run_for(minutes=1.0)
    assert app._playing
    phone.run_for(minutes=4.0)
    assert not app._playing


def test_smartwatch_companion_clean_under_leaseos():
    mitigation = LeaseOS()
    phone = make_phone(mitigation=mitigation)
    app = phone.install(SmartwatchCompanion())
    phone.run_for(minutes=20.0)
    assert app.synced_batches >= 8
    deferrals = sum(l.deferral_count
                    for l in mitigation.manager.leases_for(app.uid))
    assert deferrals == 0
    # The connection (not discovery) draw is the cheap one.
    record = app.session.record
    rail = "bluetooth:{}".format(record.token.id)
    assert phone.monitor.rail_power(rail) == \
        phone.profile.bluetooth_connected_mw


def test_fixed_apps_are_frugal_and_functional():
    from repro.apps.normal.fixed_apps import (
        BetterWeatherFixed,
        KontalkFixed,
        StandupTimerFixed,
    )

    # Kontalk fixed: authenticates, then the CPU sleeps.
    phone = make_phone()
    kontalk = phone.install(KontalkFixed())
    mark = phone.energy_mark()
    phone.run_for(minutes=10.0)
    assert phone.power_since(mark, kontalk.uid) < 2.0

    # BetterWeather fixed: gives up the hopeless search within a minute.
    phone = make_phone(gps_quality=0.10)
    weather = phone.install(BetterWeatherFixed())
    phone.run_for(minutes=10.0)
    from repro.droid.location import GpsState

    assert phone.location.state is GpsState.OFF
    assert weather.registration is None

    # Standup Timer fixed: screen released once the meeting ends.
    phone = make_phone()
    timer = phone.install(StandupTimerFixed())
    phone.run_for(minutes=20.0)
    assert not timer.lock.held
    assert not phone.display.screen_on
