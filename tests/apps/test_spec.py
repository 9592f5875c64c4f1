"""Tests for CaseSpec scenario construction."""

from repro.apps.buggy import CASES_BY_KEY
from repro.apps.spec import CaseSpec, build_phone_for
from repro.droid.app import App
from repro.droid.resources import ResourceType
from repro.core.behavior import BehaviorType
from repro.env.network import ServerMode


def test_build_phone_applies_environment():
    case = CASES_BY_KEY["k9"]  # disconnected scenario
    phone = case.build_phone(seed=1)
    assert not phone.env.network.connected


def test_build_phone_applies_servers():
    case = CASES_BY_KEY["servalmesh"]
    phone = case.build_phone(seed=1)
    assert phone.env.network.server_mode("serval-peer") is ServerMode.ERROR


def test_build_phone_override_wins():
    case = CASES_BY_KEY["k9"]
    phone = case.build_phone(seed=1, connected=True)
    assert phone.env.network.connected


def test_server_modes_accept_strings():
    spec = CaseSpec(
        key="x", app_factory=App, category="t",
        resource=ResourceType.WAKELOCK, behavior=BehaviorType.LHB,
        servers={"s": "error"},
    )
    phone = spec.build_phone(seed=1)
    assert phone.env.network.server_mode("s") is ServerMode.ERROR


def test_make_app_builds_fresh_instances():
    case = CASES_BY_KEY["torch"]
    a, b = case.make_app(), case.make_app()
    assert a is not b
    phone = case.build_phone(seed=1)  # uids are assigned at install
    assert phone.install(a).uid != phone.install(b).uid


def test_build_phone_for_helper():
    phone = build_phone_for(CASES_BY_KEY["betterweather"], seed=2)
    assert phone.env.gps.quality == 0.10
