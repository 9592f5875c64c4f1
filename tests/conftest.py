"""Shared fixtures for the test suite."""

import importlib.util
import os

import pytest

from repro.device.profiles import PIXEL_XL
from repro.droid.phone import Phone
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def phone():
    """A plain (vanilla) phone, ambient events off for determinism."""
    return Phone(profile=PIXEL_XL, seed=1234, ambient=False)


def check_schema(*argv):
    """Exit status of ``tools/check_schema.py`` run with ``argv``."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools",
                        "check_schema.py")
    spec = importlib.util.spec_from_file_location("check_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(list(argv))


def make_phone(**kwargs):
    kwargs.setdefault("seed", 1234)
    kwargs.setdefault("ambient", False)
    return Phone(**kwargs)


@pytest.fixture
def phone_factory():
    return make_phone
