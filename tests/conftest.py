import random

import pytest
from hypothesis import HealthCheck, settings

import finstack.topology
from finstack.action import klein_four, sym, zmod

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture
def oracles_forbidden(monkeypatch):
    """Make the definitional cover checks raise: production paths decide
    canonicity by joint surjectivity and must never reach them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a definitional oracle ran on a production path")

    monkeypatch.setattr(finstack.topology, "is_effective_epi", forbidden)
    monkeypatch.setattr(finstack.topology, "cech_colimit", forbidden)


@pytest.fixture(scope="session")
def groups():
    return {
        "z1": zmod(1),
        "z2": zmod(2),
        "z3": zmod(3),
        "z4": zmod(4),
        "v4": klein_four(),
        "z6": zmod(6),
        "s3": sym(3),
    }
