import os
import random
import sys

import pytest
from hypothesis import HealthCheck, settings

import finstack.action
import finstack.topology
from finstack.action import klein_four, sym, zmod
from finstack.finset import CrossCheck

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


# FINSTACK_TEST_CROSS_CHECK=off runs the suite on the production path,
# with cross-checking off but for the tests marked `needs_cross_check`
CROSS_CHECK = os.environ.get("FINSTACK_TEST_CROSS_CHECK", "on") != "off"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "needs_cross_check: the test plants a fault that only a re-run "
        "certifier catches, or counts those re-runs, so it runs with cross-checking "
        "on in both modes of the suite")


@pytest.fixture(autouse=True)
def cross_checked(request, monkeypatch):
    """Run every test with cross-checking on, so each construction that
    skips its certifier in production (base change, restriction,
    restriction to a datum, gluing, restricted morphisms, the ι/ε
    components, the model and regular actions, the enumerated bundle
    morphisms, the kernel maps) has it re-run, and `desc` runs its oracles.
    The re-run reads every deferred base-change table at once, so a test
    of the path that leaves a table unread turns the switch off itself.
    With FINSTACK_TEST_CROSS_CHECK=off the switch stays off, the path
    users run, except in the tests marked `needs_cross_check`."""
    monkeypatch.setattr(CrossCheck, "on", CROSS_CHECK or request.node.get_closest_marker(
        "needs_cross_check") is not None)


@pytest.fixture
def oracles_forbidden(monkeypatch):
    """Make the definitional constructions raise: production paths decide
    canonicity by joint surjectivity, change base by h·(p, z) = (h·p, z)
    and find isos in a fiber by the least matching atom, so they must never
    reach the cover checks, the general pullback action or the G-set
    isomorphism search. The last two are patched in every finstack module
    that binds them. Cross-checking is off: it is what runs those oracles."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a definitional oracle ran on a production path")

    monkeypatch.setattr(CrossCheck, "on", False)
    monkeypatch.setattr(finstack.topology, "is_effective_epi", forbidden)
    monkeypatch.setattr(finstack.topology, "cech_colimit", forbidden)
    oracles = (finstack.action.pullback_action, finstack.action.gset_isomorphism_over)
    for name, module in list(sys.modules.items()):
        if name == "finstack" or name.startswith("finstack."):
            for attr, value in list(vars(module).items()):
                if any(value is oracle for oracle in oracles):
                    monkeypatch.setattr(module, attr, forbidden)


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
