"""Shared fixtures (the 3*pi reference well used across the suite) and the hypothesis profiles.

Tier-1 loads the ``tier1`` profile: every property draws the same cases on
every run, its own ``max_examples`` of them.  ``--hypothesis-profile=explore``
draws random cases instead, EXPLORE_SCALE times as many per property, and
prints a blob that replays any failure.
"""

import pytest
from hypothesis import is_hypothesis_test, settings

import morsekit as mk

EXPLORE_SCALE = 5

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    """Under the explore profile, give each property EXPLORE_SCALE times its own max_examples."""
    if config.getoption("--hypothesis-profile") != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        if is_hypothesis_test(test) and test not in scaled:
            scaled.add(test)
            # the settings a @given test runs with; a second @settings decorator is refused
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(own, max_examples=EXPLORE_SCALE * own.max_examples)


@pytest.fixture(scope="session")
def p3pi():
    return mk.decompose(mk.pi_multiple_text(3.0), "irrational")


@pytest.fixture(scope="session")
def spectrum_3pi(p3pi):
    return mk.order_spectrum(p3pi)


@pytest.fixture(scope="session")
def basis_3pi(p3pi):
    return mk.MorseBasis(p3pi)


@pytest.fixture(scope="session")
def mu_3pi(spectrum_3pi):
    return mk.build_mu_basis(spectrum_3pi)


@pytest.fixture(scope="session")
def ladder_3pi(spectrum_3pi):
    return mk.ladder_f(spectrum_3pi)
