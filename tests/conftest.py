import numpy as np
import pytest
from hypothesis import settings

from ates_mpc import AquiferParams, HxParams, build_grid, load_scenario

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible and quick.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None, max_examples=200)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def reference():
    """The reference scenario: every config value at its default.  Tests
    that need a config derive it from here with ``dataclasses.replace``."""
    return load_scenario(None)


@pytest.fixture(scope="session")
def grid():
    return build_grid(0.4, 60.0, 20, 38.0)


@pytest.fixture(scope="session")
def params():
    return AquiferParams.from_constituents(0.3, 4.2e6, 4.575e6, 3.5, 284.85)


@pytest.fixture(scope="session")
def hx():
    return HxParams(q_b=0.1, t_b_heating=274.0, t_b_cooling=293.0)


@pytest.fixture()
def ambient_state(grid, params):
    return np.full(grid.n_states, params.t_amb)


def smooth_profile(radii, t_amb, amplitude, decay, rng=None):
    """Exponentially decaying radial bump, optionally with a seeded wiggle."""
    base = t_amb + amplitude * np.exp(-(radii - radii[0]) / decay)
    if rng is not None:
        base = base + 0.1 * amplitude * np.sin((radii - radii[0]) / rng.uniform(5.0, 20.0))
    return base
