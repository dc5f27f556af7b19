import math

import numpy as np
import pytest

from ates_mpc import AquiferParams, ParameterError, build_grid
from ates_mpc.grid import effective_heat_capacity, validate_state


def test_standard_grid_spacing_and_cells():
    grid = build_grid(0.4, 60.0, 20, 38.0)
    assert grid.dr == pytest.approx(2.98)
    assert grid.nu == 20
    assert grid.edges[0] == 0.4
    assert grid.edges[-1] == 60.0
    assert np.all(np.diff(grid.edges) > 0)


def test_single_cell_geometry():
    grid = build_grid(1.0, 2.0, 1, 1.0)
    assert grid.midpoints[0] == pytest.approx(1.5)
    assert grid.volumes[0] == pytest.approx(math.pi * 3.0)


def test_volume_closure():
    grid = build_grid(0.4, 60.0, 20, 38.0)
    total = math.pi * (60.0**2 - 0.4**2) * 38.0
    assert grid.volumes.sum() == pytest.approx(total, rel=1e-12)
    assert total == pytest.approx(4.2975e5, rel=1e-3)


def test_midpoints_are_edge_means():
    grid = build_grid(0.4, 60.0, 20, 38.0)
    assert np.allclose(grid.midpoints, 0.5 * (grid.edges[:-1] + grid.edges[1:]))


def test_n_states():
    assert build_grid(0.4, 60.0, 20, 38.0).n_states == 42


@pytest.mark.parametrize("args", [(0.0, 60.0, 20, 38.0), (60.0, 0.4, 20, 38.0),
                                  (0.4, 60.0, 0, 38.0), (0.4, 60.0, 20, 0.0)])
def test_bad_geometry_rejected(args):
    with pytest.raises(ParameterError):
        build_grid(*args)


def test_effective_heat_capacity_mix():
    assert effective_heat_capacity(0.3, 4.2e6, 4.575e6) == pytest.approx(4.4625e6)


def test_effective_heat_capacity_limits():
    assert effective_heat_capacity(1.0, 4.2e6, 99.0) == 4.2e6
    assert effective_heat_capacity(0.0, 99.0, 4.575e6) == 4.575e6


def test_effective_heat_capacity_bad_porosity():
    with pytest.raises(ParameterError):
        effective_heat_capacity(1.5, 4.2e6, 4.575e6)


@pytest.mark.parametrize("args", [(math.nan, 4.2e6, 4.575e6),
                                  (0.3, 0.0, 4.575e6), (0.3, math.nan, 4.575e6),
                                  (0.3, 4.2e6, -1.0), (0.3, 4.2e6, math.nan)])
def test_effective_heat_capacity_bad_constituent(args):
    # The rock capacity is read only here, so it is checked here.
    with pytest.raises(ParameterError):
        effective_heat_capacity(*args)


@pytest.mark.parametrize("field, value", [
    ("c_a", math.nan), ("c_w", math.nan), ("lam", math.nan),
    ("t_amb", math.nan), ("t_amb", math.inf), ("t_amb", 0.0),
    ("t_amb", -284.85)])
def test_aquifer_params_rejected(field, value):
    kw = dict(c_a=4.4625e6, c_w=4.2e6, lam=3.5, t_amb=284.85)
    AquiferParams(**kw)
    kw[field] = value
    with pytest.raises(ParameterError):
        AquiferParams(**kw)


def test_validate_state():
    x = np.full(42, 284.85)
    assert validate_state(x, 20) is not None
    with pytest.raises(ParameterError):
        validate_state(x[:-1], 20)
    bad = x.copy()
    bad[3] = np.nan
    with pytest.raises(ParameterError):
        validate_state(bad, 20)
