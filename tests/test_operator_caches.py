"""Operators that depend only on the grid, the parameters and dt are built
once and shared read-only; a cached result equals a fresh build."""

import numpy as np
import pytest

from ates_mpc import AquiferParams, build_grid
from ates_mpc.controller import power_linear_rows
from ates_mpc.harness import run_closed_loop
from ates_mpc.plant import _overlap_weights
from ates_mpc.pwa import _conduction_stencil, _template
from ates_mpc.scenario import load_scenario

DT = 3600.0


def test_closed_loop_builds_each_operator_once():
    _conduction_stencil.cache_clear()
    _overlap_weights.cache_clear()
    _template.cache_clear()
    run_closed_loop(load_scenario(None), steps=48)
    # One stencil with and one without the inner-face coupling.
    assert _conduction_stencil.cache_info().misses == 2
    assert _overlap_weights.cache_info().misses == 1
    # One model template; every hourly rebuild reads it.
    assert _template.cache_info().misses == 1
    assert _template.cache_info().hits == 48


def cached_arrays(grid, params, ocp):
    fine = build_grid(grid.r0, grid.r_inf, 200, grid.l)
    A, f = _conduction_stencil(grid, params, DT, True)
    r_now, r_next, _ = power_linear_rows(grid, params, DT)
    x_min, x_max = ocp.state_bounds(grid.nu)
    return [A, f, _overlap_weights(fine, grid), r_now, r_next, x_min, x_max,
            grid.edges, grid.midpoints, grid.volumes, *_template(grid, params, DT)]


def test_cached_arrays_are_read_only(grid, params, reference):
    for arr in cached_arrays(grid, params, reference.ocp):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_cache_keys_tell_grids_params_and_dt_apart(grid, params):
    other_grid = build_grid(grid.r0, grid.r_inf, 30, grid.l)
    other_params = AquiferParams.from_constituents(0.25, 4.2e6, 4.4e6, 2.5, 283.0)
    calls = [(grid, params, DT), (other_grid, params, DT),
             (grid, other_params, DT), (grid, params, 1800.0)]
    for g, p, dt in calls:
        for inner in (False, True):
            cached = _conduction_stencil(g, p, dt, inner)
            fresh = _conduction_stencil.__wrapped__(g, p, dt, inner)
            assert all(np.array_equal(a, b) for a, b in zip(cached, fresh))
        for cache in (power_linear_rows, _template):
            cached = cache(g, p, dt)
            fresh = cache.__wrapped__(g, p, dt)
            assert all(np.array_equal(a, b) for a, b in zip(cached, fresh))
    for coarse in (grid, other_grid):
        fine = build_grid(coarse.r0, coarse.r_inf, 200, coarse.l)
        assert np.array_equal(_overlap_weights(fine, coarse),
                              _overlap_weights.__wrapped__(fine, coarse))


def test_equal_arguments_give_equal_grids():
    a = build_grid(0.4, 60.0, 20, 38.0)
    b = build_grid(0.4, 60.0, 20, 38.0)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_grid(0.4, 60.0, 30, 38.0)
