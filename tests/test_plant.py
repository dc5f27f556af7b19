import numpy as np
import pytest

from ates_mpc import (ScenarioError, TruthConfig, init_truth, measure,
                      restrict_to_coarse, truth_step)

DT = 3600.0
U_MAX = 0.0277


def quiet_config(**kw):
    base = dict(nu_fine=200, lambda_bounds=(3.5, 3.5), t_amb_noise_amp=0.0,
                sensor_sigma=0.0, seed=0)
    base.update(kw)
    return TruthConfig(**base)


def test_init_deterministic(grid, params):
    cfg = TruthConfig(seed=7)
    a = init_truth(cfg, grid, params)
    b = init_truth(cfg, grid, params)
    assert np.array_equal(a.lam_warm, b.lam_warm)
    assert np.array_equal(a.lam_cold, b.lam_cold)


def test_lambda_field_statistics(grid, params):
    cfg = TruthConfig(nu_fine=10_000, seed=1)
    state = init_truth(cfg, grid, params)
    lam = np.concatenate([state.lam_warm, state.lam_cold])
    assert lam.min() >= 3.0
    assert lam.max() <= 5.0
    assert lam.mean() == pytest.approx(4.0, abs=0.05)


def test_initial_fields_at_ambient(grid, params):
    state = init_truth(TruthConfig(), grid, params)
    assert np.all(state.warm == 284.85)
    assert np.all(state.cold == 284.85)


def test_fine_grid_coarser_than_prediction_rejected(grid, params):
    with pytest.raises(ScenarioError):
        init_truth(TruthConfig(nu_fine=10), grid, params)


def test_ambient_is_fixed_point_without_noise(grid, params, hx):
    state = init_truth(quiet_config(), grid, params)
    for _ in range(3):
        truth_step(state, 0.0, hx, DT)
    assert np.max(np.abs(state.warm - 284.85)) < 1e-12
    assert np.max(np.abs(state.cold - 284.85)) < 1e-12


def test_perturbation_decays_monotonically(grid, params, hx):
    state = init_truth(quiet_config(), grid, params)
    rng = np.random.default_rng(5)
    state.warm[1:] += 0.5 * rng.standard_normal(200)
    state.warm[0] = state.warm[1]
    devs = []
    for _ in range(12):
        truth_step(state, 0.0, hx, DT)
        devs.append(np.max(np.abs(state.warm - params.t_amb)))
    assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


def test_heating_day_respects_maximum_principle(grid, params, hx):
    state = init_truth(quiet_config(lambda_bounds=(3.0, 5.0)), grid, params)
    for _ in range(24):
        truth_step(state, U_MAX, hx, DT, audit=True)
    assert state.dmp_violation <= 1e-9
    # Injected cold front is monotone in radius.
    assert np.all(np.diff(state.cold[1:]) >= -1e-9)


def test_measurement_order_and_exactness(grid, params):
    state = init_truth(quiet_config(), grid, params)
    state.warm[:] = np.linspace(290.0, 285.0, 201)
    state.cold[:] = np.linspace(280.0, 284.0, 201)
    y = measure(state)
    bh, far = state.sensor_cells
    assert y[0] == state.warm[bh]
    assert y[1] == state.warm[far]
    assert y[2] == state.cold[bh]
    assert y[3] == state.cold[far]


def test_measurement_noise_statistics(grid, params):
    state = init_truth(TruthConfig(sensor_sigma=0.01, seed=3), grid, params)
    samples = np.array([measure(state) for _ in range(10_000)])
    sigma = samples.std(axis=0)
    assert np.all(np.abs(sigma - 0.01) < 0.0005)  # within 5%


def test_energy_bookkeeping_closes(grid, params, hx):
    """Every hour's stored-energy change matches its booked boundary energy.

    The tolerance is 1e-7 of one kelvin of full-flow throughput, under
    heating (warm extraction, cold injection) and cooling alike.  The
    perturbed far-field temperature keeps the last cell off t_far, so the
    far face's upwind temperature matters.
    """
    state = init_truth(quiet_config(t_amb_noise_amp=0.1), grid, params)
    tol = 1e-7 * params.c_w * U_MAX * DT
    energy, booked = state.internal_energy(), state.boundary_energy
    for k in range(24):
        truth_step(state, U_MAX if k < 12 else -U_MAX, hx, DT)
        delta = state.internal_energy() - energy
        assert delta != 0.0
        assert abs(delta - (state.boundary_energy - booked)) <= tol, k
        energy, booked = state.internal_energy(), state.boundary_energy


def test_truth_and_prediction_model_diverge(grid, params, hx):
    from ates_mpc import build_pwa, pwa_step

    state = init_truth(TruthConfig(seed=0, sensor_sigma=0.0), grid, params)
    x = restrict_to_coarse(state, grid)
    u_prev = 0.0
    for k in range(24):
        u = U_MAX if k % 2 == 0 else 0.0
        model = build_pwa(grid, params, hx, DT, x, u_prev)
        x = pwa_step(model, x, u)
        truth_step(state, u, hx, DT)
        u_prev = u
    ref = restrict_to_coarse(state, grid)
    gap = abs(x[0] - ref[0]) + abs(x[21] - ref[21])
    assert gap > 0.0


def test_restrict_to_coarse_shape(grid, params):
    state = init_truth(TruthConfig(), grid, params)
    x = restrict_to_coarse(state, grid)
    assert x.shape == (42,)
    assert np.all(x == 284.85)


def test_overlap_weights_match_per_cell_reference(grid):
    from ates_mpc.grid import build_grid
    from ates_mpc.plant import _overlap_weights

    for nu_fine in (20, 53, 200):
        fine = build_grid(grid.r0, grid.r_inf, nu_fine, grid.l)
        ref = np.zeros((grid.nu, fine.nu))
        for i in range(grid.nu):
            a = np.maximum(grid.edges[i], fine.edges[:-1])
            b = np.minimum(grid.edges[i + 1], fine.edges[1:])
            ref[i] = np.where(b > a, np.clip(b, a, None) ** 2 - a**2, 0.0)
            ref[i] /= ref[i].sum()
        assert np.array_equal(_overlap_weights(fine, grid), ref)


def reference_cell_rates(field_vals, lam, grid, params, q, t_far, injecting):
    """The cell rates with the harmonic-mean face values formed on every call."""
    t = field_vals[1:]
    t0 = field_vals[0]
    dr = grid.dr
    two_pi_l = 2.0 * np.pi * grid.l
    c_a = params.c_a
    lam_face = 2.0 * lam[:-1] * lam[1:] / (lam[:-1] + lam[1:])
    flux = np.zeros(grid.nu + 1)
    flux[1:-1] = lam_face * two_pi_l * grid.edges[1:-1] * (t[1:] - t[:-1]) / dr
    flux[-1] = lam[-1] * two_pi_l * grid.edges[-1] * (t_far - t[-1]) / (0.5 * dr)
    cond_far = float(flux[-1])
    cond_bh = 0.0
    if injecting:
        flux[0] = lam[0] * two_pi_l * grid.edges[0] * (t[0] - t0) / (0.5 * dr)
        cond_bh = float(-flux[0])
    rates = (flux[1:] - flux[:-1]) / (c_a * grid.volumes)
    if q != 0.0:
        v = q / (two_pi_l * grid.midpoints)
        retard = params.c_w / c_a
        grad = np.empty(grid.nu)
        if q > 0.0:
            grad[0] = (t[0] - t0) / dr
            grad[1:] = (t[1:] - t[:-1]) / dr
        else:
            grad[:-1] = (t[1:] - t[:-1]) / dr
            grad[-1] = (t_far - t[-1]) / dr
        rates = rates - retard * v * grad
    return rates, cond_far, cond_bh


def test_cell_rates_with_stored_conductances_match_reference(grid, params):
    from ates_mpc.plant import _cell_rates

    state = init_truth(TruthConfig(seed=11), grid, params)
    rng = np.random.default_rng(4)
    fine = state.grid
    for lam, k in ((state.lam_warm, state.k_warm),
                   (state.lam_cold, state.k_cold)):
        assert np.ptp(lam) > 1.0  # heterogeneous field
        field_vals = 284.85 + 3.0 * rng.standard_normal(fine.nu + 1)
        for q in (0.02, -0.02, 0.0):
            for injecting in (False, True):
                got = _cell_rates(field_vals, k, fine, params, q, 284.9,
                                  injecting)
                ref = reference_cell_rates(field_vals, lam, fine, params, q,
                                           284.9, injecting)
                assert np.array_equal(got[0], ref[0])
                assert got[1:] == ref[1:]
    assert state.lam_max == max(state.lam_warm.max(), state.lam_cold.max())
