import copy
import dataclasses

import numpy as np
import pytest

from ates_mpc import (ParameterError, ScenarioError, TruthConfig, init_truth,
                      measure, plant, restrict_to_coarse, truth_step)
from ates_mpc.heat_exchanger import hx_outlet_temp

DT = 3600.0
U_MAX = 0.0277


def quiet_config(**kw):
    base = dict(nu_fine=200, lambda_bounds=(3.5, 3.5), t_amb_noise_amp=0.0,
                sensor_sigma=0.0, seed=0)
    base.update(kw)
    return TruthConfig(**base)


@pytest.mark.parametrize("kw", [dict(t_amb_noise_amp=-0.1),
                                dict(sensor_sigma=-0.01),
                                dict(sensor_sigma=float("nan"))])
def test_config_rejects_negative_noise(reference, kw):
    with pytest.raises(ParameterError):
        dataclasses.replace(reference.truth, **kw)


def test_init_deterministic(grid, params, reference):
    cfg = dataclasses.replace(reference.truth, seed=7)
    a = init_truth(cfg, grid, params)
    b = init_truth(cfg, grid, params)
    assert np.array_equal(a.lam_warm, b.lam_warm)
    assert np.array_equal(a.lam_cold, b.lam_cold)


def test_lambda_field_statistics(grid, params, reference):
    cfg = dataclasses.replace(reference.truth, nu_fine=10_000, seed=1)
    state = init_truth(cfg, grid, params)
    lam = np.concatenate([state.lam_warm, state.lam_cold])
    assert lam.min() >= 3.0
    assert lam.max() <= 5.0
    assert lam.mean() == pytest.approx(4.0, abs=0.05)


def test_initial_fields_at_ambient(grid, params, reference):
    state = init_truth(reference.truth, grid, params)
    assert np.all(state.warm == 284.85)
    assert np.all(state.cold == 284.85)


def test_fine_grid_coarser_than_prediction_rejected(grid, params, reference):
    with pytest.raises(ScenarioError):
        init_truth(dataclasses.replace(reference.truth, nu_fine=10), grid,
                   params)


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


def test_measurement_noise_statistics(grid, params, reference):
    cfg = dataclasses.replace(reference.truth, sensor_sigma=0.01, seed=3)
    state = init_truth(cfg, grid, params)
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


def test_truth_and_prediction_model_diverge(grid, params, hx, reference):
    from ates_mpc import build_pwa, pwa_step

    cfg = dataclasses.replace(reference.truth, seed=0, sensor_sigma=0.0)
    state = init_truth(cfg, grid, params)
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


def test_restrict_to_coarse_shape(grid, params, reference):
    state = init_truth(reference.truth, grid, params)
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


def test_cell_rates_with_stored_conductances_match_reference(grid, params, hx,
                                                             reference,
                                                             monkeypatch):
    """One substep from random fields matches the reference rates formed
    from the lambda fields on every call."""
    cfg = dataclasses.replace(reference.truth, seed=11, t_amb_noise_amp=0.0)
    state = init_truth(cfg, grid, params)
    rng = np.random.default_rng(4)
    nu = state.grid.nu
    for lam in (state.lam_warm, state.lam_cold):
        assert np.ptp(lam) > 1.0  # heterogeneous field
    monkeypatch.setattr(plant, "_substep_count", lambda *args: 1)
    # Heating injects into the cold row and cooling into the warm one, so the
    # flows cover both flow directions with and without injection per row.
    for u in (0.02, -0.02, 0.0):
        state.fields[:, :-1] = 284.85 + 3.0 * rng.standard_normal((2, nu + 1))
        ref = ReferencePlant(state)
        truth_step(state, u, hx, DT, audit=True)
        ref.step(state, u, hx, DT, True)
        assert_same_plant(state, ref)
    assert state.lam_max == max(state.lam_warm.max(), state.lam_cold.max())


class ReferencePlant:
    """The truth plant with one array, one rates call and one padded audit per
    aquifer and substep: the per-aquifer form the fused step must reproduce."""

    def __init__(self, state):
        self.warm = state.warm.copy()
        self.cold = state.cold.copy()
        self.rng_t_amb = copy.deepcopy(state.rng_t_amb)
        self.boundary_energy = state.boundary_energy
        self.dmp_violation = state.dmp_violation

    def step(self, state, u, hx, dt, audit):
        """``state`` supplies the grid, parameters, lambda fields and the
        substep count, which the test may monkeypatch."""
        cfg, p, grid = state.cfg, state.params, state.grid
        t_far = p.t_amb
        if cfg.t_amb_noise_amp > 0.0:
            t_far = p.t_amb + self.rng_t_amb.uniform(-cfg.t_amb_noise_amp,
                                                     cfg.t_amb_noise_amp)
        n_sub = plant._substep_count(state, u, dt)
        dt_sub = dt / n_sub
        heating, cooling = u > 0.0, u < 0.0
        for _ in range(n_sub):
            if heating:
                self.warm[0] = self.warm[1]
                self.cold[0] = hx_outlet_temp(self.warm[0], u, hx.q_b,
                                              hx.t_b("heating"))
            elif cooling:
                self.cold[0] = self.cold[1]
                self.warm[0] = hx_outlet_temp(self.cold[0], u, hx.q_b,
                                              hx.t_b("cooling"))
            else:
                self.warm[0] = self.warm[1]
                self.cold[0] = self.cold[1]
            for vals, lam, q, injecting in (
                    (self.warm, state.lam_warm, -u, cooling),
                    (self.cold, state.lam_cold, u, heating)):
                rates, cond_far, cond_bh = reference_cell_rates(
                    vals, lam, grid, p, q, t_far, injecting)
                t_new = vals[1:] + dt_sub * rates
                if audit:
                    padded = np.concatenate([[vals[0]], vals[1:], [t_far]])
                    lo = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
                    hi = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
                    excess = float(max(0.0, np.max(t_new - hi), np.max(lo - t_new)))
                    self.dmp_violation = max(self.dmp_violation, excess)
                t_out = vals[-1] if q > 0.0 else t_far
                enthalpy = p.c_w * q * (vals[0] - t_out)
                self.boundary_energy += dt_sub * (enthalpy + cond_far + cond_bh)
                vals[1:] = t_new
            if heating:
                self.warm[0] = self.warm[1]
            elif cooling:
                self.cold[0] = self.cold[1]
            else:
                self.warm[0] = self.warm[1]
                self.cold[0] = self.cold[1]


def assert_same_plant(state, ref):
    assert np.array_equal(state.warm, ref.warm)
    assert np.array_equal(state.cold, ref.cold)
    assert state.boundary_energy == ref.boundary_energy
    assert state.dmp_violation == ref.dmp_violation


@pytest.mark.parametrize("audit", [True, False])
def test_fused_step_matches_per_aquifer_reference(grid, params, hx, reference,
                                                  audit):
    cfg = dataclasses.replace(reference.truth, seed=5, t_amb_noise_amp=0.1)
    state = init_truth(cfg, grid, params)
    ref = ReferencePlant(state)
    # Heating, storing, cooling and half flow in both directions.
    flows = [U_MAX] * 3 + [0.0] * 2 + [-U_MAX] * 3 + [0.5 * U_MAX] * 2 \
        + [-0.5 * U_MAX] * 2 + [0.0]
    for u in flows:
        truth_step(state, u, hx, DT, audit=audit)
        ref.step(state, u, hx, DT, audit)
        assert_same_plant(state, ref)
    assert state.boundary_energy != 0.0


def _substep_change(state, hi_flow):
    """The flows in [0, hi_flow] just below and at the step of the substep
    count up to that of ``hi_flow``, by bisection down to adjacent floats."""
    lo, hi = 0.0, hi_flow
    top = plant._substep_count(state, hi_flow, DT)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if plant._substep_count(state, mid, DT) < top:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("audit", [True, False])
def test_fused_step_matches_reference_over_random_flows(grid, params, hx,
                                                        reference, audit):
    """48 seeded flows uniform in [-u_max, u_max], with exact zeros among them
    and, in both directions, the last flow before and the first after two
    changes of the substep count."""
    cfg = dataclasses.replace(reference.truth, seed=13, t_amb_noise_amp=0.1)
    state = init_truth(cfg, grid, params)
    ref = ReferencePlant(state)
    flows = list(np.random.default_rng(29).uniform(-U_MAX, U_MAX, 48))
    flows[5] = flows[17] = flows[30] = 0.0
    for hi_flow in (0.5 * U_MAX, U_MAX):
        below, above = _substep_change(state, hi_flow)
        assert np.nextafter(below, above) == above
        assert (plant._substep_count(state, below, DT)
                < plant._substep_count(state, above, DT))
        flows += [below, above, -above, -below]
    counts = {plant._substep_count(state, u, DT) for u in flows}
    assert len(counts) >= 8
    for u in flows:
        truth_step(state, u, hx, DT, audit=audit)
        ref.step(state, u, hx, DT, audit)
        assert_same_plant(state, ref)
    assert state.boundary_energy != 0.0


def test_substep_adds_the_written_out_increment(grid, params, hx, reference,
                                                monkeypatch):
    """One substep of a single-spike field is mid + (c_out d[1:] - c_in d[:-1])
    along the interior of fields.ravel(), its coefficients written out from
    the conductances, heat capacities and velocities."""
    state = init_truth(dataclasses.replace(reference.truth, t_amb_noise_amp=0.0),
                       grid, params)
    fine, p = state.grid, state.params
    nu, dr = fine.nu, fine.dr
    monkeypatch.setattr(plant, "_substep_count", lambda *args: 1)
    for u in (U_MAX, 0.0, -U_MAX):
        state.fields[...] = p.t_amb
        state.warm[60] += 4.0
        state.cold[90] -= 3.0
        before = state.fields.copy()
        if u != 0.0:
            # The injecting row's borehole entry is the HX outlet temperature.
            inj, mode = (1, "heating") if u > 0.0 else (0, "cooling")
            before[inj, 0] = hx_outlet_temp(p.t_amb, u, hx.q_b, hx.t_b(mode))
        flat = before.ravel()
        d = flat[1:] - flat[:-1]
        c_out = state.k_edge[1:] * DT / (dr * state.heat_capacity)
        c_in = state.k_edge[:-1] * DT / (dr * state.heat_capacity)
        c_out[nu:nu + 2] = c_in[nu:nu + 2] = 0.0
        if u != 0.0:
            weight = (DT / dr) * (p.c_w / p.c_a)
            shell = 2.0 * np.pi * fine.l * fine.midpoints
            # Water leaves the extracting row inward (v < 0), upwinded on
            # the outer edge, and enters the injecting row outward.
            for row, q in ((0, -u), (1, u)):
                cells = slice(row * (nu + 2), row * (nu + 2) + nu)
                v = q / shell
                if q < 0.0:
                    c_out[cells] -= weight * v
                else:
                    c_in[cells] += weight * v
        expected = flat[1:-1] + (c_out * d[1:] - c_in * d[:-1])
        truth_step(state, u, hx, DT)
        new = state.fields.ravel()[1:-1]
        assert np.array_equal(new[:nu], expected[:nu])
        assert np.array_equal(new[nu + 2:], expected[nu + 2:])
        assert new[nu] == p.t_amb  # the warm row's far-field padding


def test_increment_coefficients_are_a_convex_stencil(grid, params, reference):
    """At every substep count over [-u_max, u_max], at the largest flow of
    each count, the coefficients are nonnegative, 0 on the padding and sum
    to at most 1 per cell, so a substep is a convex combination of its old
    three-point stencil: the discrete maximum principle the audit checks."""
    state = init_truth(dataclasses.replace(reference.truth, seed=13), grid, params)
    nu = state.grid.nu
    flows = list(np.linspace(-U_MAX, U_MAX, 401))
    counts = {plant._substep_count(state, u, DT) for u in flows}
    assert counts == set(range(1, max(counts) + 1)) and len(counts) >= 8
    # The last flow of each count below the top one, in both directions.
    for n in sorted(counts)[1:]:
        first = next(u for u in flows if u > 0.0
                     and plant._substep_count(state, u, DT) == n)
        below, above = _substep_change(state, first)
        assert plant._substep_count(state, below, DT) == n - 1
        flows += [below, above, -above, -below]
    for u in flows:
        n_sub = plant._substep_count(state, u, DT)
        c_out, c_in = plant._increment_coefficients(state, u, DT / n_sub)
        assert np.all(c_out >= 0.0) and np.all(c_in >= 0.0)
        assert not c_out[nu:nu + 2].any() and not c_in[nu:nu + 2].any()
        assert np.all(c_out + c_in <= 1.0)


@pytest.mark.parametrize("dt", (-DT, 0.0, np.nan, np.inf, -np.inf))
def test_step_rejects_a_bad_time_step(grid, params, hx, reference, dt):
    """A negative step would run the hour backwards; the state is left as
    it was."""
    state = init_truth(reference.truth, grid, params)
    state.warm[10] += 2.0
    fields = state.fields.copy()
    rng = copy.deepcopy(state.rng_t_amb.bit_generator.state)
    with pytest.raises(ParameterError, match="time step"):
        truth_step(state, U_MAX, hx, dt, audit=True)
    assert np.array_equal(state.fields, fields)
    assert state.rng_t_amb.bit_generator.state == rng
    assert state.boundary_energy == 0.0 and state.dmp_violation == 0.0


def test_fused_audit_reports_a_cfl_violation(grid, params, hx, reference,
                                             monkeypatch):
    state = init_truth(dataclasses.replace(reference.truth, seed=5), grid, params)
    ref = ReferencePlant(state)
    for u in (U_MAX, -U_MAX):
        truth_step(state, u, hx, DT, audit=True)
        ref.step(state, u, hx, DT, True)
    assert state.dmp_violation == 0.0
    # One substep per hour at full flow breaks the CFL and diffusion limits,
    # so the explicit update overshoots its stencil envelope.
    monkeypatch.setattr(plant, "_substep_count", lambda *args: 1)
    truth_step(state, U_MAX, hx, DT, audit=True)
    ref.step(state, U_MAX, hx, DT, True)
    assert state.dmp_violation > 0.0
    assert_same_plant(state, ref)


def test_audit_reports_a_non_finite_field(grid, params, hx):
    state = init_truth(quiet_config(), grid, params)
    state.warm[50] = np.nan
    truth_step(state, U_MAX, hx, DT, audit=True)
    assert not np.isfinite(state.dmp_violation)
    # The NaN spreads and stays, and so does the reported violation.
    truth_step(state, -U_MAX, hx, DT, audit=True)
    assert np.isnan(state.warm).sum() > 1
    assert not np.isfinite(state.dmp_violation)


def test_a_non_finite_value_stays_in_its_row(grid, params, hx):
    """A NaN in the warm far cell reaches the warm far-field padding, but
    not the cold row across it; under heating the heat exchanger couples
    the rows only through the warm borehole entry, which stays finite."""
    state = init_truth(quiet_config(), grid, params)
    state.warm[-1] = np.nan
    truth_step(state, U_MAX, hx, DT, audit=True)
    assert not np.isfinite(state.dmp_violation)
    assert np.isfinite(state.warm[0])
    assert np.all(np.isfinite(state.cold))


def test_writes_through_field_views_steer_the_step(grid, params, hx):
    state = init_truth(quiet_config(lambda_bounds=(3.0, 5.0)), grid, params)
    state.warm[:] = np.linspace(290.0, 285.0, 201)
    state.cold[0] = 280.0
    y = measure(state)
    assert y[0] == 290.0 and y[2] == 280.0
    x = restrict_to_coarse(state, grid)
    assert x[0] == 290.0 and x[grid.nu + 1] == 280.0
    ref = ReferencePlant(state)
    for u in (-U_MAX, 0.0):
        truth_step(state, u, hx, DT, audit=True)
        ref.step(state, u, hx, DT, True)
        assert_same_plant(state, ref)
    assert state.warm[-1] != params.t_amb


def test_restriction_equals_per_aquifer_matrix_products(grid, params,
                                                        reference):
    from ates_mpc.plant import _overlap_weights

    state = init_truth(reference.truth, grid, params)
    rng = np.random.default_rng(8)
    W = _overlap_weights(state.grid, grid)
    for _ in range(20):
        state.warm[:] = 284.85 + rng.standard_normal(201)
        state.cold[:] = 284.85 + rng.standard_normal(201)
        x = restrict_to_coarse(state, grid)
        nu = grid.nu
        assert x[0] == state.warm[0] and x[nu + 1] == state.cold[0]
        assert np.array_equal(x[1:nu + 1], W @ state.warm[1:])
        assert np.array_equal(x[nu + 2:], W @ state.cold[1:])
