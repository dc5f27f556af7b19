import numpy as np
import pytest

from ates_mpc import (OcpConfig, ParameterError, build_pwa, power_bilinear,
                      pwa_step, receding_step, solve_ocp)
from ates_mpc.controller import MODE_SIGN, build_cost, condense, power_linear_rows

DT = 3600.0
U_MAX = 0.0277


@pytest.fixture(scope="module")
def cfg():
    return OcpConfig()


def charged_state(grid, params, warm_lift=6.0, cold_drop=9.0):
    radii = np.concatenate([[grid.r0], grid.midpoints])
    warm = params.t_amb + warm_lift * np.exp(-(radii - grid.r0) / 15.0)
    cold = params.t_amb - cold_drop * np.exp(-(radii - grid.r0) / 15.0)
    return np.concatenate([warm, cold])


def test_config_validation():
    with pytest.raises(ParameterError):
        OcpConfig(blocks=(1, 4, 6))
    with pytest.raises(ParameterError):
        OcpConfig(u_min=0.01)
    with pytest.raises(ParameterError):
        OcpConfig(warm_bounds=(293.0, 284.0))
    with pytest.raises(ParameterError):
        OcpConfig(q_d=-1.0)


def test_block_of_step(cfg):
    assert cfg.block_of_step() == [0] + [1] * 4 + [2] * 7


def test_state_bounds_layout(cfg):
    x_min, x_max = cfg.state_bounds(20)
    assert x_min.shape == (42,)
    assert np.all(x_min[:21] == 284.85)
    assert np.all(x_max[:21] == 293.15)
    assert np.all(x_min[21:] == 273.15)
    assert np.all(x_max[21:] == 284.85)


def test_condense_dimensions(grid, params, hx, cfg, ambient_state):
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.0)
    pred = condense(model, ("heating", "storing", "cooling"), cfg,
                    ambient_state, power_linear_rows(grid, params, DT))
    assert len(pred.state_offsets) == 13
    assert all(o.shape == (42,) for o in pred.state_offsets)
    assert all(g.shape == (42, 3) for g in pred.state_gains)
    assert sum(o.size for o in pred.state_offsets) == 13 * 42
    assert pred.power_offset.shape == (12,)
    assert pred.power_gain.shape == (12, 3)


def test_condense_storing_has_zero_gain(grid, params, hx, cfg, ambient_state):
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.0)
    pred = condense(model, ("storing", "storing", "storing"), cfg,
                    ambient_state, power_linear_rows(grid, params, DT))
    assert all(np.all(g == 0.0) for g in pred.state_gains)
    # Offsets reproduce the storing rollout.
    x = ambient_state.copy()
    for k in range(12):
        x = pwa_step(model, x, 0.0)
        assert np.allclose(pred.state_offsets[k + 1], x, atol=1e-9)


def test_condense_matches_direct_rollout(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.01)
    modes = ("heating", "storing", "cooling")
    pred = condense(model, modes, cfg, x0, power_linear_rows(grid, params, DT))
    u_blocks = np.array([0.02, 0.0, -0.015])
    block_of_step = cfg.block_of_step()
    x = x0.copy()
    r_now, r_next, const = power_linear_rows(grid, params, DT)
    for k in range(12):
        j = block_of_step[k]
        x_next_direct = pwa_step(model, x, u_blocks[j])
        x_next_cond = pred.state_offsets[k + 1] + pred.state_gains[k + 1] @ u_blocks
        assert np.allclose(x_next_cond, x_next_direct, atol=1e-8)
        p_direct = r_now @ x + r_next @ x_next_direct + const
        p_cond = pred.power_offset[k] + pred.power_gain[k] @ u_blocks
        assert p_cond == pytest.approx(p_direct, abs=1e-3)
        x = x_next_direct


def test_soft_rows_match_per_step_reference(grid, params, hx, cfg):
    # Reference: the soft box rows assembled one predicted step at a time.
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.01)
    pred = condense(model, ("heating", "storing", "cooling"), cfg, x0,
                    power_linear_rows(grid, params, DT))
    qp, _, z0 = build_cost(pred, np.full(12, 1e6), 0.0, cfg, grid.nu)
    x_min, x_max = cfg.state_bounds(grid.nu)
    rows, rhs = [], []
    for k in range(1, 13):
        gain, off = pred.state_gains[k], pred.state_offsets[k]
        minus_one = -np.ones((gain.shape[0], 1))
        rows += [np.hstack([gain, minus_one]), np.hstack([-gain, minus_one])]
        rhs += [x_max - off, off - x_min]
    soft_G, soft_h = np.vstack(rows), np.concatenate(rhs)
    keep = np.abs(soft_G[:, :3]).sum(axis=1) * U_MAX >= soft_h - 1e-9
    assert 0 < keep.sum() < keep.size
    # 7 input-box and slack rows come first.
    assert np.array_equal(qp.G[7:], soft_G[keep])
    assert np.array_equal(qp.h[7:], soft_h[keep])
    assert z0[3] == max(0.0, float(np.max(-soft_h))) + 1e-9


def test_pure_input_penalty_prefers_zero_flow(grid, params, hx):
    cfg = OcpConfig(q_d=0.0, q_e=0.0)
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    sol = solve_ocp(x0, np.zeros(12), 0.0, cfg, model, grid, params)
    assert np.allclose(sol.u_blocks, 0.0, atol=1e-9)
    assert sol.mode_sequence == ("storing", "storing", "storing")


def test_heat_surplus_drives_cooling(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    b_past = 500.0 * 3.6e9  # large delivered-heat surplus
    sol = solve_ocp(x0, np.zeros(12), b_past, cfg, model, grid, params)
    assert sol.mode_sequence[0] == "cooling"
    assert sol.u_blocks[0] < 0.0


def test_demand_step_drives_heating(grid, params, hx, cfg):
    x0 = charged_state(grid, params, warm_lift=7.0, cold_drop=7.0)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    sol = solve_ocp(x0, np.full(12, 1e6), 0.0, cfg, model, grid, params)
    assert sol.mode_sequence[0] == "heating"
    assert 0.0 < sol.u_blocks[0] <= U_MAX
    assert sol.p_pred[0] > 0.0


def test_mode_sign_consistency_and_bounds(grid, params, hx, cfg):
    rng = np.random.default_rng(2)
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    for trial in range(5):
        demand = rng.uniform(-1.5e6, 2e6, 12)
        sol = solve_ocp(x0, demand, rng.uniform(-1e11, 1e11), cfg, model,
                        grid, params)
        for j, mode in enumerate(sol.mode_sequence):
            sign = MODE_SIGN[mode]
            if sign == 0.0:
                assert sol.u_blocks[j] == 0.0
            else:
                assert sol.u_blocks[j] * sign >= 0.0
        assert np.all(np.abs(sol.u_blocks) <= U_MAX + 1e-12)


def test_candidate_records_complete(grid, params, hx, cfg, ambient_state):
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.0)
    sol = solve_ocp(ambient_state, np.zeros(12), 0.0, cfg, model, grid, params)
    assert len(sol.per_candidate) == 27
    assert sol.cost <= min(r.cost for r in sol.per_candidate) + 1e-12


def test_cost_terms_sum_to_total(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    sol = solve_ocp(x0, np.full(12, 8e5), 20.0 * 3.6e9, cfg, model, grid, params)
    assert sum(sol.cost_terms.values()) == pytest.approx(sol.cost, rel=1e-6)


def test_predicted_states_satisfy_selected_branch(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    sol = solve_ocp(x0, np.full(12, 1e6), 0.0, cfg, model, grid, params)
    block_of_step = cfg.block_of_step()
    for k in range(12):
        u = sol.u_blocks[block_of_step[k]]
        assert np.allclose(sol.x_pred[k + 1], pwa_step(model, sol.x_pred[k], u),
                           atol=1e-9)


def test_determinism(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    demand = np.full(12, 5e5)
    a = solve_ocp(x0, demand, 1e10, cfg, model, grid, params)
    b = solve_ocp(x0, demand, 1e10, cfg, model, grid, params)
    assert np.array_equal(a.u_blocks, b.u_blocks)
    assert a.mode_sequence == b.mode_sequence
    assert a.cost == b.cost
    assert receding_step(a) == receding_step(b) == a.u_blocks[0]


def test_build_cost_feasible_start(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    pred = condense(model, ("heating", "heating", "heating"), cfg, x0,
                    power_linear_rows(grid, params, DT))
    qp, const, z0 = build_cost(pred, np.full(12, 1e6), 0.0, cfg, 20)
    assert np.all(qp.G @ z0 <= qp.h + 1e-9)
    assert np.isfinite(const)
