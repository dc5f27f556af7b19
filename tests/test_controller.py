import dataclasses
import itertools

import numpy as np
import pytest

from scipy.optimize import nnls

from ates_mpc import (ControllerFault, ParameterError, Qp, QpResult,
                      build_grid, build_pwa, hx_outlet_temp, power_bilinear,
                      pwa_step, solve_ocp, solve_qp)
from ates_mpc import controller
from ates_mpc.controller import (W_PER_MW, build_cost, condense,
                                 power_linear_rows, sequence_table, soft_rows,
                                 trajectory)
from ates_mpc.heat_exchanger import linearize_hx
from ates_mpc.pwa import MODES, mode_of

from test_acceptance import smooth_random_state

DT = 3600.0
U_MAX = 0.0277


@pytest.fixture(scope="module")
def cfg(reference):
    return reference.ocp


def mode_indices(names):
    """A sequence of mode names as a row of ``sequence_table(cfg).modes``."""
    return np.array([MODES.index(name) for name in names])


def trajectory_states(model, cfg, x0, modes):
    """One sequence's offsets and gains, x(k) = offsets[k] + gains[k] @
    u_blocks, stepped by ``trajectory`` as ``soft_rows`` steps them."""
    nb = len(cfg.blocks)
    return (trajectory(model, cfg, x0, modes, np.zeros(nb)),
            trajectory(model, cfg, np.zeros((model.n, nb)), modes, np.eye(nb),
                       affine=False))


def charged_state(grid, params, warm_lift=6.0, cold_drop=9.0):
    radii = np.concatenate([[grid.r0], grid.midpoints])
    warm = params.t_amb + warm_lift * np.exp(-(radii - grid.r0) / 15.0)
    cold = params.t_amb - cold_drop * np.exp(-(radii - grid.r0) / 15.0)
    return np.concatenate([warm, cold])


def test_config_validation(cfg):
    with pytest.raises(ParameterError):
        dataclasses.replace(cfg, blocks=(0, 4, 7))
    for u_max in (0.0, -0.01, np.nan):
        with pytest.raises(ParameterError, match="u_max"):
            dataclasses.replace(cfg, u_max=u_max)
    assert dataclasses.replace(cfg, u_max=0.01).u_min == -0.01
    with pytest.raises(ParameterError):
        dataclasses.replace(cfg, warm_bounds=(293.0, 284.0))
    with pytest.raises(ParameterError):
        dataclasses.replace(cfg, q_d=-1.0)


@pytest.mark.parametrize("kw", [dict(q_d=np.nan),
                                dict(warm_bounds=(np.nan, 293.0)),
                                dict(cold_bounds=(273.15, np.nan)),
                                dict(q_u=np.nan), dict(q_e=np.nan),
                                dict(slack_weight=np.nan)])
def test_config_rejects_nan(cfg, kw):
    with pytest.raises(ParameterError):
        dataclasses.replace(cfg, **kw)


# The public constructors' checks are written so that a NaN fails them; an
# empty block list is a config error, not a failure of ``min``.
@pytest.mark.parametrize("build", [
    lambda cfg, hx: build_grid(0.4, 60.0, 20, np.nan),
    lambda cfg, hx: hx_outlet_temp(285.0, 0.01, np.nan, 274.0),
    lambda cfg, hx: linearize_hx(285.0, np.nan, hx, "heating"),
    lambda cfg, hx: linearize_hx(285.0, np.nan, hx, "cooling"),
    lambda cfg, hx: dataclasses.replace(cfg, blocks=()),
], ids=["grid_length", "hx_flow", "hx_expansion_heating",
        "hx_expansion_cooling", "no_blocks"])
def test_constructor_rejects_nan_and_empty(cfg, hx, build):
    with pytest.raises(ParameterError):
        build(cfg, hx)


def test_state_bounds_layout(cfg):
    x_min, x_max = cfg.state_bounds(20)
    assert x_min.shape == (42,)
    assert np.all(x_min[:21] == 284.85)
    assert np.all(x_max[:21] == 293.15)
    assert np.all(x_min[21:] == 273.15)
    assert np.all(x_max[21:] == 284.85)


def test_condense_dimensions(grid, params, hx, cfg, ambient_state):
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.0)
    power = condense(model, cfg, ambient_state,
                     power_linear_rows(grid, params, DT))
    table = sequence_table(cfg)
    assert table.names == tuple(itertools.product(MODES, repeat=3))
    assert table.modes.shape == (27, 3) and not table.modes.flags.writeable
    assert table.names == tuple(tuple(MODES[i] for i in row)
                                for row in table.modes)
    # Only the power maps come back: states are rolled out per sequence,
    # never for all 27 at once.
    p_off, p_gain = power
    assert p_off.shape == (27, 12)
    assert p_gain.shape == (27, 12, 3)
    offsets, gains = trajectory_states(model, cfg, ambient_state,
                                       table.modes[0])
    assert offsets.shape == (13, 42)
    assert gains.shape == (13, 42, 3)


def test_condense_storing_has_zero_gain(grid, params, hx, cfg, ambient_state):
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.0)
    _, p_gain = condense(model, cfg, ambient_state,
                         power_linear_rows(grid, params, DT))
    table = sequence_table(cfg)
    s = table.names.index(("storing", "storing", "storing"))
    offsets, gains = trajectory_states(model, cfg, ambient_state,
                                       table.modes[s])
    assert np.all(gains == 0.0)
    assert np.all(p_gain[s] == 0.0)
    # Offsets reproduce the storing rollout.
    x = ambient_state.copy()
    for k in range(12):
        x = pwa_step(model, x, 0.0)
        assert np.allclose(offsets[k + 1], x, atol=1e-9)
    # A storing block has a zero gain column in every sequence.
    for s, modes in enumerate(table.names):
        _, gains = trajectory_states(model, cfg, ambient_state, table.modes[s])
        for j, mode in enumerate(modes):
            if mode == "storing":
                assert np.all(gains[:, :, j] == 0.0)
                assert np.all(p_gain[s, :, j] == 0.0)


def test_condense_matches_direct_rollout(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.01)
    p_off, p_gain = condense(model, cfg, x0, power_linear_rows(grid, params, DT))
    modes = mode_indices(("heating", "storing", "cooling"))
    s = sequence_table(cfg).names.index(("heating", "storing", "cooling"))
    offsets, gains = trajectory_states(model, cfg, x0, modes)
    u_blocks = np.array([0.02, 0.0, -0.015])
    x_traj = trajectory(model, cfg, x0, modes, u_blocks)
    assert np.array_equal(x_traj[0], x0)
    block_of_step = np.repeat(np.arange(3), cfg.blocks)
    x = x0.copy()
    r_now, r_next, const = power_linear_rows(grid, params, DT)
    for k in range(12):
        j = block_of_step[k]
        x_next_direct = pwa_step(model, x, u_blocks[j])
        x_next_cond = offsets[k + 1] + gains[k + 1] @ u_blocks
        assert np.allclose(x_next_cond, x_next_direct, atol=1e-8)
        assert np.allclose(x_traj[k + 1], x_next_direct, atol=1e-8)
        p_direct = r_now @ x + r_next @ x_next_direct + const
        p_cond = p_off[s, k] + p_gain[s, k] @ u_blocks
        assert p_cond == pytest.approx(p_direct, abs=1e-3)
        x = x_next_direct


def soft_rows_per_step(states, pumping, cfg, nu):
    """Reference: every soft box row of a sequence's offsets and gains
    (``per_step_states``), one predicted step at a time, over the pumping
    blocks' flows and the slack."""
    x_min, x_max = cfg.state_bounds(nu)
    rows, rhs = [], []
    for k in range(1, cfg.horizon + 1):
        off, gain = states[0][k], states[1][k][:, pumping]
        minus_one = -np.ones((gain.shape[0], 1))
        rows += [np.hstack([gain, minus_one]), np.hstack([-gain, minus_one])]
        rhs += [x_max - off, off - x_min]
    return np.vstack(rows), np.concatenate(rhs)


def full_row_qp(s, model, cfg, x0, H_s, g_s):
    """Reference: sequence s's box QP with all its soft rows at once."""
    box_G, box_h, free, ix = sequence_table(cfg).boxes[s]
    modes = sequence_table(cfg).modes[s]
    G, h = soft_rows_per_step(per_step_states(model, modes, cfg, x0),
                              free[:-1], cfg, model.nu)
    return Qp(H_s[ix], g_s[free], np.vstack([box_G, G]),
              np.concatenate([box_h, h])), free


# Instants where soft state rows bind.  At the first, 1 of the 3 solved
# candidates breaks a soft row at its box optimum; at the second the store
# starts below the cold box, so all 27 do and the winner uses 0.514 K of
# slack.
BINDING = {
    "cold_floor_277": ((277.0, 284.85), 3.0, 3.0),
    "cold_floor_280": ((280.0, 284.85), 6.0, 6.0),
}


def binding_instant(grid, params, hx, cfg, name):
    cold_bounds, warm_lift, cold_drop = BINDING[name]
    cfg = dataclasses.replace(cfg, cold_bounds=cold_bounds)
    x0 = charged_state(grid, params, warm_lift, cold_drop)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    return cfg, x0, model, np.full(12, -2.5e6)


def test_soft_rows_match_per_step_reference(grid, params, hx, cfg):
    cfg, x0, model, demand = binding_instant(grid, params, hx, cfg,
                                             "cold_floor_280")
    power = condense(model, cfg, x0, power_linear_rows(grid, params, DT))
    s = sequence_table(cfg).names.index(("heating", "storing", "cooling"))
    modes = sequence_table(cfg).modes[s]
    H, g, _ = build_cost(power, demand, 0.0, cfg)
    box_G, box_h, free, ix = sequence_table(cfg).boxes[s]
    qp = Qp(H[s][ix], g[s][free], box_G, box_h)
    # The storing block's flow is eliminated: the QP is over blocks 0 and 2
    # and the slack.  Its rows are the input box, the bound at zero first,
    # then slack >= 0.
    assert free.tolist() == [0, 2, 3]
    assert np.array_equal(qp.H, H[s][np.ix_(free, free)])
    assert np.array_equal(qp.G, [[-1, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0],
                                 [0, 0, -1]])
    assert np.array_equal(qp.h, [0.0, U_MAX, 0.0, U_MAX, 0.0])

    states = per_step_states(model, modes, cfg, x0)
    ref_G, ref_h = soft_rows_per_step(states, [0, 2], cfg, grid.nu)
    G, h = soft_rows(model, cfg, x0, modes, free[:-1])
    assert G.shape == (2 * 12 * 42, 3)
    assert np.array_equal(G, ref_G)
    assert np.array_equal(h, ref_h)
    # The box optimum breaks some of them, and the trajectory at it shows
    # the same breaks.
    z = solve_qp(qp).z_star
    broken = G @ z - h > 1e-9
    assert 0 < broken.sum() < broken.size
    x = trajectory(model, cfg, x0, modes, np.array([z[0], 0.0, z[1]]))
    x_min, x_max = cfg.state_bounds(grid.nu)
    assert np.array_equal(
        np.stack([x[1:] - x_max, x_min - x[1:]], axis=1).ravel() - z[-1] > 1e-9,
        broken)


def test_pure_input_penalty_prefers_zero_flow(grid, params, hx, cfg):
    cfg = dataclasses.replace(cfg, q_d=0.0, q_e=0.0)
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    sol = solve_ocp(x0, np.zeros(12), 0.0, cfg, model, grid, params)
    assert np.allclose(sol.u_blocks, 0.0, atol=1e-9)
    assert sol.mode_sequence == ("storing", "storing", "storing")


def test_heat_surplus_drives_cooling(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    # Large delivered-heat surplus.  At 500 MWh the first block's optimum
    # sits on its zero bound, so only the later blocks would cool.
    b_past = 1000.0 * 3.6e9
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


def test_heating_block_at_zero_applies_exact_zero(grid, params, hx, cfg):
    # A small heat demand before a long cold one: the heating-first sequence
    # wins with its first block on the zero bound, which the QP may return
    # at rounding level (5.9e-19 under an earlier rounding of the cost).
    x0 = charged_state(grid, params, warm_lift=3.0, cold_drop=3.0)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    demand = np.array([1e5] + [-1e6] * 11)
    sol = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    assert sol.mode_sequence[0] == "heating"
    u = float(sol.u_blocks[0])
    assert u == 0.0 and np.copysign(1.0, u) == 1.0
    assert mode_of(u) == "storing"
    winner = next(r for r in sol.per_candidate
                  if r.mode_sequence == sol.mode_sequence)
    assert abs(winner.u_blocks[0]) <= 1e-12 * U_MAX
    assert sol.cost == winner.cost


def test_snapped_flows_are_counted(grid, params, hx, cfg, monkeypatch):
    # The instant above with every QP's zero flows set to +1e-19 m^3/s, as a
    # rounding change can leave them: the heating block's flow is set to
    # exactly 0.0 and counted, while the cooling blocks' flows are far from 0.
    def nudged(qp):
        result = solve_qp(qp)
        z = result.z_star.copy()
        flows = z[:-1]
        flows[np.abs(flows) <= 1e-12 * U_MAX] = 1e-19
        return dataclasses.replace(result, z_star=z)

    x0 = charged_state(grid, params, warm_lift=3.0, cold_drop=3.0)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    demand = np.array([1e5] + [-1e6] * 11)
    exact = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    monkeypatch.setattr(controller, "solve_qp", nudged)
    sol = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    assert sol.mode_sequence == exact.mode_sequence == ("heating", "cooling",
                                                         "cooling")
    winner = next(r for r in sol.per_candidate
                  if r.mode_sequence == sol.mode_sequence)
    assert 0.0 < winner.u_blocks[0] <= 1e-12 * U_MAX
    assert sol.counts["snapped_flows"] == 1
    assert sol.u_blocks[0] == 0.0
    assert np.array_equal(sol.x_pred, exact.x_pred)


def test_clipped_flows_are_rolled_out_again(grid, params, hx, cfg,
                                            monkeypatch):
    # x_pred is the winner's trajectory at the flows it applies: when the
    # clip changes a QP's flows, the sequence is rolled out again at them.
    def flipped(qp):
        result = solve_qp(qp)
        z = result.z_star.copy()
        z[:-1] *= -1.0      # every pumping flow gets the wrong sign
        return dataclasses.replace(result, z_star=z)

    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    demand = np.full(12, 1e6)
    exact = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    assert np.all(exact.u_blocks > 0.0)
    monkeypatch.setattr(controller, "solve_qp", flipped)
    sol = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    assert sol.mode_sequence == exact.mode_sequence
    assert np.all(sol.u_blocks == 0.0)
    assert np.array_equal(sol.x_pred, trajectory(
        model, cfg, x0, mode_indices(sol.mode_sequence), sol.u_blocks))


def test_stalled_candidate_drops_out(grid, params, hx, cfg, monkeypatch):
    # The first QP solved stalls: its sequence is recorded as stalled and
    # counted, and the plan is the best of the sequences left.
    calls = []

    def stall_first(qp):
        calls.append(qp)
        if len(calls) == 1:
            return QpResult(np.full(qp.m, np.nan), np.inf, "stalled", np.inf, ())
        return solve_qp(qp)

    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    demand = np.full(12, 1e6)
    exact = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    monkeypatch.setattr(controller, "solve_qp", stall_first)
    sol = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    stalled = [r for r in sol.per_candidate if r.status == "stalled"]
    assert len(stalled) == 1 and stalled[0].cost == np.inf
    assert sol.counts["stalled_candidates"] == 1
    winner = next(r for r in sol.per_candidate
                  if r.mode_sequence == sol.mode_sequence)
    assert winner.status == "optimal" and winner.cost == sol.cost
    assert sol.mode_sequence != stalled[0].mode_sequence
    assert sol.cost >= exact.cost


def test_every_candidate_failing_is_a_controller_fault(grid, params, hx, cfg,
                                                       monkeypatch):
    # Every QP fails, alternately stalled and infeasible; the fault names
    # both counts.
    calls = []

    def failing(qp):
        calls.append(qp)
        if len(calls) % 2:
            return QpResult(np.full(qp.m, np.nan), np.inf, "stalled", np.inf, ())
        return QpResult(np.full(qp.m, np.nan), np.inf, "infeasible", np.inf, ())

    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    monkeypatch.setattr(controller, "solve_qp", failing)
    with pytest.raises(ControllerFault) as info:
        solve_ocp(x0, np.full(12, 1e6), 0.0, cfg, model, grid, params)
    assert len(calls) == 27
    assert str(info.value) == ("all 27 candidate mode sequences failed: "
                               "13 infeasible, 14 stalled")


@pytest.mark.parametrize("demand_entry, b_past", [(np.inf, 0.0),
                                                   (0.0, np.nan)])
def test_non_finite_inputs_are_rejected(grid, params, hx, cfg, ambient_state,
                                        demand_entry, b_past):
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.0)
    demand = np.zeros(12)
    demand[5] = demand_entry
    with pytest.raises(ParameterError, match="must be finite"):
        solve_ocp(ambient_state, demand, b_past, cfg, model, grid, params)


def test_mode_sign_consistency_and_bounds(grid, params, hx, cfg):
    rng = np.random.default_rng(2)
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    table = sequence_table(cfg)
    for trial in range(5):
        demand = rng.uniform(-1.5e6, 2e6, 12)
        sol = solve_ocp(x0, demand, rng.uniform(-1e11, 1e11), cfg, model,
                        grid, params)
        # Each flow lies in its mode's interval: [0, u_max] heating, [u_min,
        # 0] cooling and exactly 0 storing.
        s = table.names.index(sol.mode_sequence)
        assert np.all((table.lo[s] <= sol.u_blocks)
                      & (sol.u_blocks <= table.hi[s]))
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
    block_of_step = np.repeat(np.arange(3), cfg.blocks)
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


def test_build_cost_feasible_start(grid, params, hx, cfg):
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    power = condense(model, cfg, x0, power_linear_rows(grid, params, DT))
    H, g, const = build_cost(power, np.full(12, 1e6), 0.0, cfg)
    assert np.all(np.isfinite(const))
    for s in range(27):
        # Zero flows with the slack covering the worst open-loop violation
        # satisfy every row, so each candidate QP is feasible.
        qp, _ = full_row_qp(s, model, cfg, x0, H[s], g[s])
        z0 = np.zeros(qp.m)
        z0[-1] = max(0.0, float(np.max(-qp.h))) + 1e-9
        assert np.all(qp.G @ z0 <= qp.h + 1e-9)


def per_step_states(model, modes, cfg, x0):
    """Reference: one sequence's offsets and gains, x(k) = offsets[k] +
    gains[k] @ u_blocks, one step at a time.  ``modes`` is a row of
    ``sequence_table(cfg).modes``."""
    nb = len(cfg.blocks)
    offsets = np.empty((cfg.horizon + 1, model.n))
    gains = np.zeros((cfg.horizon + 1, model.n, nb))
    offsets[0] = x0
    for k, j in enumerate(np.repeat(np.arange(nb), cfg.blocks)):
        i = modes[j]
        offsets[k + 1] = model.A[i] @ offsets[k] + model.f[i]
        gains[k + 1] = model.A[i] @ gains[k]
        gains[k + 1, :, j] += model.b[i]
    return offsets, gains


def per_sequence_condense(model, modes, cfg, x0, power_rows):
    """Reference: one sequence's states and power maps, one step at a time."""
    r_now, r_next, p_const = power_rows
    offsets, gains = per_step_states(model, modes, cfg, x0)
    p_off = np.zeros(cfg.horizon)
    p_gain = np.zeros((cfg.horizon, len(cfg.blocks)))
    for k in range(cfg.horizon):
        p_off[k] = r_now @ offsets[k] + r_next @ offsets[k + 1] + p_const
        p_gain[k] = r_now @ gains[k] + r_next @ gains[k + 1]
    return offsets, gains, p_off, p_gain


def assert_within_dot_rounding(value, ref, power_rows, states):
    """``value`` and the reference power map ``ref`` agree to dot-product
    rounding: |value - ref| <= 2 n eps (|r_now| |x(k)| + |r_next| |x(k+1)|).

    ``condense`` forms a step's power as (c_m A_m^i) . x_start instead of
    r_now . x(k) + r_next . x(k+1): the same sums in another order.  Each
    form of an n-term dot product lies within n eps sum |r| |x| of the exact
    value (Higham, Accuracy and Stability of Numerical Algorithms, 3.1);
    with A_m >= 0 entrywise and positive temperatures the reordered terms
    are of the same size, so the two forms agree within twice that.  ``==``
    would only test the order of the sums.  Whether such a rounding change moves the controller
    is judged by ``tests/test_regression.py`` and the scoreboard.  ``states``
    is the reference offsets ((N+1) x n) or gains ((N+1) x n x n_blocks).
    """
    r_now, r_next, _ = power_rows
    n = r_now.size
    scale = (np.einsum("i,ki...->k...", np.abs(r_now), np.abs(states[:-1]))
             + np.einsum("i,ki...->k...", np.abs(r_next), np.abs(states[1:])))
    assert np.all(np.abs(value - ref) <= 2 * n * np.finfo(float).eps * scale)


def per_sequence_cost(p_off, p_gain, demand, b_past, cfg):
    """Reference: one sequence's Hessian, gradient and constant."""
    nb = len(cfg.blocks)
    p_gain_mw = p_gain / W_PER_MW
    p_err_mw = (p_off - demand) / W_PER_MW
    balance_s = cfg.balance_hours * 3600.0
    e_gain = cfg.dt * p_gain_mw.sum(axis=0) / balance_s
    e_off = (cfg.dt * p_off.sum() + b_past) / (balance_s * W_PER_MW)
    block_len = np.asarray(cfg.blocks, dtype=float)
    H = np.zeros((nb + 1, nb + 1))
    g = np.zeros(nb + 1)
    H[:nb, :nb] = 2.0 * (cfg.q_d * p_gain_mw.T @ p_gain_mw
                         + np.diag(cfg.q_u * block_len)
                         + cfg.q_e * np.outer(e_gain, e_gain))
    g[:nb] = 2.0 * (cfg.q_d * p_gain_mw.T @ p_err_mw + cfg.q_e * e_off * e_gain)
    H[nb, nb] = 2.0 * cfg.slack_weight
    const = cfg.q_d * float(p_err_mw @ p_err_mw) + cfg.q_e * e_off**2
    return H, g, const


def exhaustive_solve(power, model, x0, demand, b_past, cfg):
    """Reference: solve all 27 QPs on all their rows and pick with the
    near-tie rule.

    Returns the winner's modes, clipped flows (rounding-level flows set to
    exactly zero) and cost, and every candidate's cost (inf where its QP
    failed).
    """
    H, g, const = build_cost(power, demand, b_past, cfg)
    table = sequence_table(cfg)
    costs = np.full(len(table.names), np.inf)
    solved = []
    for s, modes in enumerate(table.names):
        qp, free = full_row_qp(s, model, cfg, x0, H[s], g[s])
        res = solve_qp(qp)
        if res.status == "optimal":
            z = np.zeros(4)
            z[free] = res.z_star
            costs[s] = res.value + const[s]
            solved.append((modes, z[:3], costs[s], s))
    best = min(c[2] for c in solved)
    near = [c for c in solved if c[2] <= best + 1e-9 * max(1.0, abs(best))]
    modes, z, cost, s = min(near, key=lambda c: (-c[0].count("storing"),
                                                 float(np.linalg.norm(c[1])),
                                                 c[0]))
    u = np.clip(z, table.lo[s], table.hi[s])
    u[np.abs(u) <= 1e-12 * U_MAX] = 0.0
    return modes, u, cost, costs


# The reference solves each candidate on all its rows at once, while
# solve_ocp solves the box QP alone when its optimum keeps the soft box: the
# two take different active-set paths to the same optimum, so flows and
# costs may differ by rounding.  Over the 216 instants below, where no soft
# row binds, they differed by at most 3.5e-18 m^3/s (one ulp of u_max) and
# 6.9e-18 in relative cost.
U_TOL = 4 * np.spacing(U_MAX)
COST_RTOL = 4 * np.finfo(float).eps


def assert_matches_full_rows(sol, modes, u_blocks, cost):
    assert sol.mode_sequence == modes
    assert np.all(np.abs(sol.u_blocks - u_blocks) <= U_TOL)
    assert abs(sol.cost - cost) <= COST_RTOL * max(1.0, abs(cost))


def random_instants(grid, params, hx):
    """216 OCP instants (x0, model, demand, b_past): ambient, charged and
    smooth random stores, with and without a previous flow and a past
    balance."""
    rng = np.random.default_rng(4)
    ambient = np.full(grid.n_states, params.t_amb)
    for trial in range(216):
        kind = trial % 3
        if kind == 0:
            x0 = ambient
        elif kind == 1:
            x0 = charged_state(grid, params, rng.uniform(0.0, 7.0),
                               rng.uniform(0.0, 9.0))
        else:
            x0 = smooth_random_state(grid, params, rng)
        u_prev = rng.uniform(-U_MAX, U_MAX) * rng.integers(0, 2)
        model = build_pwa(grid, params, hx, DT, x0, float(u_prev))
        demand = rng.uniform(-1.5e6, 2.5e6, 12)
        b_past = rng.uniform(-300.0, 300.0) * 3.6e9 * rng.integers(0, 2)
        yield x0, model, demand, b_past


def test_bound_and_prune_matches_exhaustive_enumeration(grid, params, hx, cfg):
    rows = power_linear_rows(grid, params, DT)
    table = sequence_table(cfg)
    names = table.names
    instants = pruned = 0
    for x0, model, demand, b_past in random_instants(grid, params, hx):
        power = condense(model, cfg, x0, rows)
        H, g, const = build_cost(power, demand, b_past, cfg)
        for s, modes in enumerate(names):
            offsets, gains, p_off, p_gain = per_sequence_condense(
                model, table.modes[s], cfg, x0, rows)
            states = trajectory_states(model, cfg, x0, table.modes[s])
            assert np.array_equal(states[0], offsets)
            assert np.array_equal(states[1], gains)
            assert_within_dot_rounding(power[0][s], p_off, rows, offsets)
            assert_within_dot_rounding(power[1][s], p_gain, rows, gains)
            storing = [j for j, mode in enumerate(modes) if mode == "storing"]
            assert np.all(power[1][s][:, storing] == 0.0)
            # The cost is built from the condensed maps as they are.
            H_s, g_s, const_s = per_sequence_cost(
                power[0][s], power[1][s], demand, b_past, cfg)
            assert np.array_equal(H[s], H_s)
            assert np.array_equal(g[s], g_s)
            assert const[s] == const_s

        sol = solve_ocp(x0, demand, b_past, cfg, model, grid, params)
        modes, u_blocks, cost, costs = exhaustive_solve(
            power, model, x0, demand, b_past, cfg)
        assert_matches_full_rows(sol, modes, u_blocks, cost)
        bounds = controller._lower_bounds(H, g, const, table.lo, table.hi)
        for s, rec in enumerate(sol.per_candidate):
            assert rec.mode_sequence == names[s]
            if rec.status == "pruned":
                pruned += 1
                assert np.all(np.isnan(rec.u_blocks))
                assert not rec.u_blocks.flags.writeable
                # A pruned row reports its raised bound.
                assert rec.cost == bounds[s]
                assert rec.cost <= costs[s] + 1e-12 * max(1.0, abs(costs[s]))
        instants += 1
    assert instants >= 200
    # The bound rules out most candidates.
    assert pruned > 0.5 * 27 * instants


@pytest.mark.parametrize("blocks", [(1, 4, 7), (2, 3, 1), (1, 1, 1), (5,),
                                    (2, 2), (3, 1, 1, 2)],
                         ids=lambda blocks: "-".join(map(str, blocks)))
def test_condense_matches_per_sequence_reference_on_any_layout(
        grid, params, hx, cfg, blocks):
    # The input row of the start states is reset at each block, so which
    # gain column a block's steps fill depends on the layout.
    cfg = dataclasses.replace(cfg, blocks=blocks)
    rows = power_linear_rows(grid, params, DT)
    table = sequence_table(cfg)
    for x0, u_prev in ((charged_state(grid, params), 0.01),
                       (np.full(grid.n_states, params.t_amb), -0.02)):
        model = build_pwa(grid, params, hx, DT, x0, u_prev)
        p_off, p_gain = condense(model, cfg, x0, rows)
        assert p_off.shape == (3 ** len(blocks), cfg.horizon)
        assert p_gain.shape == p_off.shape + (len(blocks),)
        for s, modes in enumerate(table.modes):
            offsets, gains, ref_off, ref_gain = per_sequence_condense(
                model, modes, cfg, x0, rows)
            assert_within_dot_rounding(p_off[s], ref_off, rows, offsets)
            assert_within_dot_rounding(p_gain[s], ref_gain, rows, gains)
            # Exact zeros where the reference has them: a storing block's
            # column, and any block's column before its first step.
            assert np.all(p_gain[s][:, ~table.pumping[s]] == 0.0)
            assert np.array_equal(p_gain[s] == 0.0, ref_gain == 0.0)


def test_raised_bound_is_exact_below_the_box_optimum(grid, params, hx, cfg):
    # A sequence whose unconstrained minimiser breaks a flow interval has its
    # bound raised by the one flow bound it breaks most.  The raised bound
    # stays below the box QP's optimum, and equals it when that flow bound
    # is the optimum's only active one.
    nb = len(cfg.blocks)
    table = sequence_table(cfg)
    rows = power_linear_rows(grid, params, DT)
    singular = dataclasses.replace(cfg, q_u=0.0)
    raised = tight = 0
    for i, (x0, model, demand, b_past) in enumerate(
            random_instants(grid, params, hx)):
        power = condense(model, cfg, x0, rows)
        H, g, const = build_cost(power, demand, b_past, cfg)
        bounds = controller._lower_bounds(H, g, const, table.lo, table.hi)
        # The unconstrained minimiser and minimum over the block inputs.
        g_u = g[:, :nb]
        u = -(np.linalg.inv(H[:, :nb, :nb]) @ g_u[:, :, None])[..., 0]
        rise = bounds - (const + 0.5 * np.sum(g_u * u, axis=1))
        broken = (u < table.lo) | (u > table.hi)
        assert np.all(rise >= 0.0)
        assert np.array_equal(rise > 0.0, broken.any(axis=1))
        raised += np.count_nonzero(rise)
        for s in range(len(table.names)):
            G, h, free, ix = table.boxes[s]
            qp = Qp(H[s][ix], g[s][free], G, h)
            result = solve_qp(qp)
            box = result.value + const[s]
            assert bounds[s] <= box + 1e-12 * abs(box)
            # Rows 2i and 2i + 1 bound the flow of block free[i]; the last
            # row is the slack's.
            active = [r for r in result.active_set if r < qp.G.shape[0] - 1]
            if len(active) == 1 and broken[s, free[active[0] // 2]]:
                tight += 1
                assert abs(bounds[s] - box) <= 1e-9 * abs(box)
        if i % 12 == 0:
            # Without an input weight a storing block's Hessian is singular:
            # there is no bound, and nothing is pruned.
            power_s = condense(model, singular, x0, rows)
            bounds = controller._lower_bounds(
                *build_cost(power_s, demand, b_past, singular),
                table.lo, table.hi)
            assert np.all(bounds == -np.inf)
            sol = solve_ocp(x0, demand, b_past, singular, model, grid, params)
            assert not np.any(sol.status == "pruned")
    assert raised > 0 and tight > 0


def breaks_soft_row_at_box_optimum(s, H_s, g_s, model, cfg, x0):
    """Reference: whether sequence s's box-only optimum leaves its soft box."""
    box_G, box_h, free, ix = sequence_table(cfg).boxes[s]
    qp = Qp(H_s[ix], g_s[free], box_G, box_h)
    modes = sequence_table(cfg).modes[s]
    G, h = soft_rows_per_step(per_step_states(model, modes, cfg, x0),
                              free[:-1], cfg, model.nu)
    return bool(np.any(G @ solve_qp(qp).z_star - h > 1e-9))


@pytest.fixture()
def soft_row_calls(monkeypatch):
    """The mode sequences whose soft rows solve_ocp forms, in call order."""
    calls = []

    def counting(model, cfg, x0, modes, pumping):
        calls.append(tuple(MODES[i] for i in modes))
        return soft_rows(model, cfg, x0, modes, pumping)

    monkeypatch.setattr(controller, "soft_rows", counting)
    return calls


def test_states_rolled_out_only_for_solved_candidates(grid, params, hx, cfg,
                                                     soft_row_calls):
    # condense forms no state trajectory and a solved candidate's QP starts
    # from its input box: solve_ocp forms a sequence's state gains
    # (soft_rows) only when the box optimum breaks a soft row, once, for the full-row
    # re-solve, and the winner's x_pred is its trajectory at the applied
    # flows.
    rng = np.random.default_rng(11)
    instants = []
    for trial in range(6):
        x0 = (charged_state(grid, params, rng.uniform(0.0, 7.0),
                            rng.uniform(0.0, 9.0))
              if trial % 2 else smooth_random_state(grid, params, rng))
        instants.append((cfg, x0, build_pwa(grid, params, hx, DT, x0, 0.0),
                         rng.uniform(-1.5e6, 2.5e6, 12),
                         rng.uniform(-300.0, 300.0) * 3.6e9))
    instants.append(binding_instant(grid, params, hx, cfg, "cold_floor_277")
                    + (0.0,))
    rolled = []
    for cfg_i, x0, model, demand, b_past in instants:
        soft_row_calls.clear()
        sol = solve_ocp(x0, demand, b_past, cfg_i, model, grid, params)
        power = condense(model, cfg_i, x0, power_linear_rows(grid, params, DT))
        H, g, _ = build_cost(power, demand, b_past, cfg_i)
        needed = [rec.mode_sequence for s, rec in enumerate(sol.per_candidate)
                  if rec.status != "pruned"
                  and breaks_soft_row_at_box_optimum(s, H[s], g[s], model,
                                                     cfg_i, x0)]
        assert sorted(soft_row_calls) == sorted(needed)
        assert sol.counts["soft_rows_added"] == 2 * 12 * 42 * len(soft_row_calls)
        assert np.array_equal(sol.x_pred, trajectory(
            model, cfg_i, x0, mode_indices(sol.mode_sequence), sol.u_blocks))
        rolled.append(len(soft_row_calls))
    # No soft row binds at the random instants; at the binding one, 1 of
    # the 3 solved candidates needs its soft rows.
    assert rolled == [0] * 6 + [1]


def kkt_residual_on_all_rows(qp, z):
    """Worst KKT violation of ``z`` on every row of ``qp``: row violation in
    the rows' units, stationarity and complementarity relative to the
    largest cost-gradient term, with nonnegative multipliers fitted to the
    rows within 1e-9 of active.

    The slack weight makes the soft rows' multipliers about 1e6 when slack
    is used, so stationarity is relative to terms of that size; the solver's
    own residual scales it by |g| alone.
    """
    slack = qp.G @ z - qp.h
    active = np.flatnonzero(slack >= -1e-9)
    grad = qp.H @ z + qp.g
    lam = nnls(qp.G[active].T, -grad)[0] if active.size else np.zeros(0)
    scale = max(1.0, float(np.abs(qp.g).max()), float(np.abs(qp.H @ z).max()))
    return max(float(slack.max()),
               float(np.abs(grad + lam @ qp.G[active]).max()) / scale,
               float(np.abs(lam * slack[active]).max(initial=0.0)) / scale)


@pytest.mark.parametrize("name", sorted(BINDING))
def test_binding_soft_rows_match_full_row_reference(grid, params, hx, cfg, name,
                                                    soft_row_calls):
    cfg, x0, model, demand = binding_instant(grid, params, hx, cfg, name)
    sol = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    power = condense(model, cfg, x0, power_linear_rows(grid, params, DT))
    modes, u_blocks, cost, costs = exhaustive_solve(power, model, x0, demand,
                                                    0.0, cfg)
    # A candidate whose box optimum breaks a soft row is solved again on the
    # reference's own rows, in its order, so the winner and every solved
    # candidate match the reference exactly.
    assert sol.mode_sequence == modes
    assert np.array_equal(sol.u_blocks, u_blocks)
    assert sol.cost == cost
    H, g, _ = build_cost(power, demand, 0.0, cfg)
    solved = []
    for s, rec in enumerate(sol.per_candidate):
        if rec.status == "pruned":
            assert rec.cost <= costs[s] + 1e-12 * max(1.0, abs(costs[s]))
            continue
        solved.append(rec)
        assert rec.status == "optimal"
        qp, free = full_row_qp(s, model, cfg, x0, H[s], g[s])
        result = solve_qp(qp)
        # The solver holds its active rows: no row is broken beyond
        # rounding, and its own KKT residual stays small.
        assert np.max(qp.G @ result.z_star - qp.h) <= 1e-12
        assert result.kkt_residual <= 1e-6
        z = np.zeros(4)
        z[free] = result.z_star
        assert np.array_equal(rec.u_blocks, z[:3]) and rec.slack == z[3]
        assert rec.cost == costs[s]
        if rec.mode_sequence == sol.mode_sequence:
            assert kkt_residual_on_all_rows(qp, z[free]) <= 1e-9
    assert sol.counts["soft_rows_added"] == 2 * 12 * 42 * len(soft_row_calls)
    if name == "cold_floor_277":
        assert (len(solved), len(soft_row_calls)) == (3, 1)
        assert sol.slack_used == 0.0
    else:
        assert len(solved) == len(soft_row_calls) == 27
        assert sol.slack_used == pytest.approx(0.514, abs=1e-3)


def test_singular_block_cost_solves_every_candidate(grid, params, hx, cfg):
    # Without an input weight a storing block's Hessian row is zero, so no
    # unconstrained bound exists and nothing may be pruned.
    cfg = dataclasses.replace(cfg, q_u=0.0)
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    demand = np.full(12, 8e5)
    sol = solve_ocp(x0, demand, 0.0, cfg, model, grid, params)
    assert all(rec.status != "pruned" for rec in sol.per_candidate)
    power = condense(model, cfg, x0, power_linear_rows(grid, params, DT))
    modes, u_blocks, cost, _ = exhaustive_solve(power, model, x0, demand, 0.0,
                                                cfg)
    assert_matches_full_rows(sol, modes, u_blocks, cost)


def test_weightless_inputs_take_the_hessian_shift(grid, params, hx, cfg,
                                                  monkeypatch):
    # With q_u = 0 the storing blocks are eliminated and the pumping blocks'
    # Hessian is still positive definite; with every input weight at zero it
    # is zero, has no Cholesky factor and must be shifted.  The all-storing
    # sequence keeps only the slack, whose weight is positive.
    from ates_mpc import qp as qp_module

    regularize = qp_module._regularize
    shifted = []

    def recording(H):
        out = regularize(H)
        # Shifted when the factor returned is not the one of H itself.
        try:
            shifted.append(not np.array_equal(out, np.linalg.cholesky(H)))
        except np.linalg.LinAlgError:
            shifted.append(True)
        return out

    monkeypatch.setattr(qp_module, "_regularize", recording)
    cfg = dataclasses.replace(cfg, q_u=0.0, q_d=0.0, q_e=0.0)
    x0 = charged_state(grid, params)
    model = build_pwa(grid, params, hx, DT, x0, 0.0)
    sol = solve_ocp(x0, np.full(12, 8e5), 0.0, cfg, model, grid, params)
    assert len(shifted) == 27
    assert sum(shifted) == 26
    assert sol.cost == 0.0
