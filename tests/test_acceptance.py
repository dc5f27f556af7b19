"""End-to-end acceptance checks for the storage simulation and control toolkit.

Each test prints a single summary line with the measured figures so a full run
reads as a scoreboard.  The two year-long closed-loop simulations are shared
across the tests that need them via module-scoped fixtures.
"""

import itertools

import numpy as np
import pytest

from ates_mpc import (GaussianEstimate, HxParams, OcpConfig, TruthConfig,
                      UkfConfig, build_grid, init_truth, load_scenario,
                      restrict_to_coarse, solve_qp, truth_step)
from ates_mpc.controller import W_PER_MW, power_linear_rows, solve_ocp
from ates_mpc.grid import AquiferParams
from ates_mpc.harness import demand_window, power_form_study, run_closed_loop
from ates_mpc.heat_exchanger import hx_outlet_temp
from ates_mpc.observer import predict, update
from ates_mpc.power import power_linear
from ates_mpc.pwa import MODES, build_pwa, pwa_step
from ates_mpc.scenario import _parse_config_text, scenario_from_values

from test_qp import grid_oracle, random_box_qp

U_MAX = 0.0277
CELLS = np.r_[1:21, 22:42]  # stacked-state cell entries (borehole entries out)


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(None)


@pytest.fixture(scope="module")
def year_run(scenario):
    """Standard full-year closed loop (shared by several tests)."""
    return run_closed_loop(scenario)


@pytest.fixture(scope="module")
def greedy_run():
    """Same scenario with the energy-balance cost disabled."""
    return run_closed_loop(scenario_from_values(_parse_config_text("q_e = 0")))


def smooth_random_profiles(params, rng):
    """Random analytic in-bounds radial profiles, evaluable on any grid.

    Length scales are kept a few cell widths of the prediction grid so the
    profiles are smooth at both resolutions.
    """
    lift = rng.uniform(0.0, 6.0)
    drop = rng.uniform(0.0, 7.0)
    lw, lc = rng.uniform(25.0, 27.0, 2)
    # Secondary, gentler bumps a little way into the domain.
    aw, ac = rng.uniform(0.0, 1.5, 2)
    cw_, cc_ = rng.uniform(0.0, 12.0, 2)
    sw, sc = rng.uniform(14.0, 20.0, 2)

    def warm(r):
        return params.t_amb + lift * np.exp(-((r - 0.4) / lw) ** 2) \
            + aw * np.exp(-((r - 0.4 - cw_) / sw) ** 2)

    def cold(r):
        return params.t_amb - drop * np.exp(-((r - 0.4) / lc) ** 2) \
            - ac * np.exp(-((r - 0.4 - cc_) / sc) ** 2)

    return warm, cold


def evaluate_state(grid, warm, cold):
    radii = np.concatenate([[grid.r0], grid.midpoints])
    w = warm(radii)
    c = cold(radii)
    w[0] = w[1]
    c[0] = c[1]
    return np.concatenate([w, c])


def smooth_random_state(grid, params, rng):
    warm, cold = smooth_random_profiles(params, rng)
    return evaluate_state(grid, warm, cold)


def test_01_storing_branch_fixes_ambient(scenario):
    grid, params = scenario.grid, scenario.params
    x = np.full(grid.n_states, params.t_amb)
    model = build_pwa(grid, params, scenario.hx, scenario.ocp.dt, x, 0.0)
    delta = float(np.max(np.abs(pwa_step(model, x, 0.0) - x)))
    print(f"\n[1] storing branch ambient fixed point: |delta|_inf = {delta:.2e} K"
          f" (<= 1e-9) PASS" if delta <= 1e-9 else f"\n[1] FAIL delta={delta}")
    assert delta <= 1e-9


def test_02_one_step_matches_fine_pde(scenario):
    grid, params, hx = scenario.grid, scenario.params, scenario.hx
    dt = scenario.ocp.dt
    cfg = TruthConfig(nu_fine=200, lambda_bounds=(params.lam, params.lam),
                      t_amb_noise_amp=0.0, sensor_sigma=0.0, seed=0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        warm, cold = smooth_random_profiles(params, rng)
        u = rng.uniform(-U_MAX, U_MAX)
        truth = init_truth(cfg, grid, params)
        fine_state = evaluate_state(truth.grid, warm, cold)
        truth.warm[:] = fine_state[:201]
        truth.cold[:] = fine_state[201:]
        # The injected aquifer's borehole entry carries the heat-exchanger
        # outlet, consistently in both representations.
        if u > 0.0:
            truth.cold[0] = hx_outlet_temp(truth.warm[0], u, hx.q_b,
                                           hx.t_b("heating"))
        elif u < 0.0:
            truth.warm[0] = hx_outlet_temp(truth.cold[0], u, hx.q_b,
                                           hx.t_b("cooling"))
        # Same physical state in both representations: the coarse state is
        # the shell-average restriction of the fine one.
        x0 = restrict_to_coarse(truth, grid)
        model = build_pwa(grid, params, hx, dt, x0, u)
        pred = pwa_step(model, x0, u)
        truth_step(truth, u, hx, dt)
        ref = restrict_to_coarse(truth, grid)
        worst = max(worst, float(np.max(np.abs(pred[CELLS] - ref[CELLS]))))
    print(f"\n[2] 50 smooth profiles, 1 step vs fine-grid solver: "
          f"worst cell error {worst:.2e} K (<= 1e-2) "
          + ("PASS" if worst <= 1e-2 else "FAIL"))
    assert worst <= 1e-2


def test_03_power_reformulation_error(scenario):
    _, p_bil, p_lin = power_form_study(scenario, steps=720)
    peak = float(np.abs(p_bil).max())
    err20 = float(np.abs(p_lin - p_bil).mean())
    fine = scenario_from_values(_parse_config_text("nu = 40"))
    _, p_bil40, p_lin40 = power_form_study(fine, steps=720)
    err40 = float(np.abs(p_lin40 - p_bil40).mean())
    ratio = err20 / peak
    ok = ratio <= 0.05 and err40 < err20
    print(f"\n[3] power forms on 720-step rollout: mean |diff| {err20/1e3:.1f} kW"
          f" = {ratio:.2%} of peak {peak/1e6:.2f} MW (<= 5%); "
          f"doubled resolution error {err40/1e3:.1f} kW (< coarse) "
          + ("PASS" if ok else "FAIL"))
    assert ratio <= 0.05
    assert err40 < err20


def _oracle_cost(model, modes, cfg, x0, demand, b_past, u_blocks, grid, params):
    """Objective of a blocked plan, evaluated by direct rollout (batched)."""
    block_of_step = np.repeat(np.arange(len(cfg.blocks)), cfg.blocks)
    x = np.broadcast_to(x0, (u_blocks.shape[0], x0.size)).copy()
    track = np.zeros(u_blocks.shape[0])
    p_sum = np.zeros(u_blocks.shape[0])
    viol = np.zeros(u_blocks.shape[0])
    x_min, x_max = cfg.state_bounds(model.nu)
    r_now, r_next, p_const = power_linear_rows(grid, params, cfg.dt)
    for k in range(cfg.horizon):
        j = block_of_step[k]
        i = MODES.index(modes[j])
        x_next = (x @ model.A[i].T + np.outer(u_blocks[:, j], model.b[i])
                  + model.f[i])
        p = x @ r_now + x_next @ r_next + p_const  # state-linear power
        track += ((p - demand[k]) / W_PER_MW) ** 2
        p_sum += p
        viol = np.maximum(viol, np.max(x_next - x_max, axis=1))
        viol = np.maximum(viol, np.max(x_min - x_next, axis=1))
        x = x_next
    viol = np.maximum(viol, 0.0)
    block_len = np.asarray(cfg.blocks, dtype=float)
    e_avg_mw = (cfg.dt * p_sum + b_past) / (cfg.balance_hours * 3600.0
                                            * W_PER_MW)
    return (cfg.q_d * track
            + cfg.q_u * (u_blocks ** 2) @ block_len
            + cfg.q_e * e_avg_mw ** 2
            + cfg.slack_weight * viol ** 2)


def _brute_force_best(model, cfg, x0, demand, b_past, grid, params):
    """Refined grid search over all mode sequences and blocked flows."""
    best = np.inf
    interval = {"heating": (0.0, cfg.u_max), "storing": (0.0, 0.0),
                "cooling": (cfg.u_min, 0.0)}
    for modes in itertools.product(MODES, repeat=3):
        active = [j for j in range(3) if modes[j] != "storing"]
        lo, hi = np.array([interval[mode] for mode in modes]).T
        centers = (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        for _ in range(8):
            axes = [np.linspace(max(lo[j], centers[j] - half[j]),
                                min(hi[j], centers[j] + half[j]), 9)
                    if j in active else np.array([0.0]) for j in range(3)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
            vals = _oracle_cost(model, modes, cfg, x0, demand, b_past, mesh,
                                grid, params)
            i = int(np.argmin(vals))
            centers = mesh[i]
            half = half / 3.0
            best = min(best, float(vals[i]))
    return best


def test_04_enumeration_matches_brute_force(scenario):
    grid, params, hx, ocp = (scenario.grid, scenario.params, scenario.hx,
                             scenario.ocp)
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        x0 = smooth_random_state(grid, params, rng)
        u_prev = rng.uniform(-U_MAX, U_MAX) * rng.integers(0, 2)
        model = build_pwa(grid, params, hx, ocp.dt, x0, float(u_prev))
        demand = rng.uniform(-1.5e6, 2.5e6, ocp.horizon)
        b_past = rng.uniform(-300.0, 300.0) * 3.6e9
        solution = solve_ocp(x0, demand, b_past, ocp, model, grid, params)
        oracle = _brute_force_best(model, ocp, x0, demand, b_past, grid, params)
        rel = abs(solution.cost - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
        assert solution.cost <= oracle + 1e-6 * max(1.0, abs(oracle))
    print(f"\n[4] 20 random instants, enumerated optimum vs brute-force grid: "
          f"worst relative gap {worst:.2e} (<= 1e-6) "
          + ("PASS" if worst <= 1e-6 else "FAIL"))
    assert worst <= 1e-6


def test_05_qp_solver_against_grid_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    worst_kkt = 0.0
    worst_gap = 0.0
    while checked < 200:
        m = int(rng.integers(1, 4))
        qp, box = random_box_qp(rng, m, int(rng.integers(0, 31)))
        res = solve_qp(qp)
        oracle = grid_oracle(qp, box, m)
        if res.status != "optimal" or oracle is None:
            continue
        worst_kkt = max(worst_kkt, res.kkt_residual)
        worst_gap = max(worst_gap,
                        abs(res.value - oracle[0]) / max(1.0, abs(oracle[0])))
        assert res.kkt_residual <= 1e-8
        assert res.value <= oracle[0] + 1e-6
        checked += 1
    print(f"\n[5] 200 random dense QPs: worst KKT {worst_kkt:.1e} (<= 1e-8), "
          f"worst oracle gap {worst_gap:.1e} (<= 1e-4) "
          + ("PASS" if worst_gap <= 1e-4 else "FAIL"))
    assert worst_gap <= 1e-4


def test_06_unscented_filter_equals_kalman():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, min(n, 4) + 1))
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
        c = rng.standard_normal(n)
        C = rng.standard_normal((p, n))
        cfg = UkfConfig(kappa=5.0, process_var=0.04, measurement_var=0.01, C=C)
        mean = rng.standard_normal(n)
        M = rng.standard_normal((n, n))
        cov = M @ M.T + np.eye(n)
        est = GaussianEstimate(mean.copy(), cov.copy())
        for _ in range(50):
            y = rng.standard_normal(p)
            # Closed-form Kalman step from the same posterior as the filter.
            kf_mean = A @ est.mean + c
            kf_cov = A @ est.cov @ A.T + cfg.process_var * np.eye(n)
            S = C @ kf_cov @ C.T + cfg.measurement_var * np.eye(p)
            K = kf_cov @ C.T @ np.linalg.inv(S)
            kf_mean = kf_mean + K @ (y - C @ kf_mean)
            kf_cov = kf_cov - K @ S @ K.T
            predicted = predict(est, lambda x: np.matvec(A, x) + c, cfg)
            est = update(predicted, y)
            worst = max(worst, float(np.max(np.abs(est.mean - kf_mean))),
                        float(np.max(np.abs(est.cov - kf_cov))))
        assert worst <= 1e-10
    print(f"\n[6] 100 random affine systems x 50 steps: worst UKF-vs-KF moment "
          f"deviation {worst:.1e} (<= 1e-10) PASS")


def _drift_slope_t(series):
    """OLS slope t-statistic with lag-1 autocorrelation-adjusted variance."""
    n = series.size
    t = np.arange(n, dtype=float)
    t -= t.mean()
    y = series - series.mean()
    slope = float(t @ y / (t @ t))
    resid = y - slope * t
    rho = float(np.corrcoef(resid[:-1], resid[1:])[0, 1])
    rho = min(max(rho, -0.999), 0.999)
    se = np.sqrt(float(resid @ resid) / (n - 2) / float(t @ t))
    se_adj = se * np.sqrt((1.0 + rho) / (1.0 - rho))
    return slope, slope / se_adj


def _settled_daily_errors(series):
    """Daily-mean error over the final quarter of the run.

    The run starts from a uniform-ambient plant, so the first months carry
    the physical store-charging transient; drift (filter divergence) is
    judged on the settled tail, aggregated to daily means to tame the strong
    hourly autocorrelation.
    """
    tail = series[int(0.75 * series.size):]
    days = tail.size // 24
    return tail[tail.size - days * 24:].reshape(days, 24).mean(axis=1)


def test_07_year_long_estimation_quality(year_run):
    mean_err = year_run.ukf_mean_abs_error
    max_err = year_run.ukf_max_abs_error
    slope, t_stat = _drift_slope_t(_settled_daily_errors(year_run.error_series))
    ok = (mean_err.max() <= 1.0 and max_err.max() <= 3.0
          and abs(t_stat) <= 1.96)
    print(f"\n[7] 8760 h closed loop: worst per-cell mean error "
          f"{mean_err.max():.2f} K (<= 1), worst max {max_err.max():.2f} K "
          f"(<= 3), settled drift slope {slope:.2e} K/day (t = {t_stat:.2f}, "
          f"|t| <= 1.96) " + ("PASS" if ok else "FAIL"))
    assert mean_err.max() <= 1.0
    assert max_err.max() <= 3.0
    assert abs(t_stat) <= 1.96


def test_08_energy_balance_versus_greedy(scenario, year_run, greedy_run):
    demand = scenario.demand
    heat = float(demand.clip(0.0, None).sum() * 3600.0)
    cold = float(-demand.clip(None, 0.0).sum() * 3600.0)
    imbalance_frac = abs(heat - cold) / (heat + cold)
    mpc, greedy = year_run.summary, greedy_run.summary
    mpc_frac = abs(mpc["final_balance_mwh"]) / mpc["delivered_gross_mwh"]
    greedy_frac = (abs(greedy["final_balance_mwh"])
                   / greedy["delivered_gross_mwh"])
    ok = imbalance_frac >= 0.10 and mpc_frac <= 0.05 and greedy_frac >= 0.10
    print(f"\n[8] demand imbalance {imbalance_frac:.1%} (>= 10%); final "
          f"balance: controller {mpc['final_balance_mwh']:+.1f} MWh = "
          f"{mpc_frac:.1%} of delivered (<= 5%), greedy "
          f"{greedy['final_balance_mwh']:+.1f} MWh = {greedy_frac:.1%} "
          f"(>= 10%) " + ("PASS" if ok else "FAIL"))
    assert imbalance_frac >= 0.10
    assert mpc_frac <= 0.05
    assert greedy_frac >= 0.10


def test_09_constraints_held_all_year(year_run):
    slack = max(r["slack"] for r in year_run.records)
    u_abs_max = year_run.summary["u_abs_max"]
    ok = (year_run.est_bound_violation_k <= 0.5 and slack <= 0.5
          and u_abs_max <= U_MAX + 1e-12)
    print(f"\n[9] estimated temperatures within aquifer boxes up to "
          f"{year_run.est_bound_violation_k:.2e} K (slack budget 0.5 K, max "
          f"predicted slack {slack:.2e} K); applied |u| max "
          f"{u_abs_max:.4f} (<= {U_MAX}) " + ("PASS" if ok else "FAIL"))
    assert year_run.est_bound_violation_k <= 0.5
    assert slack <= 0.5
    assert u_abs_max <= U_MAX + 1e-12


def test_10_solver_speed(year_run):
    median, worst = (year_run.summary["solve_ms_median"],
                     year_run.summary["solve_ms_max"])
    ok = median <= 100.0 and worst <= 1000.0
    print(f"\n[10] per-instant solve time over 8760 instants: median "
          f"{median:.1f} ms (<= 100), max {worst:.1f} ms (<= 1000) "
          + ("PASS" if ok else "FAIL"))
    assert median <= 100.0
    assert worst <= 1000.0


def test_11_maximum_principle_mixed_week(scenario):
    grid, params, hx = scenario.grid, scenario.params, scenario.hx
    truth = init_truth(scenario.truth, grid, params)
    pattern = ([0.02] * 30 + [0.0] * 12 + [-0.025] * 30 + [0.0] * 12
               + [U_MAX] * 30 + [-U_MAX] * 30 + [0.0] * 24)
    assert len(pattern) == 168
    for u in pattern:
        truth_step(truth, u, hx, scenario.ocp.dt, audit=True)
    ok = truth.dmp_violation <= 1e-9
    print(f"\n[11] 168 h mixed schedule: worst per-substep maximum-principle "
          f"excess {truth.dmp_violation:.2e} K (<= 1e-9) "
          + ("PASS" if ok else "FAIL"))
    assert truth.dmp_violation <= 1e-9
