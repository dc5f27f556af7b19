"""Correctness checks computed apart from the program, outside the timed phase.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import itertools

import numpy as np

W_PER_MW = 1e6
SIGNS = {"heating": 1.0, "storing": 0.0, "cooling": -1.0}
ORACLE_REL_GAP = 1e-6        # criterion [4]
KALMAN_TOL = 1e-10           # criterion [6]
EST_ERR_LIMIT_K = 1.0        # criterion [7]
DMP_LIMIT_K = 1e-9           # criterion [11]
BOX_TOL_K = 1e-9
# An hour closes its energy books when the stored-energy change and the
# booked boundary energy agree to this share of one kelvin of full-flow
# throughput (c_w * u_max * dt).  Storing hours close to about 1e-9 of it;
# the far-boundary fault leaves pumping hours at 1e-4 and above.
ENERGY_CLOSURE_TOL = 1e-7


def _linear_power_rows(grid, params, dt):
    """P(k) = r_now . x(k) + r_next . x(k+1) + const, from the stored-energy budget."""
    m = grid.nu + 1
    well = np.pi * grid.r0 ** 2 * grid.l
    w = params.c_a * np.concatenate([[well], grid.volumes]) / dt
    loss = (params.lam * 2.0 * np.pi * grid.r_inf * grid.l
            / (grid.r_inf - grid.midpoints[-1]))
    r_now = np.concatenate([w, w])
    r_now[[m - 1, 2 * m - 1]] -= loss
    return r_now, -np.concatenate([w, w]), 2.0 * loss * params.t_amb


def plan_cost(model, modes, cfg, x0, demand, b_past, u_blocks, grid, params):
    """OCP objective of blocked plans (rows of ``u_blocks``) by direct rollout."""
    r_now, r_next, p_const = _linear_power_rows(grid, params, cfg.dt)
    x_min, x_max = cfg.state_bounds(model.nu)
    blocks = [j for j, length in enumerate(cfg.blocks) for _ in range(length)]
    x = np.broadcast_to(x0, (u_blocks.shape[0], x0.size)).copy()
    track = np.zeros(u_blocks.shape[0])
    p_sum = np.zeros(u_blocks.shape[0])
    viol = np.zeros(u_blocks.shape[0])
    for k, j in enumerate(blocks):
        br = model.branch(SIGNS[modes[j]])
        x_next = x @ br.A.T + np.outer(u_blocks[:, j], br.b) + br.f
        p = x @ r_now + x_next @ r_next + p_const
        track += ((p - demand[k]) / W_PER_MW) ** 2
        p_sum += p
        viol = np.maximum(viol, np.max(x_next - x_max, axis=1))
        viol = np.maximum(viol, np.max(x_min - x_next, axis=1))
        x = x_next
    e_avg = (cfg.dt * p_sum + b_past) / (cfg.balance_hours * 3600.0 * W_PER_MW)
    return (cfg.q_d * track
            + cfg.q_u * (u_blocks ** 2) @ np.asarray(cfg.blocks, dtype=float)
            + cfg.q_e * e_avg ** 2
            + cfg.slack_weight * np.maximum(viol, 0.0) ** 2)


def brute_force_cost(model, cfg, x0, demand, b_past, grid, params) -> float:
    """Refined grid search over every mode sequence and its blocked flows."""
    nb = len(cfg.blocks)
    bounds = {"heating": (0.0, cfg.u_max), "storing": (0.0, 0.0),
              "cooling": (cfg.u_min, 0.0)}
    best = np.inf
    for modes in itertools.product(SIGNS, repeat=nb):
        lo, hi = np.array([bounds[m] for m in modes]).T
        centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        for _ in range(8):
            axes = [np.linspace(max(lo[j], centre[j] - half[j]),
                                min(hi[j], centre[j] + half[j]), 9)
                    if hi[j] > lo[j] else np.zeros(1) for j in range(nb)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, nb)
            vals = plan_cost(model, modes, cfg, x0, demand, b_past, mesh, grid,
                             params)
            i = int(np.argmin(vals))
            centre, half = mesh[i], half / 3.0
            best = min(best, float(vals[i]))
    return best


def check_ocp_solution(sol, args) -> list[str]:
    """One ``solve_ocp`` result; with its call's arguments, also against the oracle."""
    errors = []
    terms = sum(sol.cost_terms.values())
    if abs(terms - sol.cost) > 1e-6 * max(1.0, abs(sol.cost)):
        errors.append(f"cost terms sum {terms:.12g} != cost {sol.cost:.12g}")
    for mode, u in zip(sol.mode_sequence, sol.u_blocks):
        sign = SIGNS[mode]
        if sign * u < 0.0 or (sign == 0.0 and u != 0.0):
            errors.append(f"block flow {u!r} has the wrong sign for {mode}")
    if args is not None:
        x0, demand, b_past, cfg, model, grid, params = args
        best = brute_force_cost(model, cfg, x0, demand, b_past, grid, params)
        gap = abs(sol.cost - best) / max(1.0, abs(best))
        if gap > ORACLE_REL_GAP:
            errors.append(f"cost {sol.cost:.12g} vs brute force {best:.12g}: gap {gap:.2e}")
    return errors


def check_closed_loop(report, scenario) -> list[str]:
    cfg, params = scenario.ocp, scenario.params
    errors = []
    u = np.array([r["u_applied"] for r in report.records])
    if np.abs(u).max() > cfg.u_max + 1e-12:
        errors.append(f"|u| {np.abs(u).max()!r} exceeds u_max")
    if report.est_bound_violation_k > BOX_TOL_K:
        errors.append(f"estimate left the box by {report.est_bound_violation_k:.3e} K")
    warm = np.array([r["warm_borehole_est"] for r in report.records])
    cold = np.array([r["cold_borehole_est"] for r in report.records])
    b_past = np.cumsum(params.c_w * u * (warm - cold) * cfg.dt)
    logged = np.array([r["B_past"] for r in report.records])
    gap = float(np.max(np.abs(b_past - logged)))
    if gap > 1e-9 * max(1.0, float(np.abs(logged).max())):
        errors.append(f"B_past differs from the recomputed balance by {gap:.3e} J")
    err = float(report.ukf_mean_abs_error.mean())
    if err > EST_ERR_LIMIT_K:
        errors.append(f"mean estimation error {err:.3f} K above {EST_ERR_LIMIT_K} K")
    return errors


def check_predict_moments(est, predicted, model, u, process_var) -> list[str]:
    """The filter's predicted moments against the closed-form Kalman ones."""
    br = model.branch(u)
    mean = br.A @ est.mean + br.b * u + br.f
    cov = br.A @ est.cov @ br.A.T + process_var * np.eye(est.n)
    dev = max(float(np.max(np.abs(predicted.mean - mean))),
              float(np.max(np.abs(predicted.cov - cov))))
    return [] if dev <= KALMAN_TOL else [f"predict deviates from Kalman by {dev:.2e}"]


def check_estimation(truth, means, errs, x_min, x_max) -> list[str]:
    errors = []
    if truth.dmp_violation > DMP_LIMIT_K:
        errors.append(f"maximum-principle excess {truth.dmp_violation:.3e} K")
    out = max(float(np.max(means - x_max)), float(np.max(x_min - means)))
    if out > BOX_TOL_K:
        errors.append(f"projected mean outside the box by {out:.3e} K")
    err = float(np.mean(errs))
    if err > EST_ERR_LIMIT_K:
        errors.append(f"mean estimation error {err:.3f} K above {EST_ERR_LIMIT_K} K")
    return errors
