"""Closed-loop driver wiring plant, observer and controller together.

One iteration per sampling period: measure the truth plant, update and
project the UKF estimate, rebuild the PWA model at the new prediction
instant, solve the OCP, apply the first blocked input to the plant and update
the energy ledger.  Controller faults fall back to storing, a non-finite
sensor reading makes that step's estimate predict-only, and the run
continues.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .controller import PLAN_COUNTS, solve_ocp
from .errors import ControllerFault, ScenarioError
from .observer import GaussianEstimate, predict, project, update
from .plant import init_truth, measure, restrict_to_coarse, truth_step
from .power import (J_PER_MWH, EnergyLedger, power_bilinear, power_linear,
                    update_balance)
from .pwa import build_pwa, mode_of, pwa_step
from .scenario import Scenario

logger = logging.getLogger(__name__)


@dataclass
class RunReport:
    """Figures of ``run_closed_loop`` and its per-hour records.

    ``summary`` is the run's sidecar, in the order it is written: the run
    figures (energies in MWh, solve times in ms), then the counters: steps
    whose OCP faulted and fell back to storing (``controller_faults``), the
    ``PLAN_COUNTS`` of the returned plans summed over the run, and non-finite
    readings run as predict-only steps (``sensor_faults``).
    """

    summary: dict[str, int | float]
    ukf_mean_abs_error: np.ndarray   # per stacked state entry [K]
    est_bound_violation_k: float  # worst estimate excursion past the box [K]
    error_series: np.ndarray = field(repr=False)  # spatial-mean |err| per step
    records: list[dict] = field(repr=False)


# Results columns of the four sensor readings, in ``measure`` order.
SENSOR_KEYS = ("y_warm_r0", "y_warm_far", "y_cold_r0", "y_cold_far")


def sensor_record(y: np.ndarray) -> dict[str, float]:
    """The readings ``y`` as results-record entries."""
    return dict(zip(SENSOR_KEYS, map(float, y)))


def demand_window(demand: np.ndarray, k: int, horizon: int) -> np.ndarray:
    """Future demand over the horizon, held at the last sample past the end."""
    window = demand[k:k + horizon]
    if window.size < horizon:
        pad = demand[-1] if demand.size else 0.0
        window = np.concatenate([window, np.full(horizon - window.size, pad)])
    return np.asarray(window, dtype=float)


class _Estimator:
    """UKF estimate from the ambient prior and the PWA model rebuilt at it."""

    def __init__(self, scenario: Scenario):
        n = scenario.grid.n_states
        self.scenario = scenario
        self.bounds = scenario.ocp.state_bounds(scenario.grid.nu)
        self.est = GaussianEstimate(np.full(n, scenario.params.t_amb), np.eye(n))
        self.model = self._build(0.0)

    def _build(self, u_prev: float):
        sc = self.scenario
        return build_pwa(sc.grid, sc.params, sc.hx, sc.ocp.dt, self.est.mean, u_prev)

    def step(self, y: np.ndarray, u_prev: float) -> bool:
        """Predict under the applied flow, update on y, project, rebuild.

        A reading with a non-finite entry is skipped: the predicted moments
        are projected as they are.  Returns whether y was used.
        """
        predicted = predict(self.est, lambda x: pwa_step(self.model, x, u_prev),
                            self.scenario.ukf)
        used = bool(np.isfinite(y).all())
        est = (update(predicted, y) if used
               else GaussianEstimate(predicted.mean, predicted.cov))
        self.est = project(est, *self.bounds)
        self.model = self._build(u_prev)
        return used


def run_closed_loop(scenario: Scenario, steps: int | None = None) -> RunReport:
    grid, params, ocp = scenario.grid, scenario.params, scenario.ocp
    nu = grid.nu
    n = grid.n_states
    steps = scenario.check_steps(steps)

    truth = init_truth(scenario.truth, grid, params)
    estimator = _Estimator(scenario)
    x_min, x_max = estimator.bounds
    ledger = EnergyLedger(dt=ocp.dt)
    u_prev = 0.0

    abs_err_sum = np.zeros(n)
    abs_err_max = 0.0
    err_series = np.zeros(steps)
    est_violation = 0.0
    counts = dict.fromkeys(("controller_faults", *PLAN_COUNTS, "sensor_faults"),
                           0)
    records: list[dict] = []

    for k in range(steps):
        y = measure(truth)
        if not estimator.step(y, u_prev):
            logger.warning("non-finite sensor reading at step %d, predict-only step", k)
            counts["sensor_faults"] += 1
        est, model = estimator.est, estimator.model
        window = demand_window(scenario.demand, k, ocp.horizon)
        t0 = time.perf_counter()
        try:
            solution = solve_ocp(est.mean, window, ledger.b_past, ocp, model,
                                 grid, params)
            u = float(solution.u_blocks[0])
            for key, count in solution.counts.items():
                counts[key] += count
        except ControllerFault:
            logger.warning("controller fault at step %d, storing fallback", k)
            solution = None
            u = 0.0
            counts["controller_faults"] += 1
        solve_ms = (time.perf_counter() - t0) * 1e3

        # Error statistics compare the filtered estimate against the truth at
        # the same instant, i.e. before the plant advances to k+1.
        truth_coarse = restrict_to_coarse(truth, grid)
        err = np.abs(truth_coarse - est.mean)
        est_violation = max(est_violation,
                            float(np.max(est.mean - x_max)),
                            float(np.max(x_min - est.mean)))

        truth_step(truth, u, scenario.hx, ocp.dt)
        x_next_est = pwa_step(model, est.mean, u)

        p_bil = power_bilinear(est.mean, u, params.c_w)
        p_lin = power_linear(est.mean, x_next_est, grid, params, ocp.dt)
        update_balance(ledger, p_bil, (k + 1) * ocp.dt)

        abs_err_sum += err
        abs_err_max = max(abs_err_max, float(err.max()))
        err_series[k] = float(err.mean())

        records.append({
            "t": k * ocp.dt,
            "u_applied": u,
            "mode": mode_of(u),
            "P_bilinear": p_bil,
            "P_linear": p_lin,
            "D": float(scenario.demand[k]),
            "B_past": ledger.b_past,
            "warm_borehole_truth": float(truth_coarse[0]),
            "warm_borehole_est": float(est.mean[0]),
            "cold_borehole_truth": float(truth_coarse[nu + 1]),
            "cold_borehole_est": float(est.mean[nu + 1]),
            "slack": solution.slack_used if solution else 0.0,
            "ocp_cost": solution.cost if solution else float("nan"),
            "solve_ms": solve_ms,
            **sensor_record(y),
        })
        u_prev = u

    def column(key: str) -> np.ndarray:
        return np.array([r[key] for r in records], dtype=float)

    power_errors = column("P_linear") - column("P_bilinear")
    solve_times = column("solve_ms")
    delivered_gross = float(np.abs(column("P_bilinear")).sum() * ocp.dt)
    demanded_gross = float(np.abs(column("D")).sum() * ocp.dt)
    mean_abs_error = abs_err_sum / max(steps, 1)
    summary = {
        "steps": steps,
        "final_balance_mwh": ledger.b_past / J_PER_MWH,
        "delivered_gross_mwh": delivered_gross / J_PER_MWH,
        "demanded_gross_mwh": demanded_gross / J_PER_MWH,
        "coverage_fraction": (delivered_gross / demanded_gross
                              if demanded_gross > 0 else 0.0),
        "ukf_mean_abs_error_max_k": float(mean_abs_error.max()),
        "ukf_max_abs_error_k": abs_err_max,
        "power_error_mean_w": (float(np.abs(power_errors).mean())
                               if steps else 0.0),
        "power_error_std_w": float(power_errors.std()) if steps else 0.0,
        "solve_ms_median": float(np.median(solve_times)) if steps else 0.0,
        "solve_ms_max": float(solve_times.max()) if steps else 0.0,
        "est_bound_violation_k": est_violation,
        "u_abs_max": float(max((abs(r["u_applied"]) for r in records),
                               default=0.0)),
        **counts,
    }
    return RunReport(summary, mean_abs_error, est_violation, err_series,
                     records)


# Width [m] of the charged stores' Gaussian thermal fronts.
_FRONT_LENGTH_M = 26.0


def _charged_store_profile(grid, t_amb: float, amplitude: float) -> np.ndarray:
    """Shell-volume averages of a Gaussian thermal front around the borehole.

    Finite-volume states are shell averages, so the analytic profile is
    integrated over each cell with the cylindrical weight r dr.
    """
    vals = np.zeros(grid.nu)
    for i in range(grid.nu):
        r = np.linspace(grid.edges[i], grid.edges[i + 1], 65)
        f = t_amb + amplitude * np.exp(-((r - grid.r0) / _FRONT_LENGTH_M) ** 2)
        vals[i] = np.trapezoid(f * r, r) / np.trapezoid(r, r)
    return vals


def power_form_study(scenario: Scenario, steps: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll the prediction model under a demand-proportional flow schedule.

    Returns (flows, bilinear powers, state-linear powers).  The flow tracks
    the demand through a nominal 5 K borehole temperature spread, so the
    trajectory visits all three operating modes as the season turns.  The
    rollout starts from charged stores with smooth thermal fronts that every
    admissible grid resolves, so the power-form comparison reflects the
    closure of the two formulas rather than the start-up transient of filling
    an ambient store with grid-thin injection plumes.
    """
    scenario.check_steps(steps)
    grid, params, ocp = scenario.grid, scenario.params, scenario.ocp
    warm = _charged_store_profile(grid, params.t_amb, 6.0)
    cold = _charged_store_profile(grid, params.t_amb, -7.0)
    x = np.concatenate([[warm[0]], warm, [cold[0]], cold])
    u_prev = 0.0
    flows = np.zeros(steps)
    p_bil = np.zeros(steps)
    p_lin = np.zeros(steps)
    for k in range(steps):
        u = float(np.clip(scenario.demand[k] / (params.c_w * 5.0),
                          ocp.u_min, ocp.u_max))
        model = build_pwa(grid, params, scenario.hx, ocp.dt, x, u_prev)
        x_next = pwa_step(model, x, u)
        flows[k] = u
        p_bil[k] = power_bilinear(x, u, params.c_w)
        p_lin[k] = power_linear(x, x_next, grid, params, ocp.dt)
        x, u_prev = x_next, u
    return flows, p_bil, p_lin


def replay_observer(scenario: Scenario, records: list[dict]) -> list[np.ndarray]:
    """Re-run the UKF on logged measurements and inputs; returns per-step means.

    Deterministic given the recorded (y, u) sequence, so replays reproduce the
    logged estimates exactly.  A record without a reading or a flow, or with
    a non-finite flow, raises ``ScenarioError`` naming the column; a
    non-finite reading makes its hour predict-only.
    """
    estimator = _Estimator(scenario)
    u_prev = 0.0
    means = []
    for k, rec in enumerate(records):
        for key in (*SENSOR_KEYS, "u_applied"):
            if rec.get(key) is None:
                raise ScenarioError(f"results record {k} has no {key!r} value")
        if not np.isfinite(rec["u_applied"]):
            raise ScenarioError(f"results record {k} has a non-finite "
                                f"'u_applied' value: {rec['u_applied']!r}")
        y = np.array([rec[key] for key in SENSOR_KEYS])
        estimator.step(y, u_prev)
        means.append(estimator.est.mean.copy())
        u_prev = float(rec["u_applied"])
    return means
