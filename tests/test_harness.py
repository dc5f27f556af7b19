import dataclasses
import functools
import math

import numpy as np
import pytest

from ates_mpc import harness
from ates_mpc.errors import ControllerFault
from ates_mpc.observer import GaussianEstimate, project
from ates_mpc.power import J_PER_MWH
from ates_mpc.harness import (demand_window, power_form_study, replay_observer,
                              run_closed_loop)
from ates_mpc.scenario import _parse_config_text, scenario_from_values


def small_scenario(extra=""):
    return scenario_from_values(_parse_config_text(extra))


def test_demand_window_padding():
    demand = np.arange(5.0)
    assert demand_window(demand, 0, 3).tolist() == [0.0, 1.0, 2.0]
    assert demand_window(demand, 3, 4).tolist() == [3.0, 4.0, 4.0, 4.0]
    assert demand_window(np.array([]), 0, 2).tolist() == [0.0, 0.0]


def test_zero_demand_run_stays_storing():
    sc = small_scenario("demand_heat_total_mwh = 0\ndemand_cold_total_mwh = 0")
    report = run_closed_loop(sc, steps=24)
    flows = np.array([r["u_applied"] for r in report.records])
    assert np.all(flows == 0.0)
    assert abs(report.summary["final_balance_mwh"]) <= 1e-3  # 1 kWh


def test_run_deterministic():
    a = run_closed_loop(small_scenario(), steps=6)
    b = run_closed_loop(small_scenario(), steps=6)
    assert a.summary["final_balance_mwh"] == b.summary["final_balance_mwh"]
    assert [r["u_applied"] for r in a.records] == \
        [r["u_applied"] for r in b.records]


def test_report_shapes_and_ledger_length():
    report = run_closed_loop(small_scenario(), steps=5)
    assert report.summary["steps"] == 5
    assert len(report.records) == 5
    assert report.error_series.shape == (5,)
    assert report.ukf_mean_abs_error.shape == (42,)
    assert (report.ukf_mean_abs_error.max()
            <= report.summary["ukf_max_abs_error_k"])
    assert report.summary["solve_ms_max"] >= report.summary["solve_ms_median"] > 0.0


def test_applied_flow_respects_bounds():
    report = run_closed_loop(small_scenario(), steps=48)
    flows = np.array([r["u_applied"] for r in report.records])
    assert np.all(np.abs(flows) <= 0.0277 + 1e-12)


def test_replay_observer_reproduces_estimates():
    sc = small_scenario()
    report = run_closed_loop(sc, steps=6)
    means = replay_observer(sc, report.records)
    for rec, mean in zip(report.records, means):
        assert rec["warm_borehole_est"] == pytest.approx(mean[0], abs=1e-12)
        assert rec["cold_borehole_est"] == pytest.approx(mean[21], abs=1e-12)


def test_power_form_study_visits_modes():
    # 600 h spans the autumn switchover, so both active modes appear.
    flows, p_bil, p_lin = power_form_study(small_scenario(), steps=600)
    assert flows.max() > 0.0
    assert flows.min() < 0.0
    assert p_bil.shape == p_lin.shape == (600,)
    peak = np.abs(p_bil).max()
    assert peak > 0.0
    assert np.abs(p_lin - p_bil).mean() <= 0.05 * peak


def test_controller_fault_falls_back_to_storing(monkeypatch):
    normal = run_closed_loop(small_scenario(), steps=6)
    assert normal.records[2]["u_applied"] != 0.0
    real = harness.solve_ocp
    calls = []

    def fails_at_step_2(*args):
        calls.append(None)
        if len(calls) == 3:
            raise ControllerFault("forced")
        return real(*args)

    monkeypatch.setattr(harness, "solve_ocp", fails_at_step_2)
    report = run_closed_loop(small_scenario(), steps=6)
    assert len(report.records) == 6
    assert report.records[2]["u_applied"] == 0.0
    assert report.records[2]["mode"] == "storing"
    assert np.isnan(report.records[2]["ocp_cost"])
    assert np.isfinite(report.records[3]["ocp_cost"])  # planning resumed
    assert report.summary["controller_faults"] == 1
    assert normal.summary["controller_faults"] == 0
    assert report.summary["qps_solved"] >= 5  # at least one per planned step
    assert report.summary["stalled_candidates"] == 0


def test_report_sums_plan_counts(monkeypatch):
    # Each plan reports one more of every count than it had, the plan at
    # step 2 faults and the reading at step 4 is non-finite, so no count of
    # the run can be right by chance.
    real_solve, real_measure = harness.solve_ocp, harness.measure
    calls, solutions, readings = [], [], []

    def recording(*args):
        calls.append(None)
        if len(calls) == 3:
            raise ControllerFault("forced")
        sol = real_solve(*args)
        counts = {key: n + 1 for key, n in sol.counts.items()}
        solutions.append(dataclasses.replace(sol, counts=counts))
        return solutions[-1]

    def nan_at_step_4(truth):
        readings.append(real_measure(truth))
        return np.full(4, np.nan) if len(readings) == 5 else readings[-1]

    monkeypatch.setattr(harness, "solve_ocp", recording)
    monkeypatch.setattr(harness, "measure", nan_at_step_4)
    report = run_closed_loop(small_scenario(), steps=6)
    assert len(solutions) == 5
    expected = {"controller_faults": 1}
    for sol in solutions:
        for key, n in sol.counts.items():
            expected[key] = expected.get(key, 0) + n
    expected["sensor_faults"] = 1
    # The summary ends with the counts, keys and order as they are.
    counts = list(report.summary.items())[-len(expected):]
    assert counts == list(expected.items())
    assert min(n for _, n in counts) >= 1


def test_summary_figures_match_the_records():
    report = run_closed_loop(small_scenario(), steps=12)
    summary, records = report.summary, report.records
    dt = small_scenario().ocp.dt
    flows = [r["u_applied"] for r in records]
    assert any(u != 0.0 for u in flows)  # some hours pump
    p_bil = np.array([r["P_bilinear"] for r in records])
    errors = np.array([r["P_linear"] for r in records]) - p_bil
    delivered = math.fsum(abs(p) * dt for p in p_bil) / J_PER_MWH
    demanded = math.fsum(abs(r["D"]) * dt for r in records) / J_PER_MWH
    approx = functools.partial(pytest.approx, rel=1e-12)
    assert summary["steps"] == len(records) == 12
    assert summary["final_balance_mwh"] == records[-1]["B_past"] / J_PER_MWH
    assert summary["delivered_gross_mwh"] == approx(delivered)
    assert summary["demanded_gross_mwh"] == approx(demanded)
    assert summary["coverage_fraction"] == approx(delivered / demanded)
    assert summary["power_error_mean_w"] == approx(np.mean(np.abs(errors)))
    assert summary["power_error_std_w"] == approx(np.std(errors))
    assert summary["u_abs_max"] == max(map(abs, flows))
    assert summary["est_bound_violation_k"] == report.est_bound_violation_k
    assert summary["ukf_mean_abs_error_max_k"] == report.ukf_mean_abs_error.max()


def test_summary_and_ledger_figures_are_python_numbers():
    report = run_closed_loop(small_scenario(), steps=2)
    summary = report.summary
    assert {key: type(value) for key, value in summary.items()
            if type(value) not in (int, float)} == {}
    for rec in report.records:
        assert type(rec["P_bilinear"]) is float
        assert type(rec["B_past"]) is float


def test_non_finite_reading_makes_a_predict_only_step(monkeypatch):
    real_measure, real_predict, real_project = (harness.measure, harness.predict,
                                                harness.project)
    readings, predictions, estimates = [], [], []

    def nan_at_step_3(truth):
        y = real_measure(truth)
        readings.append(y)
        if len(readings) == 4:
            y = y.copy()
            y[1] = np.nan
        return y

    def recording_predict(*args):
        predictions.append(real_predict(*args))
        return predictions[-1]

    def recording_project(*args):
        estimates.append(real_project(*args))
        return estimates[-1]

    monkeypatch.setattr(harness, "measure", nan_at_step_3)
    monkeypatch.setattr(harness, "predict", recording_predict)
    monkeypatch.setattr(harness, "project", recording_project)
    sc = small_scenario()
    report = run_closed_loop(sc, steps=8)
    assert len(report.records) == 8
    assert report.summary["sensor_faults"] == 1
    assert np.isnan(report.records[3]["y_warm_far"])
    for est in estimates:
        assert np.all(np.isfinite(est.mean)) and np.all(np.isfinite(est.cov))
    pred = predictions[3]
    expected = project(GaussianEstimate(pred.mean, pred.cov),
                       *sc.ocp.state_bounds(sc.grid.nu))
    assert np.array_equal(estimates[3].mean, expected.mean)
    assert np.array_equal(estimates[3].cov, expected.cov)
    assert np.all(np.isfinite(report.error_series))
    assert run_closed_loop(sc, steps=8).summary["sensor_faults"] == 0


def test_filter_error_is_consistent_with_its_covariance(monkeypatch):
    # NEES e' P^-1 e of the projected estimate against the restricted truth,
    # after the start-up transient.  A consistent filter keeps its median
    # below the 95% point of chi-square with 42 dof; a projection that
    # collapses the variance of box-pinned states sends it to ~1e7.
    real_project, real_restrict = harness.project, harness.restrict_to_coarse
    estimates, truths = [], []

    def recording_project(*args):
        estimates.append(real_project(*args))
        return estimates[-1]

    def recording_restrict(*args):
        truths.append(real_restrict(*args))
        return truths[-1]

    monkeypatch.setattr(harness, "project", recording_project)
    monkeypatch.setattr(harness, "restrict_to_coarse", recording_restrict)
    run_closed_loop(small_scenario(), steps=168)
    assert len(estimates) == len(truths) == 168
    nees = []
    for est, truth in zip(estimates[48:], truths[48:]):
        err = truth - est.mean
        nees.append(err @ np.linalg.solve(est.cov, err))
    assert np.median(nees) <= 58.1
